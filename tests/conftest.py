"""Shared helpers: starting the CLI in a child process, clearing the package's memos."""

import os
import subprocess
import sys
from pathlib import Path

from nestfock import basis_change, incidence, partitions, ring, symfunc

SRC = Path(__file__).resolve().parents[1] / "src"


def clear_memos():
    """Empty every memo of the matrix, product, symmetric-function, incidence
    and partition modules.

    That includes memoized methods such as ``Partition.conjugate``.  A test
    that monkeypatches a matrix function calls this before and after, so no
    matrix built from the patched function outlives the test.
    """
    for module in (basis_change, ring, symfunc, incidence, partitions):
        for obj in vars(module).values():
            for memo in (obj, *vars(obj).values()) if isinstance(obj, type) else (obj,):
                if hasattr(memo, "cache_clear"):
                    memo.cache_clear()


def child_env(env_extra=None):
    """Environment for a child process that imports this checkout's package.

    The absolute ``src/`` goes in front of any inherited PYTHONPATH, so the
    child imports this checkout's package even though a relative
    ``PYTHONPATH=src`` resolves to nothing in another working directory.
    NESTFOCK_CACHE_DIR is dropped unless ``env_extra`` sets it.
    """
    env = {k: v for k, v in os.environ.items() if k != "NESTFOCK_CACHE_DIR"}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), inherited] if inherited else [str(SRC)])
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, cwd, env_extra=None):
    """Run ``python -m nestfock *args`` in a fresh process with working dir ``cwd``.

    The child gets ``child_env(env_extra)``, so the default cache lands in
    ``cwd`` unless ``env_extra`` sets NESTFOCK_CACHE_DIR itself.
    """
    return subprocess.run(
        [sys.executable, "-m", "nestfock", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(env_extra),
    )
