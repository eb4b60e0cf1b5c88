#!/usr/bin/env python3
"""Regenerate perfbench/digests.json, the reference outputs the benchmark checks.

Usage, from the root of a checkout:

    python3 perfbench/make_digests.py

Runs every transition and product op any seed can generate through the CLI,
each in a fresh process with an empty cache directory, and records the
sha256 of its stdout and of the cache document a transition op writes.  The
CLI promises byte-identical output and cache documents, so the file only
changes when that promise is deliberately broken.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import DIGESTS, TMP_BASE, child_env, remove_tmp, run_child, sha256
from workloads import digest_universe


def main() -> int:
    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="digests-", dir=TMP_BASE))
    out = {"stdout": {}, "cache": {}}
    try:
        env = child_env(tmp)
        for i, op in enumerate(digest_universe()):
            cache = tmp / "cache" / str(i)
            argv = [sys.executable, "-m", "nestfock", *op.args, "--cache-dir", str(cache)]
            res = run_child(argv, env, tmp, 600.0)
            if res.returncode != 0:
                sys.stderr.write(f"{op.label}: exit {res.returncode}\n{res.stderr_tail}")
                return 1
            out["stdout"][op.stdout_key] = sha256(res.stdout)
            if op.cache_key:
                digest = sha256((cache / f"{op.cache_key}.json").read_bytes())
                if out["cache"].setdefault(op.cache_key, digest) != digest:
                    sys.stderr.write(f"{op.label}: cache document depends on the output format\n")
                    return 1
            print(f"{res.wall_s:7.3f} s  {op.label}", flush=True)
    finally:
        remove_tmp(tmp)
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
