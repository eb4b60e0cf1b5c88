"""Byte identity of the CLI against the benchmark's reference digests.

Every transition and product op of ``perfbench/workloads.digest_universe``
runs in-process through ``cli.main`` with a fresh cache directory.  The
sha256 of its stdout, and of the cache document it writes, must match
``perfbench/digests.json``, which this test only reads.  The routes at
degrees above the benchmark's are pinned in ``tests/route_digests.json``.
"""

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from nestfock import cli
from nestfock.basis_change import transition_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclass of an op looks its module up here
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_op_reproduces_the_reference_digests(tmp_path):
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    ops = load_workloads().digest_universe()
    assert ops and len(digests["stdout"]) == len(ops)
    mismatches = []
    for i, op in enumerate(ops):
        cache = tmp_path / str(i)
        out = io.StringIO()
        with redirect_stdout(out):
            status = cli.main([*op.args, "--cache-dir", str(cache)])
        assert status == 0, op.label
        if sha256(out.getvalue().encode()) != digests["stdout"][op.stdout_key]:
            mismatches.append(op.stdout_key)
        written = sorted(p.name for p in cache.iterdir()) if cache.exists() else []
        assert written == ([f"{op.cache_key}.json"] if op.cache_key else []), op.label
        if op.cache_key:
            doc = (cache / f"{op.cache_key}.json").read_bytes()
            if sha256(doc) != digests["cache"][op.cache_key]:
                mismatches.append(op.cache_key)
    assert not mismatches


def test_routes_above_the_benchmark_degrees_reproduce_their_digests():
    """The six routes at n = 8..11 hash as pinned in ``tests/route_digests.json``.

    Each entry is the sha256 of ``json_text()`` for "source--target--n".  The
    file is regenerated only for an intended change of output, never to make
    this test pass.
    """
    digests = json.loads((Path(__file__).with_name("route_digests.json")).read_text())
    routes = [(s, t) for s in ("b1", "b2", "b3") for t in ("b1", "b2", "b3") if s != t]
    got = {
        f"{s}--{t}--{n}": sha256(transition_matrix(s, t, n).json_text().encode())
        for n in range(8, 12)
        for s, t in routes
    }
    assert len(got) == 24 and got == digests
