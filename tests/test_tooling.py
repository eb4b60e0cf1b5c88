"""Test tooling: the names the benchmark's tracer wraps, its verify ops, and the memo reset of the tests."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env, clear_memos, run_cli
from nestfock.verify import run_suite

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_perfbench(name):
    """A module of perfbench, which is not a package, loaded by its file path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", TRACER.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def wrapped_names():
    tracer = load_perfbench("tracer")
    names = []
    for table in (tracer.SPAN_GROUPS, tracer.LEAF_GROUPS, tracer.COUNT_ONLY):
        for quals in table.values():
            names.extend(quals)
    names += [f"verify.suite_{s}" for s in tracer.VERIFY_SUITES]
    names += [
        "verify.run_suite",
        tracer.TO_JSON_DOC,
        "basis_change.cache_load",
        "basis_change.cache_store",
        "basis_change._cache_path",
    ]
    return names


@pytest.mark.parametrize("qual", wrapped_names())
def test_traced_name_resolves(qual):
    module_name, *attrs = qual.split(".")
    obj = importlib.import_module(f"nestfock.{module_name}")
    if len(attrs) == 2:
        # the tracer reads methods from the class __dict__
        obj = vars(getattr(obj, attrs[0]))[attrs[1]]
    else:
        obj = getattr(obj, attrs[0])
    assert callable(obj)


@pytest.mark.parametrize("suite, max_n", load_perfbench("workloads").VERIFY_MAX_N.items())
def test_benchmark_verify_ops_pass_with_cases(suite, max_n):
    # the verify-suites workload fails an op that prints a FAIL line, and a
    # check that compares no case prints one
    results = run_suite(suite, max_n)
    assert results and [r.name for r in results if not (r.ok and r.cases > 0)] == []


def test_traced_cli_call_matches_plain_call(tmp_path):
    # diagrams runs the conjugated operators and the Hilbert-side pairings;
    # heisenberg builds the operator matrices, cached on the very operator
    # functions that the tracer rebinds; ordinary reaches the product
    # contraction through the rebound ordinary_cup and _unit_data; roundtrip
    # runs every step of the curve recursion through the rebound b3_in_b2_matrix
    for args in (
        ["product", "--basis", "ordinary", "-n", "2"],
        ["verify", "--suite", "diagrams", "--max-n", "3"],
        ["verify", "--suite", "heisenberg", "--max-n", "3"],
        ["verify", "--suite", "ordinary", "--max-n", "3"],
        ["verify", "--suite", "roundtrip", "--max-n", "3"],
    ):
        args = [*args, "--cache-dir", str(tmp_path)]
        trace = tmp_path / f"trace-{'-'.join(args[:3])}.json"
        plain = run_cli(*args, cwd=tmp_path)
        traced = subprocess.run(
            [sys.executable, str(TRACER), str(trace), *args],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )
        assert traced.returncode == plain.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        assert trace.exists()


def test_clear_memos_empties_every_memo_of_the_package():
    assert all(r.ok for r in run_suite("all", 2))  # fills the memos
    memos = []
    for name, module in list(sys.modules.items()):
        if name.startswith("nestfock."):
            for obj in vars(module).values():
                for memo in (obj, *vars(obj).values()) if isinstance(obj, type) else (obj,):
                    if hasattr(memo, "cache_info") and memo not in memos:
                        memos.append(memo)
    names = {m.__qualname__ for m in memos}
    assert {"Partition.conjugate", "canonical_generators", "_pullback_image"} <= names
    clear_memos()
    assert [m.__qualname__ for m in memos if m.cache_info().currsize] == []
