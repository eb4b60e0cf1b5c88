#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selftest.py

The file is deliberately not named test_*.py, so the repository's pytest run
does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, WORKLOADS, product_op, rounds, transition_op, verify_op  # noqa: E402


def _expected() -> dict:
    return json.loads(run.DIGESTS.read_text())


def _context(workload: str, ops: list[Op]) -> run.Context:
    ctx = run.setup_once(workload, 0, _expected())
    ctx.rounds = [ops]
    return ctx


def _fixed_cases(ops: list[Op]) -> list:
    """Cases a round always holds, without their output format."""
    cases = [o.args[: o.args.index("--format")] if "--format" in o.args else o.args for o in ops]
    return sorted(c for c in cases if c[0] != "transition" or int(c[6]) in workloads.TRANSITION_TOP_DEGREES)


class OpListTest(unittest.TestCase):
    def test_same_seed_same_op_list(self):
        for w in WORKLOADS:
            self.assertEqual(rounds(w, 7, 4), rounds(w, 7, 4))

    def test_seed_changes_order_not_work(self):
        for w in WORKLOADS:
            a, b = rounds(w, 1, 2), rounds(w, 2, 2)
            self.assertNotEqual(a, b)
            self.assertEqual(_fixed_cases(a[0]), _fixed_cases(b[0]))
            self.assertEqual(len(a[0]), len(b[0]))

    def test_formats_alternate_between_rounds(self):
        r0, r1 = rounds("product-tables", 3, 2)
        self.assertEqual(
            sorted(o.stdout_key for o in r0 + r1),
            sorted(o.stdout_key for o in workloads.digest_universe() if o.kind == "product"),
        )

    def test_every_generated_op_has_a_digest(self):
        expected = _expected()
        for w in ("transition-cold", "product-tables"):
            for ops in rounds(w, 11, 20):
                for op in ops:
                    self.assertIn(op.stdout_key, expected["stdout"])


class FailureCountingTest(unittest.TestCase):
    def test_tampered_digest_and_nonzero_exit_are_failures(self):
        good = transition_op("b3", "b2", 2, "json")
        tampered = product_op("b1", 2, "csv")
        bad_exit = replace(verify_op("hooks"), args=("verify", "--suite", "hooks", "--max-n", "99"))
        expected = _expected()
        expected["stdout"][tampered.stdout_key] = "0" * 64
        ctx = _context("transition-cold", [good, tampered, bad_exit])
        try:
            runs, _wall = run.measure(ctx, expected, 0.0, 60.0)
        finally:
            run.remove_tmp(ctx.tmp)
        failures = [r.failure for r in runs]
        self.assertEqual(len(runs), 3)
        self.assertIsNone(failures[0])
        self.assertIn("digest", failures[1])
        self.assertIn("exit status 2", failures[2])
        metrics, _ = run.end_to_end(runs, _wall, [1.0], 50)
        self.assertAlmostEqual(metrics["ops_per_s"], 1 / _wall)

    def test_tampered_cache_digest_is_a_failure(self):
        op = transition_op("b1", "b3", 2, "csv")
        expected = _expected()
        expected["cache"][op.cache_key] = "0" * 64
        ctx = _context("transition-cold", [op])
        try:
            runs, _wall = run.measure(ctx, expected, 0.0, 60.0)
        finally:
            run.remove_tmp(ctx.tmp)
        self.assertIn("cache document", runs[0].failure)


class MetricTest(unittest.TestCase):
    def test_harrell_davis_percentile(self):
        walls = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.percentile_hd([0.4], 83), 0.4)
        self.assertAlmostEqual(run.percentile_hd(walls, 50), 3.0)
        # reference value from scipy.stats.mstats.hdquantiles
        self.assertAlmostEqual(run.percentile_hd(walls, 60), 3.501188778535071, places=12)

    def test_op_tail_is_the_harrell_davis_percentile(self):
        walls = [5.0, 1.0, 4.0, 2.0, 3.0]
        op = verify_op("hooks")
        runs = [run.OpRun(0, op, run.ChildResult(0, b"", w, w, 1024, 0, ""), None) for w in walls]
        metrics, info = run.end_to_end(runs, 15.0, [1.0], 60)
        self.assertEqual(metrics["op_p50_s"], 3.0)
        self.assertEqual(metrics["op_tail_s"], run.percentile_hd(walls, 60))
        self.assertEqual(info, {"percentile": 60, "samples": 5, "beyond": 2})


class TracerTest(unittest.TestCase):
    def test_traced_stdout_is_byte_identical(self):
        ops = [
            transition_op("b1", "b2", 4, "csv"),
            product_op("ordinary", 3, "json"),
            verify_op("euler"),
        ]
        ctx = _context("transition-cold", ops)
        try:
            runs, _wall = run.measure(ctx, _expected(), 0.0, 60.0)
            traced = run.trace_round(ctx, _expected(), runs)
        finally:
            run.remove_tmp(ctx.tmp)
        for r, (untraced, res, failure, record) in zip(runs, traced):
            self.assertIsNone(r.failure)
            self.assertIsNone(failure)
            self.assertEqual(res.stdout, untraced.result.stdout)
            self.assertEqual(record["spans"][0][0], "cli.main")
        values, _detail = run.per_layer(traced)
        self.assertGreater(values["basis_change.gram_solve_s"], 0)
        self.assertGreater(values["verify.suite_s.euler"], 0)
        self.assertEqual(values["verify.checks_failed"], 0)


class HermeticTest(unittest.TestCase):
    def test_fails_without_sources(self):
        run.TMP_BASE.mkdir(exist_ok=True)
        d = Path(tempfile.mkdtemp(dir=run.TMP_BASE))
        try:
            shutil.copytree(run.BENCH_DIR, d / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.BENCHMARK_JSON, d / "BENCHMARK.json")
            argv = [sys.executable, "perfbench/run.py", "--workload", "verify-suites",
                    "--seed", "1", "--seconds", "1", "--trace", "0"]
            res = subprocess.run(argv, cwd=d, capture_output=True, timeout=180)
        finally:
            run.remove_tmp(d)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, b"")

    def test_no_cache_left_in_checkout(self):
        self.assertFalse((run.ROOT / ".nestfock-cache").exists())


if __name__ == "__main__":
    unittest.main()
