#!/usr/bin/env python3
"""Benchmark of the nestfock CLI, timed from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the CLI as a closed loop: one child process at a time, each
op a fresh ``python -m nestfock`` with an absolute PYTHONPATH to src/ and a
--cache-dir under a temporary directory inside the checkout.  Set-up runs
several times and the median is reported as setup_s.  The timed window runs
whole rounds of the workload (see workloads.py) until --seconds have passed
and at least the workload's minimum number of rounds is done; workloads that
alternate output formats stop only after an even number of rounds.
Every op is checked: transition and product stdout (and, on a cold cache,
the written cache document) against the sha256 digests in digests.json;
verify ops must exit 0 and print no FAIL line.

--trace 0 prints the end-to-end metrics; --trace 1 also replays the first
round through tracer.py and prints the per-layer metrics.  The metric names,
units and directions come from BENCHMARK.json; what each one measures and
which end-to-end metric it should move are in perfbench/README.md.  The last
line of stdout is the result object; the line before it records the run's
environment and details.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import VERIFY_SUITES, summarize
from workloads import (
    FORMAT_WORKLOADS,
    MIN_ROUNDS,
    TRANSITION_DEGREES,
    TRANSITION_PAIRS,
    WORKLOADS,
    Op,
    rounds,
)

RUN_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DIGESTS = BENCH_DIR / "digests.json"
TRACER = BENCH_DIR / "tracer.py"
TMP_BASE = ROOT / ".perfbench-tmp"
SPAN_DIR = ROOT / ".perfbench-out"

# set-up runs this many times and setup_s is the median; filling the warm
# cache computes every matrix of the universe (~4.5 s), so it runs once
SETUP_REPS = {"transition-warm": 1}
DEFAULT_SETUP_REPS = 5
MAX_ROUNDS = 200
OP_TIMEOUT_S = 60.0
# the whole run must end within 180 s; the traced replay gets the rest
UNTRACED_DEADLINE_S = {0: 165.0, 1: 100.0}
TRACED_DEADLINE_S = 170.0
TAIL_BEYOND = 10

FILL_CACHE = (
    "import sys\n"
    "from nestfock.basis_change import cache_store, transition_matrix\n"
    "for case in sys.argv[2:]:\n"
    "    s, t, n = case.split(':')\n"
    "    cache_store(transition_matrix(s, t, int(n)), sys.argv[1])\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    spawn_ns: int
    stderr_tail: str


@dataclass
class OpRun:
    round: int
    op: Op
    result: ChildResult
    failure: str | None


@dataclass
class Context:
    workload: str
    tmp: Path
    env: dict
    rounds: list
    warm_cache: Path | None = None
    ops_started: int = 0


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float) -> ChildResult:
    """Run one child to completion; kill it after ``timeout`` seconds."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
        wall_ns = time.perf_counter_ns() - spawn_ns
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_bytes()[-2000:].decode(errors="replace")
    return ChildResult(
        proc.returncode,
        out,
        wall_ns / 1e9,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        spawn_ns,
        tail,
    )


def remove_tmp(tmp: Path) -> None:
    """Delete a run's temp dir, and the shared parent once it is empty."""
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        TMP_BASE.rmdir()
    except OSError:
        pass


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def remaining(deadline_s: float) -> float:
    return deadline_s - (time.perf_counter() - RUN_START)


# ---------------------------------------------------------------------------
# set-up

def child_env(tmp: Path) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "NESTFOCK_CACHE_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    env["TMPDIR"] = str(tmp)
    return env


def setup_once(workload: str, seed: int, expected: dict) -> Context:
    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_BASE))
    try:
        return _prepare(Context(workload, tmp, child_env(tmp), rounds(workload, seed, MAX_ROUNDS)), expected)
    except BaseException:
        remove_tmp(tmp)
        raise


def _prepare(ctx: Context, expected: dict) -> Context:
    tmp, env = ctx.tmp, ctx.env
    # bytecode warm-up into this run's own pycache prefix
    res = run_child([sys.executable, "-c", "import nestfock.cli"], env, tmp, OP_TIMEOUT_S)
    if res.returncode != 0:
        raise BenchError(f"cannot import nestfock from {SRC}:\n{res.stderr_tail}")
    if ctx.workload == "transition-warm":
        ctx.warm_cache = tmp / "warm-cache"
        cases = [f"{s}:{t}:{n}" for n in TRANSITION_DEGREES for s, t in TRANSITION_PAIRS]
        res = run_child(
            [sys.executable, "-c", FILL_CACHE, str(ctx.warm_cache), *cases], env, tmp, 120.0
        )
        if res.returncode != 0:
            raise BenchError(f"filling the cache failed:\n{res.stderr_tail}")
        for case in cases:
            name = case.replace(":", "--")
            doc = (ctx.warm_cache / f"{name}.json").read_bytes()
            if sha256(doc) != expected["cache"][name]:
                raise BenchError(f"filled cache document {name} does not match its digest")
    return ctx


def setup(workload: str, seed: int, expected: dict) -> tuple[Context, list[float]]:
    """Set up several times; keep the last context, discard the others."""
    times = []
    ctx = None
    for _ in range(SETUP_REPS.get(workload, DEFAULT_SETUP_REPS)):
        if ctx is not None:
            remove_tmp(ctx.tmp)
        t0 = time.perf_counter()
        ctx = setup_once(workload, seed, expected)
        times.append(time.perf_counter() - t0)
    return ctx, times


# ---------------------------------------------------------------------------
# running and checking ops

def check(op: Op, res: ChildResult, expected: dict, cache_doc: bytes | None) -> str | None:
    """Failure reason of one op, or None when it passed."""
    if res.returncode != 0:
        return f"exit status {res.returncode}: {res.stderr_tail.strip()[-300:]}"
    if op.kind == "verify":
        if any(line.startswith(b"FAIL") for line in res.stdout.splitlines()):
            return "verify printed a FAIL line"
        return None
    want = expected["stdout"].get(op.stdout_key)
    if want is None or sha256(res.stdout) != want:
        return "stdout does not match its digest"
    if cache_doc is not None and sha256(cache_doc) != expected["cache"].get(op.cache_key):
        return "cache document does not match its digest"
    return None


def execute(ctx: Context, op: Op, expected: dict, deadline_s: float, trace_out: Path | None = None):
    """Run one op (through the tracer when ``trace_out`` is given) and check it."""
    cold = ctx.workload == "transition-cold" and op.cache_key
    ctx.ops_started += 1
    cache = ctx.warm_cache or ctx.tmp / "cache" / str(ctx.ops_started)
    prefix = [sys.executable, str(TRACER), str(trace_out)] if trace_out else [sys.executable, "-m", "nestfock"]
    argv = prefix + list(op.args) + ["--cache-dir", str(cache)]
    res = run_child(argv, ctx.env, ctx.tmp, min(OP_TIMEOUT_S, remaining(deadline_s)))
    doc = None
    if cold:
        doc_path = cache / f"{op.cache_key}.json"
        doc = doc_path.read_bytes() if doc_path.exists() else b""
    failure = check(op, res, expected, doc)
    if ctx.warm_cache is None:
        shutil.rmtree(cache, ignore_errors=True)
    return res, failure


def measure(ctx: Context, expected: dict, seconds: float, deadline_s: float, min_rounds: int = 1):
    """Closed loop over whole rounds until ``seconds`` and ``min_rounds`` are reached."""
    runs: list[OpRun] = []
    step = 2 if ctx.workload in FORMAT_WORKLOADS else 1
    t0 = time.perf_counter()
    for r, ops in enumerate(ctx.rounds):
        if r >= min_rounds and r % step == 0 and time.perf_counter() - t0 >= seconds:
            break
        for op in ops:
            if remaining(deadline_s) < 1.0:
                return runs, time.perf_counter() - t0
            res, failure = execute(ctx, op, expected, deadline_s)
            runs.append(OpRun(r, op, res, failure))
    return runs, time.perf_counter() - t0


def trace_round(ctx: Context, expected: dict, first_round: list[OpRun]):
    """Replay the first round through the tracer; stdout must not change."""
    trace_dir = ctx.tmp / "trace"
    trace_dir.mkdir()
    traced = []
    for i, untraced in enumerate(first_round):
        if remaining(TRACED_DEADLINE_S) < 1.0:
            break
        out = trace_dir / f"{i}.json"
        res, failure = execute(ctx, untraced.op, expected, TRACED_DEADLINE_S, trace_out=out)
        if failure is None and res.stdout != untraced.result.stdout:
            failure = "traced stdout differs from the untraced run"
        record = json.loads(out.read_text()) if out.exists() else None
        if failure is None and record is None:
            failure = "tracer wrote no record"
        traced.append((untraced, res, failure, record))
    return traced


# ---------------------------------------------------------------------------
# metrics

def tail_percentile(workload: str) -> int:
    """Highest whole percentile with TAIL_BEYOND samples beyond it at the
    workload's minimum op count."""
    least = MIN_ROUNDS[workload] * len(rounds(workload, 0, 1)[0])
    return 100 * (least - TAIL_BEYOND) // least


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or tiny)
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / ((1.0 + num * d) or tiny)
            c = (1.0 + num / c) or tiny
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def percentile_hd(values: list[float], percentile: float) -> float:
    """Harrell-Davis estimate of a percentile (0 < percentile < 100).

    A weighted mean of all order statistics, the weights being the Beta
    distribution of the percentile's rank.  A round mixes ops of very
    different cost, so the rank of a percentile often falls where two kinds
    of op meet, and the one sample at that rank jumps between them from run
    to run; this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = percentile / 100.0
    cdf = [_betainc(q * (n + 1), (1.0 - q) * (n + 1), i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def end_to_end(runs: list[OpRun], loop_wall: float, setup_times: list[float], tail_pct: int) -> tuple[dict, dict]:
    walls = [r.result.wall_s for r in runs]
    passed = sum(1 for r in runs if r.failure is None)
    tail_value = percentile_hd(walls, tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": passed / loop_wall,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "peak_rss_mb": max(r.result.maxrss_kb for r in runs) / 1024.0,
    }
    beyond = sum(1 for w in walls if w > tail_value)
    return metrics, {"percentile": tail_pct, "samples": len(walls), "beyond": beyond}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round (sums over its ops)."""
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    count: dict[str, int] = {}
    leaves: dict[str, list[int]] = {}
    memo = [0, 0]
    cache = {"loads": 0, "hits": 0, "bytes_read": 0, "bytes_written": 0}
    checks = [0, 0]
    h_distinct = 0
    startup = main = cpu = stdout_bytes = traced_wall = untraced_wall = 0.0
    same_clock = "CLOCK_MONOTONIC" in time.get_clock_info("perf_counter").implementation
    for run, res, _failure, record in traced:
        untraced_wall += run.result.wall_s
        traced_wall += res.wall_s
        cpu += run.result.cpu_s
        stdout_bytes += len(run.result.stdout)
        if record is None:
            continue
        s = summarize(record)
        main += s["main_ns"] / 1e9
        if same_clock and s["main_start_ns"] is not None:
            startup += (s["main_start_ns"] - res.spawn_ns) / 1e9
        else:
            startup += res.wall_s - s["main_ns"] / 1e9
        for g, ns in s["self_ns"].items():
            self_s[g] = self_s.get(g, 0.0) + ns / 1e9
        for g, ns in s["incl_ns"].items():
            incl_s[g] = incl_s.get(g, 0.0) + ns / 1e9
        for g, c in s["count"].items():
            count[g] = count.get(g, 0) + c
        for g, (calls, ns) in record["leaves"].items():
            acc = leaves.setdefault(g, [0, 0])
            acc[0] += calls
            acc[1] += ns
        memo = [memo[0] + record["memo"][0], memo[1] + record["memo"][1]]
        for k in cache:
            cache[k] += record["cache"][k]
        checks = [checks[0] + record["verify"][0], checks[1] + record["verify"][1]]
        h_distinct += record["h_distinct"]

    def leaf_s(g):
        return leaves.get(g, [0, 0])[1] / 1e9

    def leaf_calls(g):
        return leaves.get(g, [0, 0])[0]

    m = {
        "cli.startup_s": startup,
        "cli.main_s": main,
        "cli.cpu_s": cpu,
        "cli.emit_s": incl_s.get("cli.emit", 0.0),
        "cli.stdout_bytes": int(stdout_bytes),
        "basis_change.curve_recursion_s": self_s.get("basis_change.curve_recursion", 0.0),
        "basis_change.gram_s": self_s.get("basis_change.gram", 0.0),
        "basis_change.gram_solve_s": self_s.get("basis_change.gram_solve", 0.0),
        "basis_change.mat_inv_s": self_s.get("basis_change.mat_inv", 0.0),
        "basis_change.mat_inv_calls": count.get("basis_change.mat_inv", 0),
        "basis_change.mat_mul_s": self_s.get("basis_change.mat_mul", 0.0),
        "basis_change.hilb_s": self_s.get("basis_change.hilb", 0.0),
        "basis_change.apply_s": self_s.get("basis_change.apply", 0.0),
        "basis_change.apply_calls": count.get("basis_change.apply", 0),
        "basis_change.memo_hit_ratio": _ratio(memo[0], memo[0] + memo[1]),
        "basis_change.cache_load_s": incl_s.get("basis_change.cache_load", 0.0),
        "basis_change.cache_store_s": incl_s.get("basis_change.cache_store", 0.0),
        "basis_change.cache_hit_ratio": _ratio(cache["hits"], cache["loads"]),
        "basis_change.cache_bytes_read": cache["bytes_read"],
        "basis_change.cache_bytes_written": cache["bytes_written"],
        "incidence.h_calls": leaf_calls("incidence.h"),
        "incidence.h_distinct_ratio": _ratio(h_distinct, leaf_calls("incidence.h")),
        "incidence.h_s": leaf_s("incidence.h"),
        "incidence.tangent_weights_s": leaf_s("incidence.tangent_weights"),
        "incidence.betti_s": leaf_s("incidence.betti"),
        "partitions.hook_calls": leaf_calls("partitions.hook"),
        "partitions.hook_s": leaf_s("partitions.hook"),
        "partitions.enumerate_s": leaf_s("partitions.enumerate"),
        "fock.pair_s": leaf_s("fock.pair"),
        "fock.pair_calls": leaf_calls("fock.pair"),
        "fock.operator_s": leaf_s("fock.operator"),
        "fock.vector_add_calls": leaf_calls("fock.vector_add"),
        "curve_classes.create_s": self_s.get("curve_classes.create", 0.0),
        "curve_classes.create_calls": count.get("curve_classes.create", 0),
        "ring.star_tilde_s": self_s.get("ring.star_tilde", 0.0),
        "ring.star_tilde_calls": count.get("ring.star_tilde", 0),
        "ring.ordinary_cup_s": self_s.get("ring.ordinary_cup", 0.0),
        "ring.unit_s": self_s.get("ring.unit", 0.0),
        "ring.pullback_s": self_s.get("ring.pullback", 0.0),
        "symfunc.s": self_s.get("symfunc", 0.0),
        "verify.checks": checks[0],
        "verify.checks_failed": checks[1],
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    for suite in VERIFY_SUITES:
        m[f"verify.suite_s.{suite}"] = incl_s.get(f"verify.suite.{suite}", 0.0)
    solver = m["basis_change.gram_solve_s"] + m["basis_change.mat_inv_s"] + m["basis_change.mat_mul_s"]
    suites = sum(m[f"verify.suite_s.{s}"] for s in VERIFY_SUITES)
    detail = {
        "traced_ops": len(traced),
        "solver_share_of_main": _ratio(solver, main),
        "suite_share_of_main": _ratio(suites, main),
    }
    return m, detail


def claims(workload: str, m: dict, detail: dict) -> dict:
    """What the trace must show for each workload to do what it claims."""
    if workload == "transition-warm":
        return {
            "gram_solve_s is 0": m["basis_change.gram_solve_s"] == 0,
            "mat_inv_calls is 0": m["basis_change.mat_inv_calls"] == 0,
            "cache_hit_ratio is 1": m["basis_change.cache_hit_ratio"] == 1,
        }
    if workload == "transition-cold":
        return {
            "cache_hit_ratio is 0": m["basis_change.cache_hit_ratio"] == 0,
            "gram solve + mat_inv + mat_mul >= half of cli.main_s": detail["solver_share_of_main"] >= 0.5,
        }
    if workload == "verify-suites":
        overhead = max(m["trace.overhead_ratio"] - 1.0, 0.0)
        return {
            "suite times sum to cli.main_s within the trace overhead": (
                1.0 - detail["suite_share_of_main"] <= overhead
            )
        }
    return {}


# ---------------------------------------------------------------------------
# environment record

def environment(load_start) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "flint_importable": importlib.util.find_spec("flint") is not None,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nestfock").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------

def load_inputs() -> tuple[dict, dict]:
    if not (SRC / "nestfock" / "cli.py").is_file():
        raise BenchError(f"no nestfock sources under {SRC}")
    try:
        spec = json.loads(BENCHMARK_JSON.read_text())
        expected = json.loads(DIGESTS.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read benchmark inputs: {exc}") from exc
    return spec, expected


def declared(spec: dict, section: str, values: dict) -> dict:
    out = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name} declared in BENCHMARK.json is not measured")
        out[name] = {"value": values[name], "unit": metric["unit"]}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()
    try:
        spec, expected = load_inputs()
        ctx, setup_times = setup(args.workload, args.seed, expected)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    try:
        runs, loop_wall = measure(
            ctx, expected, args.seconds, UNTRACED_DEADLINE_S[args.trace], MIN_ROUNDS[args.workload]
        )
        if not runs:
            sys.stderr.write("perfbench: no op completed before the deadline\n")
            return 1
        attempted = len(runs)
        failures = [(r.op.label, r.failure) for r in runs if r.failure]
        e2e, tail_info = end_to_end(runs, loop_wall, setup_times, tail_percentile(args.workload))
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "rounds": runs[-1].round + 1,
            "ops": attempted,
            "loop_wall_s": loop_wall,
            "setup_samples_s": setup_times,
            "op_tail": tail_info,
        }
        if args.trace:
            first = [r for r in runs if r.round == 0]
            traced = trace_round(ctx, expected, first)
            attempted += len(traced)
            failures += [(run.op.label, f) for run, _res, f, _rec in traced if f]
            values, detail = per_layer(traced)
            info["traced"] = detail
            info["claims"] = claims(args.workload, values, detail)
            write_spans(args.workload, args.seed, traced)
            metrics = declared(spec, "per_layer", values)
        else:
            metrics = declared(spec, "end_to_end", e2e)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        remove_tmp(ctx.tmp)
    for label, reason in failures[:10]:
        sys.stderr.write(f"perfbench: FAILED {label}: {reason}\n")
    info["fail_ratio"] = len(failures) / attempted
    info["env"] = environment(load_start)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


def write_spans(workload: str, seed: int, traced) -> None:
    """Keep the traced round's spans (degree in field n) for later reading."""
    SPAN_DIR.mkdir(exist_ok=True)
    ops = [
        {"op": i, "args": list(run.op.args), "wall_s": res.wall_s, "spans": record["spans"] if record else []}
        for i, (run, res, _f, record) in enumerate(traced)
    ]
    doc = {"fields": ["name", "start_ns", "end_ns", "parent", "n"], "ops": ops}
    (SPAN_DIR / f"{workload}-seed{seed}.json").write_text(json.dumps(doc, separators=(",", ":")))


if __name__ == "__main__":
    sys.exit(main())
