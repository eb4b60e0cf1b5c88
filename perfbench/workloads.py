"""Workload definitions: the op universe of each workload and its rounds.

An op is one nestfock CLI invocation.  A round holds every case of the
workload's universe once (the cheap transition degrees are sampled), in an
order and with output formats drawn from the seed, so every round costs the
same work whatever the seed; a run measures whole rounds.  The CLI only ever
sees the generated arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TRANSITION_PAIRS = (
    ("b1", "b2"), ("b2", "b1"), ("b1", "b3"), ("b3", "b1"), ("b2", "b3"), ("b3", "b2"),
)
# Every pair at the top degrees in every round, so these carry the time
# (a cold n=7 round spends ~60 % of its wall in the six n=7 ops); n=8 would
# make one cold round take ~40 s.  The cheap degrees are sampled per round.
TRANSITION_TOP_DEGREES = (5, 6, 7)
TRANSITION_LOW_DEGREES = (1, 2, 3, 4)
TRANSITION_LOW_PER_ROUND = 6
TRANSITION_DEGREES = TRANSITION_LOW_DEGREES + TRANSITION_TOP_DEGREES

PRODUCT_BASES = ("b1", "b2", "ordinary")
PRODUCT_DEGREES = (1, 2, 3, 4, 5)

# --max-n per suite.  Suites cheap at their default degree keep it; the
# heavy ones are lowered so that a round takes ~9 s instead of ~60 s at the
# defaults (pairing alone takes ~20 s at n=8), which lets a run hold two
# rounds, i.e. enough ops for a tail percentile.
VERIFY_MAX_N = {
    "hooks": 10,
    "euler": 8,
    "heisenberg": 4,
    "loop": 5,
    "pairing": 6,
    "roundtrip": 6,
    "phi": 8,
    "diagrams": 5,
    "ordinary": 3,
    "betti": 12,
}

FORMATS = ("json", "csv")

WORKLOADS = ("transition-cold", "transition-warm", "verify-suites", "product-tables")

# Whole rounds a run measures at least.  op_tail_s is read at the highest
# percentile that leaves 10 samples beyond it at this many rounds; as every
# round holds the same ops, that percentile picks the same kind of op however
# many rounds a run (or a faster commit) manages, so tails stay comparable.
MIN_ROUNDS = {"transition-cold": 2, "transition-warm": 4, "verify-suites": 3, "product-tables": 4}

# Workloads whose cases alternate their output format every round; their
# runs end after an even number of rounds, so each case ran in both formats.
FORMAT_WORKLOADS = ("transition-cold", "transition-warm", "product-tables")


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments (without --cache-dir) and what checks it."""

    kind: str
    args: tuple[str, ...]
    stdout_key: str = ""  # digest key of stdout; empty for verify ops
    cache_key: str = ""  # cache document the op writes on a cold cache

    @property
    def label(self) -> str:
        return " ".join(self.args)


def transition_op(source: str, target: str, n: int, fmt: str) -> Op:
    return Op(
        "transition",
        ("transition", "--from", source, "--to", target, "-n", str(n), "--format", fmt),
        f"transition {source} {target} {n} {fmt}",
        f"{source}--{target}--{n}",
    )


def product_op(basis: str, n: int, fmt: str) -> Op:
    return Op(
        "product",
        ("product", "--basis", basis, "-n", str(n), "--format", fmt),
        f"product {basis} {n} {fmt}",
    )


def verify_op(suite: str) -> Op:
    return Op("verify", ("verify", "--suite", suite, "--max-n", str(VERIFY_MAX_N[suite])))


def _formatted(rng: random.Random, cases: list, flip: dict, parity: int, make) -> list[Op]:
    # each case draws a format once per run and alternates it every round,
    # so two rounds hold every case in both formats whatever the seed
    for case in cases:
        flip.setdefault(case, rng.randrange(2))
    ops = [make(*case, FORMATS[flip[case] ^ parity]) for case in cases]
    rng.shuffle(ops)
    return ops


def rounds(workload: str, seed: int, count: int) -> list[list[Op]]:
    """The first ``count`` rounds of a workload's op list for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    flip: dict = {}
    out = []
    for r in range(count):
        if workload in ("transition-cold", "transition-warm"):
            top = [(s, t, n) for n in TRANSITION_TOP_DEGREES for s, t in TRANSITION_PAIRS]
            low = [(s, t, n) for n in TRANSITION_LOW_DEGREES for s, t in TRANSITION_PAIRS]
            cases = top + rng.sample(low, TRANSITION_LOW_PER_ROUND)
            out.append(_formatted(rng, cases, flip, r % 2, transition_op))
        elif workload == "product-tables":
            cases = [(b, n) for b in PRODUCT_BASES for n in PRODUCT_DEGREES]
            out.append(_formatted(rng, cases, flip, r % 2, product_op))
        else:
            ops = [verify_op(s) for s in VERIFY_MAX_N]
            rng.shuffle(ops)
            out.append(ops)
    return out


def digest_universe() -> list[Op]:
    """Every transition and product op any seed can generate."""
    ops = [
        transition_op(s, t, n, fmt)
        for n in TRANSITION_DEGREES
        for s, t in TRANSITION_PAIRS
        for fmt in FORMATS
    ]
    ops += [product_op(b, n, fmt) for b in PRODUCT_BASES for n in PRODUCT_DEGREES for fmt in FORMATS]
    return ops
