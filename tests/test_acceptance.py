"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact rational arithmetic; there are no tolerances.
"""

from fractions import Fraction

from conftest import run_cli
from oracles import create_b3_uncorrected
from nestfock.basis_change import b2_in_b1, b3_in_b1, b3_in_b2
from nestfock.curve_classes import create_b3, translate_b3_linear
from nestfock.fock import B2Key, FockVector
from nestfock.incidence import IncidencePair, h_pair
from nestfock.partitions import Partition
from nestfock.ring import ordinary_cup, OrdinaryClass, ordinary_unit_scale
from nestfock.verify import run_suite

P = Partition
U = FockVector.unit


def pr(lam, mu):
    return IncidencePair(P(lam), P(mu))


def key(i, nu):
    return B2Key(i, P(nu))


def report(num, label, failures):
    ok = not failures
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num}: {label}: {failures}"


def suite_failures(name, max_n=None):
    return [r for r in run_suite(name, max_n) if not r.ok]


def test_criterion_01_hook_identities():
    failures = suite_failures("hooks", 10)
    if Fraction(4, 12) + Fraction(4, 6) != 1:
        failures.append("spot value for the one-row shape of size two")
    if h_pair(pr([2], [3])) != 12 or h_pair(pr([2], [2, 1])) != 6:
        failures.append("hook products feeding the first spot value")
    if Fraction(9, 6) + Fraction(9, 6) != 3:
        failures.append("spot value for the hook shape of size three")
    if h_pair(pr([1, 1], [2, 1])) != 6 or h_pair(pr([2], [2, 1])) != 6:
        failures.append("hook products feeding the second spot value")
    report(1, "hook product sum rules, |lam| <= 10 and |mu| <= 11", failures)


def test_criterion_02_euler_oracle():
    report(2, "tangent weight oracle matches both Euler classes, n <= 8",
           suite_failures("euler", 8))


def test_criterion_03_betti_agreement():
    failures = suite_failures("betti", 12)
    from nestfock.incidence import betti_series

    if betti_series(2)[2] != [1, 2, 1]:
        failures.append("degree-two Betti vector")
    report(3, "betti series = cell counts = dimensions, n <= 12", failures)


def test_criterion_04_heisenberg_loop_relations():
    failures = suite_failures("heisenberg", 6) + suite_failures("loop", 6)
    report(4, "Heisenberg, translation and loop relations in fixed coordinates", failures)


def test_criterion_05_pairing_transport():
    report(5, "pairing transport through the change of basis, n <= 8",
           suite_failures("pairing", 8))


def test_criterion_06_literal_coefficient_regression():
    failures = []
    src = U(pr([], [1]))
    lit_then_t = translate_b3_linear(create_b3_uncorrected(1, src))
    t_then_lit = create_b3_uncorrected(1, translate_b3_linear(src))
    if lit_then_t == t_then_lit:
        failures.append("uncorrected coefficient unexpectedly commutes at degree 2")
    for n in range(4):
        from nestfock.basis_change import pair_keys

        for p in pair_keys(n):
            v = U(p)
            for m in (1, 2):
                if create_b3(m, translate_b3_linear(v)) != translate_b3_linear(
                    create_b3(m, v)
                ):
                    failures.append(f"corrected coefficient fails at {p!r}, m={m}")
    report(6, "uncorrected coefficient fails commutation, corrected passes", failures)


def test_criterion_07_explicit_tables():
    failures = []
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)

    mat1 = b2_in_b1(1)
    if mat1.expand(key(0, [1])) != half * U(pr([1], [2])) + half * U(pr([1], [1, 1])):
        failures.append("degree-1 creation row")
    if mat1.expand(key(1, [])) != half * U(pr([1], [2])) - half * U(pr([1], [1, 1])):
        failures.append("degree-1 translation row")

    mat2 = b2_in_b1(2)
    want_t2 = (
        sixth * U(pr([2], [3]))
        - sixth * U(pr([2], [2, 1]))
        - sixth * U(pr([1, 1], [2, 1]))
        + sixth * U(pr([1, 1], [1, 1, 1]))
    )
    if mat2.expand(key(2, [])) != want_t2:
        failures.append("degree-2 double translation row")
    want_a11 = (
        sixth * U(pr([2], [3]))
        + Fraction(1, 3) * U(pr([2], [2, 1]))
        + Fraction(1, 3) * U(pr([1, 1], [2, 1]))
        + sixth * U(pr([1, 1], [1, 1, 1]))
    )
    if mat2.expand(key(0, [1, 1])) != want_a11:
        failures.append("degree-2 double creation row")

    if b3_in_b2(pr([1, 1], [2, 1])) != U(key(1, [1])) - U(key(2, [])):
        failures.append("curve key in operator basis at degree 2")
    if b3_in_b2(pr([1, 1], [1, 1, 1])) != (
        half * U(key(0, [1, 1])) - half * U(key(0, [2])) - U(key(1, [1])) + U(key(2, []))
    ):
        failures.append("column curve key in operator basis at degree 2")

    fixed1 = b3_in_b1(1)
    if fixed1.expand(pr([1], [2])) != half * U(pr([1], [2])) - half * U(pr([1], [1, 1])):
        failures.append("curve key in fixed basis at degree 1")
    fixed2 = b3_in_b1(2)
    if fixed2.expand(pr([2], [2, 1])) != (
        half * U(pr([2], [2, 1]))
        - sixth * U(pr([1, 1], [2, 1]))
        - Fraction(1, 3) * U(pr([1, 1], [1, 1, 1]))
    ):
        failures.append("curve key in fixed basis at degree 2")
    if fixed2.expand(pr([1, 1], [1, 1, 1])) != half * U(pr([1, 1], [1, 1, 1])):
        failures.append("minimal curve key in fixed basis at degree 2")

    report(7, "explicit degree-1 and degree-2 transition tables", failures)


def test_criterion_08_hilbert_dictionary():
    report(8, "curve classes are monomial functions, fixed classes are h(lam) s_lam",
           suite_failures("phi", 9))


def test_criterion_09_comparison_maps():
    failures = suite_failures("diagrams", 6)
    from nestfock.basis_change import b2_in_b1, hilb_p_in_fixed
    from nestfock.ring import pullback_g

    got = pullback_g(hilb_p_in_fixed(2).apply(U(P([2]))))
    if got != 2 * b2_in_b1(1).apply(U(key(1, []))):
        failures.append("vacuum relation at index 2")
    report(9, "comparison map diagrams, ring homomorphism and pairing laws", failures)


def test_criterion_10_ordinary_ring():
    failures = suite_failures("ordinary", 4)
    if ordinary_unit_scale(1) != 1 or ordinary_unit_scale(2) != 2:
        failures.append("unit scales at degrees 1 and 2")
    top = OrdinaryClass(1, U(key(1, [])))
    if ordinary_cup(top, top).vec:
        failures.append("square of the degree-2 class on the 1-point scheme")
    report(10, "ordinary ring: unit, axioms, degree and vanishing laws", failures)


def test_criterion_11_cli_determinism_and_cache(tmp_path):
    failures = []

    run = run_cli

    invocations = [
        ("transition", "--from", "b2", "--to", "b1", "--degree", "3"),
        ("transition", "--from", "b3", "--to", "b1", "--degree", "2", "--format", "csv"),
        ("product", "--basis", "b2", "--degree", "2"),
        ("betti", "--max-n", "6"),
        ("pairs", "--degree", "3"),
    ]
    for args in invocations:
        first = run(*args, cwd=tmp_path)
        second = run(*args, cwd=tmp_path)
        if first.returncode != 0 or first.stdout != second.stdout:
            failures.append(f"non-deterministic output for {args}")

    # cold cache in a fresh directory must equal the warm output above
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    cold = run("transition", "--from", "b2", "--to", "b1", "--degree", "3", cwd=fresh)
    warm = run("transition", "--from", "b2", "--to", "b1", "--degree", "3", cwd=tmp_path)
    if cold.stdout != warm.stdout:
        failures.append("cold and warm cache outputs differ")
    if not (tmp_path / ".nestfock-cache" / "b2--b1--3.json").exists():
        failures.append("cache file missing after transition run")

    probe = run("verify", "--suite", "hooks", "--max-n", "6", cwd=tmp_path)
    if probe.returncode != 0:
        failures.append("verify exit code on passing suite")

    report(11, "CLI determinism, cache warm/cold agreement, exit codes", failures)
