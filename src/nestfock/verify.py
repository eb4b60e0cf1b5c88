"""Machine-checkable identity suites.

Every suite returns a list of CheckResult records.  A check gathers its
counterexamples in a ``Failures`` list, which counts each case (a key,
pair, triple or matrix row) as the check compares it; a case with
several sides counts once.  So the "(N cases)" that ``verify`` prints
is the number of comparisons made, on a failing run too: a case that an
early exit or an error skipped is not counted.  Each record stamps the
``perf_counter`` time at which its check finished.  A failed check
carries a counterexample payload, and a check that compared no case
fails as ``vacuous``.  The suites back the ``verify`` command and the
acceptance tests.  All comparisons are exact.

The operator relations are checked on each basis key through the
conjugated operators of ``basis_change``, each built once per index and
degree as a matrix.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from time import perf_counter
from typing import Callable, NamedTuple

from .basis_change import (
    _curve_row,
    _gram,
    b1_annihilation,
    b1_cotranslate,
    b1_creation,
    b1_in_b2,
    b1_in_b3,
    b1_translate,
    b2_in_b1,
    b2_in_b3,
    b3_in_b1,
    b3_in_b2_matrix,
    fixed_annihilation,
    fixed_creation,
    gram_b3,
    hilb_fixed_in_p,
    hilb_L_in_fixed,
    hilb_L_in_p_matrix,
    hilb_p_in_fixed,
    operator_keys,
    pair_keys,
    transition_matrix,
)
from .fock import (
    B2Key,
    FockVector,
    loop_action,
    pair_b1,
    pair_hilb_fixed,
)
from .incidence import (
    betti_from_fixed_points,
    betti_series,
    euler_class,
    h_pair,
    h_plus,
    tangent_weights_incidence,
)
from .partitions import (
    Partition,
    dominance_le,
    hook_product,
    partition_keys,
    z_factor,
)
from .ring import (
    OrdinaryClass,
    ordinary_cup,
    ordinary_unit,
    ordinary_unit_scale,
    pullback_f,
    pullback_g,
    star_b1,
    star_hilb,
)
from .symfunc import _p_to_m, hall_pairing, phi


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    cases: int = 0
    finished: float = 0.0  # perf_counter() when the check was done


class Failures(list):
    """A check's counterexamples, with the number of cases it has compared."""

    cases = 0

    def found(self, failed, compared: int = 1):
        """Count ``compared`` more cases and return ``failed``, the outcome of comparing them."""
        self.cases += compared
        return failed


def _result(name: str, bad: Failures) -> CheckResult:
    """The check's record; it fails on its first failures, or as vacuous with no case."""
    detail = json.dumps(bad[:3], default=str) if bad else ("" if bad.cases else "vacuous")
    return CheckResult(name, not detail, detail, bad.cases, perf_counter())


# ---------------------------------------------------------------------------
# helpers

def _b1_heis(p: int, v: FockVector, d: int) -> FockVector:
    return b1_creation(-p, v, d) if p < 0 else b1_annihilation(p, v, d)


def _b1_translate_pow(v: FockVector, n: int, j: int) -> FockVector:
    for _ in range(j):
        v = b1_translate(v, n)
        n += 1
    return v


# ---------------------------------------------------------------------------
# suites

def suite_hooks(max_n: int = 10) -> list[CheckResult]:
    """Sum rules for the incidence hook products, one pass over the pairs of each degree."""
    bad_lam, bad_mu = Failures(), Failures()
    for n in range(max_n + 1):
        by_lam: dict[Partition, Fraction] = {}
        by_mu: dict[Partition, Fraction] = {}
        for p in pair_keys(n):
            h = h_pair(p)
            by_lam[p.lam] = by_lam.get(p.lam, 0) + Fraction(hook_product(p.lam) ** 2, h)
            by_mu[p.mu] = by_mu.get(p.mu, 0) + Fraction(hook_product(p.mu) ** 2, h)
        for lam in partition_keys(n):
            total = by_lam.get(lam, 0)
            if bad_lam.found(total != 1):
                bad_lam.append({"lambda": lam.as_list(), "sum": str(total)})
        for mu, total in by_mu.items():
            if bad_mu.found(total != mu.size):
                bad_mu.append({"mu": mu.as_list(), "sum": str(total)})
    return [
        _result(f"sum over mu of h(lam)^2/h(lam,mu) = 1, |lam| <= {max_n}", bad_lam),
        _result(f"sum over lam of h(mu)^2/h(lam,mu) = |mu|, |mu| <= {max_n + 1}", bad_mu),
    ]


def suite_euler(max_n: int = 8) -> list[CheckResult]:
    """Weight-multiset oracle against the closed Euler class formulas."""
    bad_full, bad_pos = Failures(), Failures()
    for n in range(max_n + 1):
        for p in pair_keys(n):
            weights = tangent_weights_incidence(p)
            prod = 1
            pos = 1
            for w in weights:
                prod *= w
                if w > 0:
                    pos *= w
            sign, mag, _ = euler_class(p)
            if bad_full.found(prod != sign * mag):
                bad_full.append(
                    {"pair": p.as_json_obj(), "product": prod, "expected": sign * mag}
                )
            if bad_pos.found(pos != h_plus(p)):
                bad_pos.append(
                    {"pair": p.as_json_obj(), "positive": pos, "expected": h_plus(p)}
                )
    return [
        _result(f"weight product = (-1)^(n+1) h(lam,mu), n <= {max_n}", bad_full),
        _result(f"positive weight product = h_plus(lam,mu), n <= {max_n}", bad_pos),
    ]


def suite_heisenberg(max_n: int = 6) -> list[CheckResult]:
    """Heisenberg and translation relations in fixed-point coordinates.

    Checks [a_p, a_q] = p delta_{p,-q} Id for |p|, |q| <= 4, the left
    inverse law for the translation pair and commutation of translation
    with each such a_p, whenever every intermediate degree stays within
    max_n, each on every basis key of the source degree.
    """
    indices = [i for a in range(1, 5) for i in (-a, a)]
    bad = Failures()
    for p in indices:
        for q in indices:
            if p > q:
                continue
            for d in range(max_n + 1):
                inter = [d - p, d - q, d - p - q]
                if any(x < 0 or x > max_n for x in inter):
                    continue
                for key in pair_keys(d):
                    v = FockVector.unit(key)
                    comm = _b1_heis(p, _b1_heis(q, v, d), d - q) - _b1_heis(
                        q, _b1_heis(p, v, d), d - p
                    )
                    if bad.found(comm != (p * v if p == -q else FockVector())):
                        bad.append({"p": p, "q": q, "degree": d})
                        break
    out = [_result(f"[a_p, a_q] = p delta Id on degrees <= {max_n}, |p|,|q| <= 4", bad)]

    bad = Failures()
    for d in range(max_n):
        for key in pair_keys(d):
            v = FockVector.unit(key)
            if bad.found(b1_cotranslate(b1_translate(v, d), d + 1) != v):
                bad.append({"degree": d, "key": key.as_json_obj()})
    out.append(_result(f"cotranslate after translate = Id, degrees < {max_n}", bad))

    bad = Failures()
    for p in indices:
        for d in range(max_n + 1):
            if not (0 <= d - p and d - p + 1 <= max_n and d + 1 <= max_n):
                continue
            for key in pair_keys(d):  # one case: a_p against translate and cotranslate
                v = FockVector.unit(key)
                lhs = b1_translate(_b1_heis(p, v, d), d - p)
                if bad.found(lhs != _b1_heis(p, b1_translate(v, d), d + 1)):
                    bad.append({"p": p, "degree": d, "key": key.as_json_obj()})
                lhs = b1_cotranslate(_b1_heis(p, v, d), d - p)
                rhs = _b1_heis(p, b1_cotranslate(v, d), d - 1) if d >= 1 else FockVector()
                if lhs != rhs:
                    bad.append(
                        {"p": p, "degree": d, "key": key.as_json_obj(), "side": "adjoint"}
                    )
    out.append(_result(f"translation pair commutes with a_p, degrees <= {max_n}", bad))
    return out


def suite_loop(max_n: int = 6) -> list[CheckResult]:
    """Loop bracket on the operator basis: translations carry the grading.

    Each image loop_action(j, p, key) is built once, over keys numbered
    as they appear and with the coefficients as ints (Fractions if one
    were not integral); both orders of every (j1, p, j2, q, key) case
    are composed from the images by linearity and compared exactly.
    """
    ops = [(j, p) for j in range(3) for p in (-3, -2, -1, 1, 2, 3)]
    keys = [k for d in range(max_n + 1) for k in operator_keys(d)]
    ids = {k: a for a, k in enumerate(keys)}  # grows by the keys the images reach
    images: list[list[tuple]] = [[] for _ in ops]
    for _ in range(2):  # the images of the keys, then of every key they reach
        for key in list(ids)[len(images[0]):]:
            for img, (j, p) in zip(images, ops):
                terms = loop_action(j, p, FockVector.unit(key)).items()
                img.append(tuple(
                    (ids.setdefault(k, len(ids)), c.numerator if c.denominator == 1 else c)
                    for k, c in terms
                ))

    bad = Failures()
    for img1, (j1, p) in zip(images, ops):
        for img2, (j2, q) in zip(images, ops):
            for a, key in enumerate(keys):
                acc: dict[int, int] = {}
                for b, c in img2[a]:
                    for t, x in img1[b]:
                        acc[t] = acc.get(t, 0) + c * x
                for b, c in img1[a]:
                    for t, x in img2[b]:
                        acc[t] = acc.get(t, 0) - c * x
                lhs = {t: x for t, x in acc.items() if x}
                rhs = {ids.get(B2Key(key.i + j1 + j2, key.nu), -1): p} if p == -q else {}
                if bad.found(lhs != rhs):
                    bad.append({"j1": j1, "j2": j2, "p": p, "q": q, "key": key.as_json_obj()})
    res = [_result(f"loop bracket identities on degrees <= {max_n}", bad)]

    bad = Failures()
    for key in keys:
        if bad.found(loop_action(1, 0, FockVector.unit(key))):
            bad.append({"key": key.as_json_obj()})
    res.append(_result("index-0 generator acts as zero", bad))
    return res


def suite_pairing(max_n: int = 8) -> list[CheckResult]:
    """Pairing transport between the operator and fixed-point bases.

    Checks B H B^T = Z per degree, with B = b2_in_b1, H = diag h(lam, mu)
    and Z = diag z(nu); the product is the Gram helper's, which
    evaluates each weight once and sums over the nonzero entries of B.
    """
    bad = Failures()
    for n in range(max_n + 1):
        mat = b2_in_b1(n)
        keys = mat.row_keys
        gram = _gram(mat, h_pair).rows
        for a, ka in enumerate(keys):
            for b in range(a, len(keys)):
                lhs = z_factor(ka.nu) if a == b else 0
                rhs = gram[a][b]
                if bad.found(lhs != rhs):
                    bad.append(
                        {
                            "degree": n,
                            "x": ka.as_json_obj(),
                            "y": keys[b].as_json_obj(),
                            "lhs": str(lhs),
                            "rhs": str(rhs),
                        }
                    )
    return [_result(f"pair_b2 = pair_b1 after change of basis, n <= {max_n}", bad)]


def suite_roundtrip(max_n: int = 8) -> list[CheckResult]:
    """Round trips, the shape of M = b3_in_b1 and choice independence of A."""
    out = [_round_trip("b1_in_b2 * b2_in_b1", b1_in_b2, b2_in_b1, "b1", max_n)]

    # with A Z A^T = M H M^T below this pins M: G has one LDL^T along dominance
    bad = Failures()
    le = lambda q, p: dominance_le(q.lam, p.lam) and dominance_le(q.mu, p.mu)
    for n in range(max_n + 1):
        mat = b3_in_b1(n)
        for a, p in enumerate(mat.row_keys):
            for q in bad.found(_misses(mat, a, le, Fraction(1, h_plus(p)))):
                bad.append({"degree": n, "row": p.as_json_obj(), "col": q.as_json_obj()})
    name = f"b3_in_b1 triangular for product dominance, diagonal 1/h_plus, n <= {max_n}"
    out.append(_result(name, bad))

    bad = Failures()
    for n in range(max_n + 1):
        mat = b3_in_b1(n)
        lhs, rhs = gram_b3(n), _gram(mat, h_pair)
        if bad.found(lhs != rhs, len(mat.row_keys)):  # list the entries that differ
            for a, p in enumerate(mat.row_keys):
                for b, q in enumerate(mat.row_keys):
                    if lhs.rows[a][b] != rhs.rows[a][b]:
                        bad.append({"degree": n, "row": p.as_json_obj(), "col": q.as_json_obj()})
    out.append(_result(f"gram consistency A Z A^T = M H M^T, n <= {max_n}", bad))

    # every row from every shared part: by induction every sequence of choices gives A
    bad = Failures()
    for n in range(min(max_n, 6) + 1):
        rows = dict(zip(pair_keys(n), b3_in_b2_matrix(n).int_rows))
        for p, row in rows.items():
            shared = set(p.lam.parts) & set(p.mu.parts)
            if any(bad.found(_curve_row(p, m, rows) != row) for m in shared):
                bad.append({"pair": p.as_json_obj()})
    out.append(_result(f"shared-part choice independence, n <= {min(max_n, 6)}", bad))

    out.append(_round_trip("b2_in_b3 * b3_in_b2", b2_in_b3, b3_in_b2_matrix, "b2", max_n))
    out.append(_round_trip("b1_in_b3 * b3_in_b1", b1_in_b3, b3_in_b1, "b1", max_n))
    return out


def _round_trip(name: str, there, back, basis: str, max_n: int) -> CheckResult:
    """there(n) @ back(n) is the identity on the basis at every n <= max_n, one case per row."""
    bad = Failures()
    for n in range(max_n + 1):
        mat = there(n) @ back(n)
        if bad.found(mat != transition_matrix(basis, basis, n), len(mat.row_keys)):
            bad.append({"degree": n})
    return _result(f"{name} = Id, n <= {max_n}", bad)


def _misses(mat, a: int, le, diagonal: Fraction) -> list:
    """Column keys, in order, where row a of a square matrix leaves le(col, row) or its
    diagonal, read off the stored integer row; the diagonal is compared by cross-multiplying."""
    pairs, d = mat.int_rows[a]
    cols = {b for b, _ in pairs if b != a and not le(mat.col_keys[b], mat.row_keys[a])}
    if dict(pairs).get(a, 0) * diagonal.denominator != d * diagonal.numerator:
        cols.add(a)
    return [mat.col_keys[b] for b in sorted(cols)]


def suite_phi(max_n: int = 9) -> list[CheckResult]:
    """Symmetric-function dictionary checks."""
    # L P = 1 with P the counted p -> m matrix, independent of the curve classes
    bad = Failures()
    for n in range(max_n + 1):
        in_m = hilb_L_in_p_matrix(n) @ _p_to_m(n)
        for lam in in_m.row_keys:
            if bad.found(in_m.expand(lam) != FockVector.unit(lam)):
                bad.append({"lambda": lam.as_list()})
    out = [_result(f"curve classes map to monomial functions, |lam| <= {max_n}", bad)]

    bad = Failures()
    for n in range(max_n + 1):
        for lam in partition_keys(n):
            for mu in partition_keys(n):
                want = z_factor(lam) if lam == mu else 0
                if bad.found(hall_pairing(FockVector.unit(lam), FockVector.unit(mu)) != want):
                    bad.append({"lambda": lam.as_list(), "mu": mu.as_list()})
    out.append(_result(f"Hall pairing is z_lam delta, |lam| <= {max_n}", bad))

    # with the norm: Kostka unitriangularity of h(lam) s_lam, with no characters
    bad = Failures()
    limit = min(max_n, 8)
    for n in range(limit + 1):
        mat = hilb_fixed_in_p(n)
        in_m = mat @ _p_to_m(n)
        for a, lam in enumerate(mat.row_keys):
            img = phi(mat.expand(lam))
            if bad.found(hall_pairing(img, img) != hook_product(lam) ** 2):
                bad.append({"lambda": lam.as_list(), "check": "norm"})
            for mu in _misses(in_m, a, dominance_le, Fraction(hook_product(lam))):
                bad.append({"lambda": lam.as_list(), "mu": mu.as_list(), "check": "monomial"})
    name = f"fixed classes have norm h^2 and image h(lam) m_lam + lower terms, |lam| <= {limit}"
    out.append(_result(name, bad))

    # X F = L with X triangular and diag 1/h pins F, given the norm check:
    # the Gram matrix L Z L^T has one LDL^T factorization along dominance
    bad = Failures()
    for n in range(limit + 1):
        mat, curves = hilb_L_in_fixed(n), hilb_L_in_p_matrix(n)
        if mat @ hilb_fixed_in_p(n) != curves:
            bad.append({"degree": n, "check": "X F = L"})
        for a, lam in enumerate(mat.row_keys):
            for mu in bad.found(_misses(mat, a, dominance_le, Fraction(1, hook_product(lam)))):
                bad.append({"degree": n, "lambda": lam.as_list(), "mu": mu.as_list()})
    name = f"curve classes L F^-1 triangular, diagonal 1/h, |lam| <= {limit}"
    out.append(_result(name, bad))

    bad = Failures()
    for n in range(min(max_n, 6) + 1):
        for lam in partition_keys(n):
            for mu in partition_keys(n):
                sig = star_hilb(
                    Fraction(1, hook_product(lam)) * FockVector.unit(lam),
                    Fraction(1, hook_product(mu)) * FockVector.unit(mu),
                    n,
                )
                want = (
                    Fraction((-1) ** n) * FockVector.unit(lam)
                    if lam == mu
                    else FockVector()
                )
                if bad.found(sig != want):
                    bad.append({"lambda": lam.as_list(), "mu": mu.as_list()})
    out.append(_result(f"diagonal law for normalized fixed classes, n <= {min(max_n, 6)}", bad))
    return out


def suite_diagrams(max_n: int = 6) -> list[CheckResult]:
    """Comparison-map diagrams, ring homomorphism and pairing transport laws."""
    out = []

    bad = Failures()
    for m in range(1, 5):
        for d in range(max_n - m + 1):
            for lam in partition_keys(d):
                v = FockVector.unit(lam)
                lhs = pullback_f(fixed_creation(m, v, d))
                if bad.found(lhs != b1_creation(m, pullback_f(v), d)):
                    bad.append({"m": m, "lambda": lam.as_list()})
    out.append(_result(f"pullback_f intertwines creation, degrees <= {max_n}", bad))

    bad = Failures()
    for m in range(1, 5):
        for dd in range(m + 1, max_n + 2):
            for mu in partition_keys(dd):
                v = FockVector.unit(mu)
                lhs = pullback_g(fixed_annihilation(m, v, dd))
                rhs = b1_annihilation(m, pullback_g(v), dd - 1)
                if bad.found(lhs != rhs):
                    bad.append({"m": m, "mu": mu.as_list()})
    out.append(_result(f"pullback_g intertwines annihilation, degrees <= {max_n}", bad))

    bad = Failures()
    for m in range(1, max_n + 1):
        creation_vac = hilb_p_in_fixed(m).apply(FockVector.unit(Partition([m])))
        lhs = pullback_g(creation_vac)
        rhs = Fraction(m) * b2_in_b1(m - 1).apply(FockVector.unit(B2Key(m - 1, Partition())))
        if bad.found(lhs != rhs):
            bad.append({"m": m})
    out.append(_result(f"vacuum relation g(a_-m vacuum) = m t^(m-1) vacuum, m <= {max_n}", bad))

    bad = Failures()
    for m in range(1, 5):
        for dd in range(1, max_n - m + 2):
            for mu in partition_keys(dd):
                v = FockVector.unit(mu)
                lhs = pullback_g(fixed_creation(m, v, dd))
                rhs = b1_creation(m, pullback_g(v), dd - 1) - Fraction(m) * (
                    _b1_translate_pow(pullback_f(v), dd, m - 1)
                )
                if bad.found(lhs != rhs):
                    bad.append({"m": m, "mu": mu.as_list()})
    out.append(_result(f"mixed relation for g after creation, degrees <= {max_n}", bad))

    limit = min(max_n, 5)
    bad = Failures()
    for n in range(limit + 1):
        # f starts from n points, g from n + 1 points
        for name, pull, size in (("f", pullback_f, n), ("g", pullback_g, n + 1)):
            for lam in partition_keys(size):
                for mu in partition_keys(size):
                    x, y = FockVector.unit(lam), FockVector.unit(mu)
                    if bad.found(pull(star_hilb(x, y, size)) != star_b1(pull(x), pull(y), n)):
                        bad.append({"map": name, "lambda": lam.as_list(), "mu": mu.as_list()})
    out.append(_result(f"comparison maps are ring homomorphisms, n <= {limit}", bad))

    bad = Failures()
    for n in range(max_n + 1):
        # g scales the pairing by the number n + 1 of points it starts from
        for name, pull, size, scale in (("f", pullback_f, n, 1), ("g", pullback_g, n + 1, n + 1)):
            for lam in partition_keys(size):
                for mu in partition_keys(size):
                    x, y = FockVector.unit(lam), FockVector.unit(mu)
                    if bad.found(pair_b1(pull(x), pull(y)) != scale * pair_hilb_fixed(x, y)):
                        bad.append({"map": name, "lambda": lam.as_list(), "mu": mu.as_list()})
    out.append(_result(f"bilinear form transport laws, n <= {max_n}", bad))
    return out


def suite_ordinary(max_n: int = 4) -> list[CheckResult]:
    """Ring axioms and vanishing laws of the ordinary cohomology product.

    Each degree's cup table is built once, one ``ordinary_cup`` per
    ordered pair of basis classes.  The unit law, commutativity, degree
    additivity and Betti vanishing are read off it, and both sides of
    associativity on a basis triple are composed from its rows by
    linearity.  A unit that cannot be normalized fails the unit check,
    and a table with no nonzero product fails the degree check: the
    unit squares to itself, so no degree's table is zero.
    """

    def compose(vec, row):  # sum over e of vec_e * row(e)
        return FockVector([(f, c * d) for e, c in vec.items() for f, d in row(e).vec.items()])

    bad_unit, bad_ring, bad_degree = Failures(), Failures(), Failures()
    for n in range(max_n + 1):
        keys = operator_keys(n)
        basis = {k: OrdinaryClass(n, FockVector.unit(k)) for k in keys}
        cup = {(k, l): ordinary_cup(basis[k], basis[l]) for k in keys for l in keys}
        try:
            scale, unit = ordinary_unit_scale(n), ordinary_unit(n)
        except ArithmeticError as exc:
            bad_unit.append({"n": n, "error": str(exc)})
        else:
            if scale != factorial(n):
                bad_unit.append({"n": n, "u_n": str(scale)})
            for k in keys:
                if bad_unit.found(compose(unit.vec, lambda e: cup[e, k]) != basis[k].vec):
                    bad_unit.append({"n": n, "key": k.as_json_obj()})

        if not any(c.vec for c in cup.values()):
            bad_degree.append({"n": n, "law": "no nonzero product"})
        betti = betti_from_fixed_points(n)
        for k in keys:
            for l in keys:
                if cup[k, l] != cup[l, k]:
                    bad_ring.append({"n": n, "law": "commutativity"})
                for m in keys:
                    left = compose(cup[k, l].vec, lambda e: cup[e, m])
                    if bad_ring.found(left != compose(cup[l, m].vec, lambda e: cup[k, e])):
                        bad_ring.append({"n": n, "law": "associativity"})
                da, db = 2 * (n - k.nu.length), 2 * (n - l.nu.length)
                prod = cup[k, l]
                degs = prod.ordinary_degrees()
                if bad_degree.found(degs and degs != {da + db}):
                    bad_degree.append({"n": n, "law": "degree additivity"})
                half = (da + db) // 2
                if (half >= len(betti) or betti[half] == 0) and prod.vec:
                    bad_degree.append({"n": n, "law": "betti vanishing"})

    out = [
        _result(f"unit exists with u_n = n!, n <= {max_n}", bad_unit),
        _result(f"commutative and associative on basis triples, n <= {max_n}", bad_ring),
        _result(f"degree additivity and Betti-zero vanishing, n <= {max_n}", bad_degree),
    ]
    top = OrdinaryClass(1, FockVector.unit(B2Key(1, Partition())))
    square, bad = ordinary_cup(top, top), Failures()
    if bad.found(square.vec):
        bad.append({"square": repr(square.vec)})
    out.append(_result("top class squares to zero on the 1-point incidence scheme", bad))
    return out


def suite_betti(max_n: int = 12) -> list[CheckResult]:
    """Betti tables agree with the fixed-point counts and dimensions."""
    series = betti_series(max_n)
    bad = Failures()
    for n in range(max_n + 1):
        counts = betti_from_fixed_points(n)
        pairs = len(pair_keys(n))
        keys = len(operator_keys(n))
        if bad.found(series[n] != counts or sum(counts) != pairs or pairs != keys):
            bad.append(
                {
                    "n": n,
                    "series": series[n],
                    "cells": counts,
                    "pairs": pairs,
                    "operator_keys": keys,
                }
            )
    return [_result(f"betti series = cell counts = dimensions, n <= {max_n}", bad)]


SUITES: dict[str, tuple[Callable[[int], list[CheckResult]], int]] = {
    "hooks": (suite_hooks, 10),
    "euler": (suite_euler, 8),
    "heisenberg": (suite_heisenberg, 6),
    "loop": (suite_loop, 6),
    "pairing": (suite_pairing, 8),
    "roundtrip": (suite_roundtrip, 8),
    "phi": (suite_phi, 9),
    "diagrams": (suite_diagrams, 6),
    "ordinary": (suite_ordinary, 4),
    "betti": (suite_betti, 12),
}


def run_suite(name: str, max_n: int | None = None) -> list[CheckResult]:
    """Run one named suite, or every suite with ``all``."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite(key, max_n))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    fn, default = SUITES[name]
    return fn(default if max_n is None else max_n)
