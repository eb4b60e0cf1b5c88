"""Brute-force oracles that the fast routes of the package are tested against."""

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from nestfock.basis_change import TransitionMatrix, operator_keys, pair_keys
from nestfock.curve_classes import add_part, create_b3, translate_b3
from nestfock.fock import B2Key, FockVector, creation, hilb_creation, translate_pow
from nestfock.incidence import IncidencePair, h_pair, tangent_weights_hilbert
from nestfock.partitions import Cell, Partition, hook_length, hook_product, insert_part, remove_part
from nestfock.ring import star_b1, star_tilde


def translate_b3_pow(pair: IncidencePair, j: int) -> IncidencePair:
    """translate_b3 applied j times."""
    for _ in range(j):
        pair = translate_b3(pair)
    return pair


def identity_rows(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def translation_dense(n: int) -> TransitionMatrix:
    """Translation from degree n to n + 1 in fixed-point coordinates, by dense Fraction rows.

    [lam, mu] goes to the sum over rho = mu + one cell of
    h(mu)^2 / (h(mu, rho) (c(rho/mu) - c(mu/lam))) [mu, rho], with
    c(cell) = column - row; every slot of a row is filled, zeros included,
    and the public constructor converts the rows.
    """
    src, dst = pair_keys(n), pair_keys(n + 1)
    content = lambda p: p.added_cell.col - p.added_cell.row
    cols: dict[Partition, list] = {}
    for j, q in enumerate(dst):
        cols.setdefault(q.lam, []).append((j, h_pair(q), content(q)))
    rows = [[Fraction(0)] * len(dst) for _ in src]
    for row, p in zip(rows, src):
        for j, h, c in cols[p.mu]:
            row[j] = Fraction(hook_product(p.mu) ** 2, h * (c - content(p)))
    return TransitionMatrix("b1", "b1", n, src, dst, rows)


def p_in_m_expanded(nu: Partition) -> FockVector:
    """Power-sum p_nu in the monomial basis, by multiplying out polynomials.

    Multiplies out prod_j (x_1^nu_j + ... + x_d^nu_j) with d = |nu|
    variables and reads off the coefficient of the canonical monomial
    of each shape.
    """
    n = nu.size
    if n == 0:
        return FockVector.unit(Partition())
    poly: dict[tuple[int, ...], int] = {(0,) * n: 1}
    for part in nu.parts:
        nxt: dict[tuple[int, ...], int] = {}
        for expv, c in poly.items():
            for i in range(n):
                e2 = expv[:i] + (expv[i] + part,) + expv[i + 1:]
                nxt[e2] = nxt.get(e2, 0) + c
        poly = nxt
    out = []
    for expv, c in poly.items():
        shape = tuple(sorted((e for e in expv if e), reverse=True))
        if expv == shape + (0,) * (n - len(shape)):
            out.append((Partition(shape), Fraction(c)))
    return FockVector(out)


def nakajima_L_explicit(m: int, v: FockVector) -> FockVector:
    """Creation of index m on the n-point curve basis, by the explicit rule.

    Each key lam maps to the sum over distinct cluster sizes
    lam_k in {0} union parts(lam) of the key lam(lam_k, m), weighted
    by the multiplicity of lam_k + m in the result.
    """
    out = []
    for lam, c in v.items():
        for lam_k in {0} | set(lam.parts):
            target = add_part(lam, lam_k, m)
            out.append((target, c * target.multiplicity(lam_k + m)))
    return FockVector(out)


@lru_cache(maxsize=None)
def hilb_L_in_p_recursive(lam: Partition) -> FockVector:
    """n-point curve class in the creation basis, by its own recursion.

    Induction on (size, length): strip the largest part m, apply the
    creation operator of index m to the stripped expansion, and solve
    for the target; the other terms of the explicit creation rule
    have shorter key partitions.
    """
    if lam.size == 0:
        return FockVector.unit(Partition())
    m = lam[0]
    stripped = remove_part(lam, m)
    acc = hilb_creation(m, hilb_L_in_p_recursive(stripped))
    terms = nakajima_L_explicit(m, FockVector.unit(stripped))
    for q, c in terms.items():
        if q != lam:
            acc = acc - c * hilb_L_in_p_recursive(q)
    return acc * Fraction(1, terms[lam])


@lru_cache(maxsize=None)
def b3_in_b2_recursive(pair: IncidencePair, smallest_shared: bool = False) -> FockVector:
    """Curve-basis key in the operator basis, by a per-key recursion on vectors.

    Double induction: the size-0 key is the vacuum; for a one-part lam
    the two keys are the pure translate (n, empty) and the difference
    (0, (n)) - (n, empty); otherwise strip one copy of the largest part
    shared by lam and mu (the smallest with ``smallest_shared``), apply
    the curve-basis creation operator to the stripped key and solve for
    the target term.  The absorption term is the m-fold translate of the
    stripped key; all remaining terms have shorter lam and recurse.
    """
    lam, mu = pair.lam, pair.mu
    n = lam.size
    if n == 0:
        return FockVector.unit(B2Key(0, Partition()))
    if lam.length == 1:
        top = FockVector.unit(B2Key(n, Partition()))
        return top if mu.length == 1 else FockVector.unit(B2Key(0, lam)) - top
    shared = sorted(set(lam.parts) & set(mu.parts))
    m = shared[0] if smallest_shared else shared[-1]
    src = IncidencePair(remove_part(lam, m), remove_part(mu, m))
    src_exp = b3_in_b2_recursive(src, smallest_shared)
    terms = create_b3(m, FockVector.unit(src))
    absorption = translate_b3_pow(src, m)
    acc = creation(m, src_exp)
    for q, c in terms.items():
        if q == absorption:
            acc = acc - c * translate_pow(src_exp, m)
        elif q != pair:
            acc = acc - c * b3_in_b2_recursive(q, smallest_shared)
    return acc * Fraction(1, terms[pair])


def create_b3_uncorrected(m: int, v: FockVector) -> FockVector:
    """create_b3 without the "minus 1" on terms whose new cluster has the distinguished value.

    For each source (lam, mu) of value i with lam_k = i - m in
    {0} union parts(lam), one more copy of (lam(lam_k, m), mu(lam_k, m)).
    This literal coefficient breaks commutation with the translation
    operator; it serves as a regression witness.
    """
    extra = []
    for p, c in v.items():
        lam_k = p.value - m
        if lam_k == 0 or (lam_k > 0 and lam_k in p.lam.parts):
            extra.append((IncidencePair(add_part(p.lam, lam_k, m), add_part(p.mu, lam_k, m)), c))
    return create_b3(m, v) + FockVector(extra)


class Corner(NamedTuple):
    """Addable corner of a Young diagram: ``p`` is the vertical gap to the next corner
    below (None for the last corner), ``q`` the horizontal gap to the previous corner
    (None for the first corner)."""

    cell: Cell
    p: int | None
    q: int | None


def addable_corners(lam: Partition) -> list[Corner]:
    """Addable corners of lam, top-right to bottom-left, read off the diagram.

    A cell (r, c) is addable when it lies just right of row r (or
    starts a new row) and the row above is longer; the gaps p and q are
    the distances to the neighbouring corners.
    """
    parts = list(lam.parts) + [0]
    cells = [Cell(r, parts[r]) for r in range(len(parts)) if r == 0 or parts[r - 1] > parts[r]]
    return [
        Corner(
            cell,
            cells[j + 1].row - cell.row if j + 1 < len(cells) else None,
            cells[j - 1].col - cell.col if j else None,
        )
        for j, cell in enumerate(cells)
    ]


def marked_cells(pair: IncidencePair) -> tuple[int, dict[int, Cell], dict[int, Cell]]:
    """The paper's marked cells (k, sq, sqp) of an incidence pair.

    k is the index of the corner of lam that mu adds; sq and sqp map each
    other corner index j to its marked cells, both inside the diagram of lam.
    For j < k the cells sit in the column of corner k at the rows of
    corner j and of the last row of that part block; for j > k they
    sit in the row of corner k at the columns of corner j and of the
    right end of that column block.  sqp[j] = sq[j] when the gap
    (p_j for j < k, q_j for j > k) is 1.
    """
    corners = addable_corners(pair.lam)
    k = next(j for j, corner in enumerate(corners) if corner.cell == pair.added_cell)
    ck = corners[k].cell
    sq: dict[int, Cell] = {}
    sqp: dict[int, Cell] = {}
    for j, (cell, p, q) in enumerate(corners):
        if j < k:
            sq[j], sqp[j] = Cell(cell.row, ck.col), Cell(cell.row + p - 1, ck.col)
        elif j > k:
            sq[j], sqp[j] = Cell(ck.row, cell.col), Cell(ck.row, cell.col + q - 1)
    return k, sq, sqp


def derive_lambda(mu: Partition, i: int) -> Partition:
    """Replace one part i of mu by i-1 (drop it when i = 1): the lam of the pair (lam, mu)
    whose added corner ends a row of length i."""
    if i < 1 or mu.multiplicity(i) == 0:
        raise ValueError(f"{mu} has no part {i}")
    lam = remove_part(mu, i)
    if i > 1:
        lam = insert_part(lam, i - 1)
    return lam


def marked_product(pair: IncidencePair, power: int, above_k_only: bool) -> int:
    """hook_product(lam)^power times the marked-cell factors of j != k (j > k if above_k_only).

    The factor of corner j is (1 + hook(sq[j])) / hook(sqp[j]), read off
    the paper's marked cells: h(lam, mu) is marked_product(pair, 2, False)
    and h_plus(lam, mu) is marked_product(pair, 1, True).  A result that
    is not a positive integer signals a marked-cell bug.
    """
    lam = pair.lam
    k, sq, sqp = marked_cells(pair)
    num, den = hook_product(lam) ** power, 1
    for j in sq:
        if j > k or not above_k_only:
            num *= 1 + hook_length(lam, sq[j])
            den *= hook_length(lam, sqp[j])
    if num % den or num <= 0:
        raise ArithmeticError(f"{Fraction(num, den)} is not a positive integer for {pair}")
    return num // den


def tangent_weights_marked(pair: IncidencePair) -> list[int]:
    """Tangent weight multiset of the incidence Hilbert scheme at the pair.

    Assembled from the weight multiset of the n-point tangent space
    plus the weights of an explicit kernel basis, minus the weights of
    the homomorphism classes eliminated by the connecting map.  The
    four boundary cases are classified by whether the vertical gap p_k
    and horizontal gap q_k at the added corner equal 1; undefined gaps
    (q at the first corner, p at the last) count as infinite.

    Kernel weights: -1-hook(sq[j]) for j < k, then one or two unit
    weights depending on the case, then +1+hook(sq[j]) for j > k.
    Removed weights: -hook(sqp[j]) on the left, +hook(sqp[j]) on the
    right, over case-dependent index ranges.  Cardinality is always
    2(n+1).
    """
    lam = pair.lam
    corners = addable_corners(lam)
    m = len(corners) - 1
    k, sq, sqp = marked_cells(pair)
    p1, q1 = corners[k].p == 1, corners[k].q == 1

    if q1 and not p1:  # case 1a
        units = [1]
        left_max, right_min = k - 2, k + 1
    elif p1 and not q1:  # case 1b
        units = [-1]
        left_max, right_min = k - 1, k + 2
    elif not p1 and not q1:  # case 2
        units = [-1, 1]
        left_max, right_min = k - 1, k + 1
    else:  # case 3: p_k = q_k = 1
        units = []
        left_max, right_min = k - 2, k + 2

    weights = tangent_weights_hilbert(lam)
    weights += [-1 - hook_length(lam, sq[j]) for j in range(k)]
    weights += units
    weights += [1 + hook_length(lam, sq[j]) for j in range(k + 1, m + 1)]

    removed = [-hook_length(lam, sqp[j]) for j in range(0, left_max + 1)]
    removed += [hook_length(lam, sqp[j]) for j in range(right_min, m + 1)]
    for w in removed:
        try:
            weights.remove(w)
        except ValueError:
            raise RuntimeError(f"weight {w} to remove is absent for {pair}") from None

    if len(weights) != 2 * (pair.n + 1):
        raise RuntimeError(f"weight count {len(weights)} != {2 * (pair.n + 1)} for {pair}")
    return sorted(weights)


def tangent_weights_character(pair: IncidencePair) -> list[int]:
    """T(lam) + T(mu) + 1 - E(lam, mu) as a multiset of anti-diagonal torus weights, sorted.

    T is the n-point tangent weight multiset and E(lam, mu) the arm-leg character of
    chi(O, O) - chi(I_lam, I_mu): a(lam) + l(mu) + 1 on the cells of lam and
    -(a(mu) + l(lam) + 1) on the cells of mu, arms and legs read with zero padding.
    """
    lam, mu = pair
    part = lambda nu, i: nu[i] if i < len(nu) else 0
    hook = lambda arm_in, leg_in, r, c: part(arm_in, r) - c + part(leg_in.conjugate(), c) - r - 1
    ext = Counter(hook(lam, mu, r, c) for r, c in lam.cells())
    ext.update(-hook(mu, lam, r, c) for r, c in mu.cells())
    weights = Counter(tangent_weights_hilbert(lam) + tangent_weights_hilbert(mu) + [0])
    weights.subtract(ext)
    if any(m < 0 for m in weights.values()):
        raise ArithmeticError(f"E(lam, mu) is not inside T(lam) + T(mu) + 1 for {pair}")
    return sorted(weights.elements())


def product_table_by_pairs(basis: str, n: int, lefts, rights) -> list:
    """Rows (a, b, c, coeff) of ring.product_table, one full product per ordered pair.

    Multiplies the unit vectors of keys a and b with star_b1 or
    star_tilde and reads every c off the product, as the command line
    did before the table function.  The ordinary table keeps the c of
    star_tilde with length(c) = length(a) + length(b) - n, scaled by
    (-1)^(n+1), as the cup product did before it read the table.
    """
    U = FockVector.unit
    if basis == "b1":
        keys = pair_keys(n)
        mult = lambda x, y: star_b1(U(x), U(y), n)
    else:
        keys = operator_keys(n)
        mult = lambda x, y: star_tilde(U(x), U(y))
    rows = []
    for a in lefts:
        for b in rights:
            prod = mult(keys[a], keys[b])
            if basis == "ordinary":
                target = keys[a].nu.length + keys[b].nu.length - n
                prod = (-1) ** (n + 1) * FockVector((k, c) for k, c in prod.items() if k.nu.length == target)
            rows += [(a, b, c, str(prod[k])) for c, k in enumerate(keys) if prod[k]]
    return rows


def transition_json_text(matrix) -> str:
    """The text TransitionMatrix.json_text renders, by dumping the whole document.

    The document goes through json.dumps with indent 2, the way the cache
    and the command line rendered it before the rows were filled into a
    template.
    """
    return json.dumps(matrix.to_json_doc(), indent=2) + "\n"
