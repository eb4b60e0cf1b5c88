"""Incidence pairs of partitions and their equivariant Euler classes.

An incidence pair (lam, mu) consists of a partition lam of n and a
partition mu of n+1 whose diagram is that of lam plus one addable
corner.  These pairs index the torus fixed points of the incidence
Hilbert scheme of n and n+1 points in the plane; the hook products
h(lam, mu) and h_plus(lam, mu) computed here are the magnitudes of the
equivariant Euler classes of the full tangent space and of its
positive part.

Two routes to the Euler class share only hook lengths: the closed forms
h_pair = h(lam) h(mu) and h_plus, and the tangent weights that
tangent_weights_incidence assembles from the marked cells.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import itemgetter
from typing import NamedTuple

from .partitions import (
    Cell,
    Partition,
    add_corner,
    canonical_generators,
    hook_length,
    hook_product,
    insert_part,
    partition_keys,
    remove_part,
    step_length,
)


class IncidencePair(tuple):
    """Pair (lam, mu) with mu equal to lam plus one addable corner.

    A validated tuple (lam, mu): construction checks that mu covers lam
    and keeps the added corner as ``added_cell``, and iteration,
    length, indexing, equality and hashing are the tuple's, so a pair
    equals the plain tuple (lam, mu).  ``value`` is the distinguished
    value: the column of the added corner, equivalently the size of the
    part of lam that mu increments (0 when mu appends a new part 1).
    """

    lam = property(itemgetter(0))
    mu = property(itemgetter(1))

    def __new__(cls, lam: Partition, mu: Partition) -> "IncidencePair":
        if mu.size != lam.size + 1:
            raise ValueError(f"sizes {lam.size}, {mu.size} are not consecutive")
        cell = None
        for r, m in enumerate(mu):
            lp = lam[r] if r < len(lam) else 0
            if m == lp + 1 and cell is None:
                cell = Cell(r, lp)
            elif m != lp:
                raise ValueError(f"{mu} does not cover {lam}")
        # with consecutive sizes some row of mu grows, so cell is set here
        self = super().__new__(cls, (lam, mu))
        object.__setattr__(self, "added_cell", cell)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IncidencePair is immutable")

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def value(self) -> int:
        return self.added_cell.col

    def as_json_obj(self) -> dict:
        return {"lambda": self.lam.as_list(), "mu": self.mu.as_list()}

    def __repr__(self) -> str:
        return f"IncidencePair({list(self.lam)}, {list(self.mu)})"


class MarkedCells(NamedTuple):
    """Marked cells of an incidence pair.

    ``k`` is the index of the corner of lam added by mu; ``sq`` and
    ``sqp`` map each other corner index j to its marked cells, both
    inside the diagram of lam.
    """

    k: int
    sq: dict[int, Cell]
    sqp: dict[int, Cell]


class EulerClass(NamedTuple):
    sign: int
    magnitude: int
    t_exponent: int


def enumerate_incidence_pairs(n: int) -> list[IncidencePair]:
    """All pairs with |lam| = n, lam in reverse-lex order, corners top-down."""
    out = []
    for lam in partition_keys(n):
        for corner in canonical_generators(lam):
            out.append(IncidencePair(lam, add_corner(lam, corner.cell)))
    return out


def derive_lambda(mu: Partition, i: int) -> Partition:
    """Replace one part i of mu by i-1 (drop it when i = 1)."""
    if i < 1 or mu.multiplicity(i) == 0:
        raise ValueError(f"{mu} has no part {i}")
    lam = remove_part(mu, i)
    if i > 1:
        lam = insert_part(lam, i - 1)
    return lam


def k_index(pair: IncidencePair) -> int:
    """Index of the canonical generator of lam at the added corner."""
    for corner in canonical_generators(pair.lam):
        if corner.cell == pair.added_cell:
            return corner.index
    raise RuntimeError(f"added cell of {pair} is not an addable corner")


def marked_cells(pair: IncidencePair) -> MarkedCells:
    """Marked cells sq[j], sqp[j] of the pair, for every corner j != k.

    For j < k the cells sit in the column of corner k at the rows of
    corner j and of the last row of that part block; for j > k they
    sit in the row of corner k at the columns of corner j and of the
    right end of that column block.  sqp[j] = sq[j] when the gap
    (p_j for j < k, q_j for j > k) is 1.
    """
    corners = canonical_generators(pair.lam)
    k = k_index(pair)
    ck = corners[k].cell
    sq: dict[int, Cell] = {}
    sqp: dict[int, Cell] = {}
    for corner in corners:
        j = corner.index
        if j < k:
            sq[j] = Cell(corner.cell.row, ck.col)
            sqp[j] = Cell(corner.cell.row + corner.p - 1, ck.col)
        elif j > k:
            sq[j] = Cell(ck.row, corner.cell.col)
            sqp[j] = Cell(ck.row, corner.cell.col + corner.q - 1)
    return MarkedCells(k, sq, sqp)


@lru_cache(maxsize=None)
def h_pair(pair: IncidencePair) -> int:
    """h(lam, mu) = h(lam) h(mu): the paper's marked-cell product in closed form.

    Adding the corner (r, c) raises by one only the hooks of the c cells of lam left
    of it and the r cells above it, so h(mu)/h(lam) = prod (h + 1)/h over those hooks
    of lam (Frame, Robinson and Thrall).  Along a block of equal parts (or columns)
    they are consecutive, so it telescopes to prod_{j != k} (1 + hook(sq[j]))/hook(sqp[j]).
    """
    return hook_product(pair.lam) * hook_product(pair.mu)


def h_plus(pair: IncidencePair) -> int:
    """h(lam) times the j > k half of h(mu)/h(lam) (see h_pair): row r, left of c."""
    lam, (r, c) = pair.lam, pair.added_cell
    hooks = [lam[r] - j + col - r - 1 for j, col in enumerate(lam.conjugate()[:c])]
    return hook_product(lam) * prod(h + 1 for h in hooks) // prod(hooks)


def euler_class(pair: IncidencePair) -> EulerClass:
    """Equivariant Euler class of the tangent space at the fixed point.

    Returns ((-1)^(n+1), h(lam, mu), 2(n+1)) for |lam| = n, encoding
    the class (-1)^(n+1) h(lam, mu) t^(2(n+1)).
    """
    n = pair.n
    return EulerClass((-1) ** (n + 1), h_pair(pair), 2 * (n + 1))


def tangent_weights_hilbert(lam: Partition) -> list[int]:
    """Tangent weight multiset {+hook, -hook over all cells}, sorted."""
    hooks = [hook_length(lam, c) for c in lam.cells()]
    return sorted(hooks + [-h for h in hooks])


def tangent_weights_incidence(pair: IncidencePair) -> list[int]:
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
    corners = canonical_generators(lam)
    m = len(corners) - 1
    mc = marked_cells(pair)
    k = mc.k
    p_k = corners[k].p  # None when k == m
    q_k = corners[k].q  # None when k == 0
    p1 = p_k == 1
    q1 = q_k == 1

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
    weights += [-1 - hook_length(lam, mc.sq[j]) for j in range(k)]
    weights += units
    weights += [1 + hook_length(lam, mc.sq[j]) for j in range(k + 1, m + 1)]

    removed = [-hook_length(lam, mc.sqp[j]) for j in range(0, left_max + 1)]
    removed += [hook_length(lam, mc.sqp[j]) for j in range(right_min, m + 1)]
    for w in removed:
        try:
            weights.remove(w)
        except ValueError:
            raise RuntimeError(f"weight {w} to remove is absent for {pair}") from None

    if len(weights) != 2 * (pair.n + 1):
        raise RuntimeError(f"weight count {len(weights)} != {2 * (pair.n + 1)} for {pair}")
    return sorted(weights)


def betti_series(max_n: int) -> list[list[int]]:
    """Even Betti numbers of the incidence Hilbert schemes up to max_n.

    Expands 1/(1-z^2 q) * prod_{m>=1} 1/(1 - z^(2m-2) q^m) to order
    q^max_n; entry n is [b_0, b_2, ..., b_2n].
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    # table[n][e] = coefficient of q^n z^(2e)
    table: list[dict[int, int]] = [{} for _ in range(max_n + 1)]
    table[0][0] = 1

    def mul_geometric(z_exp: int, q_exp: int) -> None:
        # multiply the truncated series by 1 / (1 - z^z_exp q^q_exp)
        for n in range(q_exp, max_n + 1):
            for e, c in table[n - q_exp].items():
                table[n][e + z_exp] = table[n].get(e + z_exp, 0) + c

    mul_geometric(1, 1)  # the 1/(1-z^2 q) factor; z tracked in half exponents
    for m in range(1, max_n + 1):
        mul_geometric(m - 1, m)

    out = []
    for n in range(max_n + 1):
        top = max(table[n]) if table[n] else 0
        out.append([table[n].get(e, 0) for e in range(top + 1)])
    return out


def betti_from_fixed_points(n: int) -> list[int]:
    """Betti numbers from the cell decomposition indexed by (mu, i).

    b_2k counts pairs (mu, i) with mu a partition of n+1, i a part
    value of the conjugate of mu, and length(mu) = n+1-k.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = [0] * (n + 1)
    for mu in partition_keys(n + 1):
        k = (n + 1) - mu.length
        counts[k] += step_length(mu.conjugate())
    return counts
