"""Incidence pairs of partitions and their equivariant Euler classes.

An incidence pair (lam, mu) consists of a partition lam of n and a
partition mu of n+1 that raises one addable row of lam by one.  These
pairs index the torus fixed points of the incidence Hilbert scheme of
n and n+1 points in the plane; the hook products
h(lam, mu) and h_plus(lam, mu) computed here are the magnitudes of the
equivariant Euler classes of the full tangent space and of its
positive part.

Two routes to the Euler class share only hook lengths: the closed forms
h_pair = h(lam) h(mu) and h_plus, and the relative hooks (arm or leg
taken in mu) that tangent_weights_incidence lists as tangent weights.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import prod
from operator import itemgetter
from typing import NamedTuple

from .partitions import (
    Cell,
    Partition,
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
        # with consecutive sizes, one differing row is one row grown by one cell
        rows = [r for r, (m, lp) in enumerate(zip_longest(mu, lam, fillvalue=0)) if m != lp]
        if len(rows) != 1:
            raise ValueError(f"{mu} does not cover {lam}")
        self = super().__new__(cls, (lam, mu))
        object.__setattr__(self, "added_cell", Cell(rows[0], mu[rows[0]] - 1))
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
    """Marked cells of an incidence pair; public, and serves the test oracles.

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
    """All pairs with |lam| = n: lam in reverse-lex order, then its addable rows top-down.

    Row r of lam padded by a 0 is addable when r = 0 or lam[r-1] > lam[r].
    """
    out = []
    for lam in partition_keys(n):
        for r, part in enumerate((*lam, 0)):
            if r == 0 or lam[r - 1] > part:
                out.append(IncidencePair(lam, Partition((*lam[:r], part + 1, *lam[r + 1:]))))
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
    """Index of the canonical generator of lam at the added corner (public, serves the
    test oracles): the number of distinct parts of lam greater than the value."""
    return sum(v > pair.value for v in set(pair.lam))


def marked_cells(pair: IncidencePair) -> MarkedCells:
    """Marked cells sq[j], sqp[j] for every corner j != k; public, serves the test oracles.

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
    """Tangent weight multiset of the incidence Hilbert scheme at the pair, sorted.

    The weights 1 and -1 and, for each cell (r, c) of lam, its hook with the arm
    taken in mu and minus its hook with the leg taken in mu.  A checked identity
    (on every pair with n <= 12, against the marked-cell assembly): as characters of
    the anti-diagonal torus, T(lam, mu) = T(lam) + T(mu) + 1 - E(lam, mu), with T the
    n-point tangent spaces and E the arm-leg character of chi(O, O) - chi(I_lam, I_mu)
    (Carlsson and Okounkov, Duke Math. J. 161, 2012); the terms cancel cell by cell,
    and the one weight 0 of E, at the added cell, cancels the trivial character.
    """
    lam, mu = pair
    lam_t, mu_t = lam.conjugate(), mu.conjugate()
    weights = [1, -1]
    for r, c in lam.cells():
        weights += [mu[r] - c + lam_t[c] - r - 1, -(lam[r] - c + mu_t[c] - r - 1)]
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
