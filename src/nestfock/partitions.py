"""Integer partitions, Young diagrams, hooks and symmetric group characters.

Cells use 0-based (row, col) coordinates: row r of the diagram of
``lam`` holds the cells (r, 0) .. (r, lam[r]-1).  The monomial
z^a w^b corresponds to the cell (a, b), so rows run in the
z-direction and columns in the w-direction.

``character`` lives here, not in ``symfunc`` (which imports
``basis_change``), because ``basis_change`` builds the fixed classes from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Optional


class Cell(NamedTuple):
    row: int
    col: int


class Partition(tuple):
    """Weakly decreasing sequence of positive integers (possibly empty).

    A validated tuple of the parts: construction sorts them in
    descending order, raises TypeError on a part that is not an int (a
    bool is not) and ValueError on one below 1; iteration, length,
    indexing, equality and hashing are the tuple's, so a partition equals
    the plain tuple of its parts.  ``cell in lam`` tests whether a cell
    lies in the diagram; ``lam.parts`` is the plain tuple, for part membership.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        ps = tuple(parts)
        if {*map(type, ps)} - {int}:
            raise TypeError(f"parts must be ints, got {ps!r}")
        if ps and min(ps) < 1:
            raise ValueError(f"parts must be positive integers, got {ps}")
        return super().__new__(cls, sorted(ps, reverse=True))

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    multiplicity = tuple.count

    def distinct_parts(self) -> tuple[int, ...]:
        """Distinct part values in descending order."""
        return tuple(sorted(set(self), reverse=True))

    @lru_cache(maxsize=None)
    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for c in range(p):
                cols[c] += 1
        return Partition(cols)

    def cells(self) -> Iterator[Cell]:
        for r, p in enumerate(self):
            for c in range(p):
                yield Cell(r, c)

    def __contains__(self, cell) -> bool:
        r, c = cell
        return 0 <= r < len(self) and 0 <= c < self[r]

    def as_list(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


class Corner(NamedTuple):
    """Addable corner of a Young diagram.

    ``p`` is the vertical gap to the next corner below (None for the
    last corner), ``q`` the horizontal gap to the previous corner
    (None for the first corner).
    """

    index: int
    cell: Cell
    p: Optional[int]
    q: Optional[int]


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(remaining, max_part), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


@lru_cache(maxsize=None)
def partition_keys(n: int) -> tuple[Partition, ...]:
    """enumerate_partitions(n) as a tuple, built once per n."""
    return tuple(enumerate_partitions(n))


def hook_length(lam: Partition, cell: Cell) -> int:
    """Arm plus leg plus one of a cell inside the diagram."""
    if cell not in lam:
        raise ValueError(f"cell {cell} outside diagram of {lam}")
    conj = lam.conjugate()
    return (lam[cell.row] - cell.col - 1) + (conj[cell.col] - cell.row - 1) + 1


@lru_cache(maxsize=None)
def hook_product(lam: Partition) -> int:
    """Product of all hook lengths over the diagram; 1 for the empty partition."""
    conj = lam.conjugate()
    out = 1
    for r, p in enumerate(lam):
        for c in range(p):
            out *= (p - c - 1) + (conj[c] - r - 1) + 1
    return out


def step_length(lam: Partition) -> int:
    """Number of distinct part values."""
    return len(set(lam.parts))


@lru_cache(maxsize=None)
def z_factor(nu: Partition) -> int:
    """Product over part values j of j^{m_j} * m_j!."""
    out = 1
    for j in set(nu.parts):
        m = nu.multiplicity(j)
        out *= j**m * factorial(m)
    return out


def dominance_le(lam1: Partition, lam2: Partition) -> bool:
    """True iff lam1 <= lam2 in the dominance order (same size required)."""
    if lam1.size != lam2.size:
        return False
    s1 = s2 = 0
    for a, b in zip_longest(lam1.parts, lam2.parts, fillvalue=0):
        s1 += a
        s2 += b
        if s1 > s2:
            return False
    return True


@lru_cache(maxsize=None)
def canonical_generators(lam: Partition) -> tuple[Corner, ...]:
    """Addable corners of the diagram, top-right to bottom-left.

    Corner j sits at row p_0+...+p_{j-1} and column equal to the j-th
    largest distinct part value (column 0 for the last corner), where
    p_j is the multiplicity of the j-th largest distinct value.  There
    are always step_length(lam)+1 corners; the empty partition has the
    single corner (0, 0).
    """
    values = lam.distinct_parts()
    m = len(values)
    rows = [0]
    for v in values:
        rows.append(rows[-1] + lam.multiplicity(v))
    cols = list(values) + [0]
    corners = []
    for j in range(m + 1):
        p = lam.multiplicity(values[j]) if j < m else None
        q = cols[j - 1] - cols[j] if j >= 1 else None
        corners.append(Corner(j, Cell(rows[j], cols[j]), p, q))
    return tuple(corners)


@lru_cache(maxsize=None)
def insert_part(lam: Partition, value: int) -> Partition:
    """Partition with one extra part of the given positive value."""
    if value < 1:
        raise ValueError("part value must be positive")
    return Partition(lam.parts + (value,))


@lru_cache(maxsize=None)
def remove_part(lam: Partition, value: int) -> Partition:
    """Partition with one copy of the given part value removed."""
    ps = list(lam.parts)
    try:
        ps.remove(value)
    except ValueError:
        raise ValueError(f"{lam} has no part {value}") from None
    return Partition(ps)


@lru_cache(maxsize=None)
def character(lam: Partition, nu: Partition) -> int:
    """Symmetric group character chi^lam at cycle type nu.

    Border-strip recursion on the largest part of nu, carried out on
    the strictly decreasing first-column hook lengths of lam: removing
    a strip of size r subtracts r from one of them, with sign given by
    the number of values jumped over.
    """
    if lam.size != nu.size:
        raise ValueError("shape and cycle type must have equal size")
    if lam.size == 0:
        return 1
    r = nu[0]
    rest = remove_part(nu, r)
    m = lam.length
    betas = [p + m - 1 - i for i, p in enumerate(lam.parts)]
    total = 0
    for b in betas:
        nb = b - r
        if nb < 0 or nb in betas:
            continue
        new = sorted([x for x in betas if x != b] + [nb], reverse=True)
        parts = [x - (m - 1 - i) for i, x in enumerate(new) if x > m - 1 - i]
        total += (-1) ** sum(nb < x < b for x in betas) * character(Partition(parts), rest)
    return total
