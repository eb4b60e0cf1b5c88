"""Brute-force oracles that the fast routes of the package are tested against."""

import json
from fractions import Fraction

from nestfock.basis_change import operator_keys, pair_keys
from nestfock.fock import FockVector
from nestfock.partitions import Cell, Corner, Partition
from nestfock.ring import star_b1, star_tilde


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
            j,
            cell,
            cells[j + 1].row - cell.row if j + 1 < len(cells) else None,
            cells[j - 1].col - cell.col if j else None,
        )
        for j, cell in enumerate(cells)
    ]


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
