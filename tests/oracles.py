"""Brute-force oracles that the fast routes of the package are tested against."""

from fractions import Fraction

from nestfock.fock import FockVector
from nestfock.partitions import Partition


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
