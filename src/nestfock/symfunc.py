"""Symmetric-function dictionary.

Symmetric functions are stored as sparse vectors over partition keys
in the power-sum basis; elements of the polynomial extension carry an
extra exponent.  Under phi the curve class L_lam is m_lam and the fixed
class [lam] is h(lam) s_lam, so ``m_in_p`` and ``schur_in_p`` read the
rows of ``basis_change``'s curve and fixed classes.  ``p_in_m`` counts
the ways to distribute the parts of nu among the rows of lam (the
coefficient of m_lam in p_nu), with no characters and no curve classes,
so it serves as an oracle independent of both.  ``character`` is
``partitions.character`` and ``hall_pairing`` is ``fock.pair_hilb_p``,
bound here under these names.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .basis_change import TransitionMatrix, _expansion_matrix, hilb_fixed_in_p, hilb_L_in_p_matrix
from .fock import B2Key, FockVector, pair_hilb_p
from .partitions import Partition, character, hook_product, partition_keys
from .ring import star_tilde


class PolyVKey(NamedTuple):
    """Key of the polynomial extension: power-sum index and v-exponent."""

    nu: Partition
    v: int

    @property
    def degree(self) -> int:
        return self.nu.size + self.v


def p_in_m(nu: Partition) -> FockVector:
    """Power-sum p_nu expanded in the monomial basis, by counting.

    The coefficient of m_lam is the number of ways to put each part of
    nu into a row of lam so that the parts in every row sum to its
    length.  The count runs over the multiset of row lengths still to
    fill, one part of nu at a time: a part p goes into any of the c
    rows with c copies of a remaining length r >= p.
    """
    out = {}
    for lam in partition_keys(nu.size):
        ways = {lam.parts: 1}
        for part in nu.parts:
            nxt: dict[tuple[int, ...], int] = {}
            for rest, c in ways.items():
                for r in set(rest):
                    if r >= part:
                        i = rest.index(r)
                        key = tuple(sorted(rest[:i] + rest[i + 1:] + (r - part,), reverse=True))
                        nxt[key] = nxt.get(key, 0) + c * rest.count(r)
            ways = nxt
        out[lam] = ways.get((0,) * lam.length, 0)
    return FockVector(out)


@lru_cache(maxsize=None)
def _p_to_m(n: int) -> TransitionMatrix:
    keys = partition_keys(n)
    return _expansion_matrix("hilb_p", "m", n, keys, keys, p_in_m)


def _p_to_m_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return _p_to_m(n).rows


def _m_to_p_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return hilb_L_in_p_matrix(n).rows


def m_in_p(lam: Partition) -> FockVector:
    """Monomial symmetric function m_lam in the power-sum basis: phi(L_lam)."""
    return hilb_L_in_p_matrix(lam.size).expand(lam)


def schur_in_p(lam: Partition) -> FockVector:
    """Schur function s_lam = phi([lam]) / h(lam) = sum_nu chi^lam(nu)/z_nu * p_nu."""
    return hilb_fixed_in_p(lam.size).expand(lam) * Fraction(1, hook_product(lam))


def phi(v: FockVector) -> FockVector:
    """Isomorphism onto symmetric functions: creation keys become power sums.

    Keys are partitions on both sides, so the map is the identity on
    the data; it exists to mark the change of interpretation.
    """
    return v


def phi_tilde(v: FockVector) -> FockVector:
    """Isomorphism onto the polynomial extension: (i, nu) -> p_nu v^i."""
    return v.map_keys(lambda k: PolyVKey(k.nu, k.i))


def phi_tilde_inverse(x: FockVector) -> FockVector:
    return x.map_keys(lambda k: B2Key(k.v, k.nu))


hall_pairing = pair_hilb_p  # Hall pairing in the power-sum basis: <p_lam, p_mu> = z_lam delta


def induced_product(x: FockVector, y: FockVector) -> FockVector:
    """Product on the polynomial extension transported from the incidence ring.

    Both operands must be homogeneous of one common total degree
    |nu| + v: the underlying ring is a direct sum over degrees and the
    product has no meaning across graded pieces.
    """
    degs = {k.degree for k in x.keys()} | {k.degree for k in y.keys()}
    if len(degs) > 1:
        raise ValueError(
            f"operands span total degrees {sorted(degs)}; the transported product "
            "is defined only within a single graded piece"
        )
    return phi_tilde(star_tilde(phi_tilde_inverse(x), phi_tilde_inverse(y)))
