from fractions import Fraction
from math import factorial

import pytest

from oracles import p_in_m_expanded
from nestfock.basis_change import (
    TransitionMatrix,
    b1_in_b2,
    hilb_fixed_in_p,
    hilb_L_in_p,
    mat_inv,
)
from nestfock.fock import B2Key, FockVector
from nestfock.partitions import (
    Partition,
    dominance_le,
    enumerate_partitions,
    hook_product,
    partition_keys,
    z_factor,
)
from nestfock.ring import pullback_f, star_hilb
from nestfock.symfunc import (
    PolyVKey,
    _m_to_p_rows,
    _p_to_m_rows,
    character,
    hall_pairing,
    induced_product,
    m_in_p,
    p_in_m,
    phi,
    phi_tilde,
    phi_tilde_inverse,
    schur_in_p,
)

P = Partition
U = FockVector.unit


def pv(nu, v):
    return PolyVKey(P(nu), v)


class TestMonomialTransition:
    def test_spot_values(self):
        assert p_in_m(P([2])) == U(P([2]))
        assert p_in_m(P([2, 1])) == U(P([3])) + U(P([2, 1]))
        assert m_in_p(P([2])) == U(P([2]))
        assert m_in_p(P([1, 1])) == Fraction(1, 2) * U(P([1, 1])) - Fraction(1, 2) * U(P([2]))

    def test_transition_roundtrip(self):
        for n in range(7):
            for lam in enumerate_partitions(n):
                # m_in_p then expand every power sum back in monomials
                acc = FockVector()
                for nu, c in m_in_p(lam).items():
                    acc = acc + c * p_in_m(nu)
                assert acc == U(lam)

    @pytest.mark.parametrize("n", range(9))
    def test_counting_matches_polynomial_expansion(self, n):
        for nu in enumerate_partitions(n):
            assert p_in_m(nu) == p_in_m_expanded(nu), nu

    @pytest.mark.parametrize("n", range(8))
    def test_m_to_p_matches_gauss_jordan(self, n):
        expected = mat_inv([list(r) for r in _p_to_m_rows(n)])
        assert [list(r) for r in _m_to_p_rows(n)] == expected


class TestCharacters:
    def test_small_table(self):
        assert character(P([2, 1]), P([1, 1, 1])) == 2
        assert character(P([2, 1]), P([2, 1])) == 0
        assert character(P([2, 1]), P([3])) == -1

    def test_trivial_and_sign_representations(self):
        for n in range(1, 6):
            for nu in enumerate_partitions(n):
                assert character(P([n]), nu) == 1
                assert character(P([1] * n), nu) == (-1) ** (n - nu.length)

    def test_dimension_is_hook_formula(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                assert character(lam, P([1] * n)) == factorial(n) // hook_product(lam)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            character(P([2]), P([1]))


class TestSchur:
    def test_spot_values(self):
        assert schur_in_p(P([1])) == U(P([1]))
        assert schur_in_p(P([2])) == Fraction(1, 2) * U(P([1, 1])) + Fraction(1, 2) * U(P([2]))
        assert schur_in_p(P([1, 1])) == Fraction(1, 2) * U(P([1, 1])) - Fraction(1, 2) * U(
            P([2])
        )

    def test_schur_orthonormal(self):
        for n in range(7):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    want = Fraction(int(lam == mu))
                    assert hall_pairing(schur_in_p(lam), schur_in_p(mu)) == want


class TestDictionaries:
    def test_phi_is_relabeling(self):
        v = U(P([2, 1]))
        assert phi(v) == v

    def test_phi_tilde(self):
        assert phi_tilde(U(B2Key(0, P([])))) == U(pv([], 0))
        assert phi_tilde(U(B2Key(2, P([3, 1])))) == U(pv([3, 1], 2))
        v = U(B2Key(1, P([2])))
        assert phi_tilde_inverse(phi_tilde(v)) == v

    def test_curve_class_is_monomial(self):
        # against the counted p -> m expansion, independent of the curve classes
        for n in range(8):
            for lam in enumerate_partitions(n):
                acc = FockVector()
                for nu, c in phi(hilb_L_in_p(lam)).items():
                    acc = acc + c * p_in_m(nu)
                assert acc == U(lam), lam

    def test_fixed_class_is_scaled_schur(self):
        """s_lam = phi([lam]) / h(lam) is m_lam plus terms lower in dominance order.

        The monomial expansion goes through the counted p -> m matrix, so it
        does not read the fixed classes; with ``test_schur_orthonormal`` it
        pins s_lam down.
        """
        for n in range(8):
            keys = partition_keys(n)
            to_m = TransitionMatrix("p", "m", n, keys, keys, _p_to_m_rows(n))
            for lam in keys:
                img = phi(hilb_fixed_in_p(n).expand(lam))
                assert hall_pairing(img, img) == hook_product(lam) ** 2
                in_m = to_m.apply(schur_in_p(lam))
                assert in_m[lam] == 1
                assert all(dominance_le(mu, lam) for mu in in_m.keys())


def _fixed_image_polyv(lam):
    n = lam.size
    return phi_tilde(b1_in_b2(n).apply(pullback_f(U(lam))))


def _to_polyv(fixed_vec, n):
    out = FockVector()
    for lam, c in fixed_vec.items():
        out = out + c * phi(hilb_fixed_in_p(n).apply(U(lam))).map_keys(lambda nu: PolyVKey(nu, 0))
    return out


class TestInducedProduct:
    def test_degree_one_products(self):
        p1 = U(pv([1], 0))
        v1 = U(pv([], 1))
        assert induced_product(p1, p1) == p1
        assert induced_product(v1, v1) == p1

    def test_mixed_degree_rejected(self):
        with pytest.raises(ValueError, match="graded"):
            induced_product(U(pv([1], 0)), U(pv([2], 0)))

    def test_subring_of_images_is_closed(self):
        # products of v-degree-0 classes in the image of pullback_f stay
        # in v-degree 0
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    x = _fixed_image_polyv(lam)
                    y = _fixed_image_polyv(mu)
                    prod = induced_product(x, y)
                    assert all(k.v == 0 for k in prod.keys())

    def test_transported_schur_law_degree_two(self):
        # product of images of fixed classes agrees with the diagonal
        # law transported from the n-point side, with one global sign
        n = 2
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                x = _fixed_image_polyv(lam)
                y = _fixed_image_polyv(mu)
                got = induced_product(x, y)
                transported = star_hilb(U(lam), U(mu), n)
                want = -1 * _to_polyv(transported, n)
                assert got == want, (lam, mu)


class TestHallPairing:
    def test_power_sum_orthogonality(self):
        for n in range(7):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    want = Fraction(z_factor(lam)) if lam == mu else Fraction(0)
                    assert hall_pairing(U(lam), U(mu)) == want
