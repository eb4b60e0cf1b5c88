from math import factorial

import pytest

from oracles import create_b3_uncorrected, nakajima_L_explicit, translate_b3_pow
from nestfock.curve_classes import (
    add_part,
    create_b3,
    nakajima_L,
    translate_b3,
    translate_b3_linear,
)
from nestfock.fock import FockVector
from nestfock.incidence import IncidencePair, enumerate_incidence_pairs
from nestfock.partitions import Partition, enumerate_partitions
from nestfock.symfunc import p_in_m

P = Partition
U = FockVector.unit


def pr(lam, mu):
    return IncidencePair(P(lam), P(mu))


class TestAddPart:
    def test_spot_values(self):
        assert add_part(P([1]), 0, 1) == P([1, 1])
        assert add_part(P([1]), 1, 1) == P([2])
        assert add_part(P([2, 2, 1]), 2, 3) == P([5, 2, 1])

    def test_missing_part_rejected(self):
        with pytest.raises(ValueError):
            add_part(P([2, 1]), 3, 1)
        with pytest.raises(ValueError):
            add_part(P([1]), 1, 0)


class TestNakajimaL:
    def test_spot_expansions(self):
        assert nakajima_L(1, U(P([]))) == U(P([1]))
        assert nakajima_L(1, U(P([1]))) == 2 * U(P([1, 1])) + U(P([2]))
        assert nakajima_L(2, U(P([2]))) == 2 * U(P([2, 2])) + U(P([4]))

    def test_repeated_ones_coefficients(self):
        # the n-fold index-1 image of the empty key has coefficient 1 on
        # the single-row key and n! on the single-column key
        for n in range(1, 7):
            vec = U(P([]))
            for _ in range(n):
                vec = nakajima_L(1, vec)
            assert vec[P([n])] == 1
            assert vec[P([1] * n)] == factorial(n)

    def test_matches_monomial_expansion_oracle(self):
        # expanding the power sum p_(1^n) in monomials gives the same table
        for n in range(1, 7):
            vec = U(P([]))
            for _ in range(n):
                vec = nakajima_L(1, vec)
            assert vec == p_in_m(P([1] * n))

    @pytest.mark.parametrize("n", range(9))
    def test_slice_of_create_b3_matches_explicit_rule(self, n):
        for lam in enumerate_partitions(n):
            for m in range(1, 5):
                assert nakajima_L(m, U(lam)) == nakajima_L_explicit(m, U(lam)), (lam, m)


class TestTranslateB3:
    def test_spot_values(self):
        assert translate_b3(pr([], [1])) == pr([1], [2])
        assert translate_b3(pr([1], [2])) == pr([2], [3])
        assert translate_b3(pr([1], [1, 1])) == pr([1, 1], [2, 1])

    def test_output_valid_and_shifts_value(self):
        for n in range(7):
            for p in enumerate_incidence_pairs(n):
                q = translate_b3(p)  # constructor validates incidence
                assert q.lam == p.mu and q.value == p.value + 1

    def test_power(self):
        assert translate_b3_pow(pr([], [1]), 3) == pr([3], [4])


class TestCreateB3:
    def test_spot_expansions(self):
        assert create_b3(1, U(pr([], [1]))) == U(pr([1], [1, 1])) + U(pr([1], [2]))
        assert create_b3(1, U(pr([1], [2]))) == U(pr([1, 1], [2, 1])) + U(pr([2], [3]))
        assert create_b3(1, U(pr([1], [1, 1]))) == (
            U(pr([2], [2, 1])) + 2 * U(pr([1, 1], [1, 1, 1])) + U(pr([1, 1], [2, 1]))
        )

    def test_commutes_with_translation(self):
        for n in range(7):
            for m in range(1, 4):
                for p in enumerate_incidence_pairs(n):
                    v = U(p)
                    via_t = create_b3(m, translate_b3_linear(v))
                    via_a = translate_b3_linear(create_b3(m, v))
                    assert via_t == via_a, (m, p)

    def test_literal_coefficient_breaks_commutation(self):
        # dropping the overlap correction must fail exactly where the
        # corrected rule succeeds
        src = U(pr([], [1]))
        lit_then_t = translate_b3_linear(create_b3_uncorrected(1, src))
        t_then_lit = create_b3_uncorrected(1, translate_b3_linear(src))
        assert lit_then_t != t_then_lit
        assert t_then_lit[pr([1, 1], [2, 1])] == 2
        assert lit_then_t[pr([1, 1], [2, 1])] == 1

    def test_degree_bookkeeping(self):
        for n in range(5):
            for m in range(1, 3):
                for p in enumerate_incidence_pairs(n):
                    for q in create_b3(m, U(p)).keys():
                        assert q.n == n + m
