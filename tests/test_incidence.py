from fractions import Fraction

import pytest

from nestfock.incidence import (
    IncidencePair,
    betti_from_fixed_points,
    betti_series,
    enumerate_incidence_pairs,
    euler_class,
    h_pair,
    h_plus,
    tangent_weights_hilbert,
    tangent_weights_incidence,
)
from nestfock.partitions import Cell, Partition, enumerate_partitions, hook_product, step_length
from oracles import (
    derive_lambda, marked_cells, marked_product, tangent_weights_character, tangent_weights_marked,
)

P = Partition


def pr(lam, mu):
    return IncidencePair(P(lam), P(mu))


class TestIncidencePair:
    def test_valid_pairs(self):
        p = pr([2, 1], [2, 2])
        assert p.n == 3 and p.value == 1 and p.added_cell == Cell(1, 1)
        assert pr([], [1]).value == 0
        # a validated tuple: equal to and hashed as the plain tuple (lam, mu)
        for n in range(5):
            for q in enumerate_incidence_pairs(n):
                plain = (q.lam, q.mu)
                assert isinstance(q, tuple) and q == plain and hash(q) == hash(plain)
                assert q[0] is q.lam and q[1] is q.mu and IncidencePair(*plain) == q
        for name in ("lam", "mu", "added_cell", "extra"):
            with pytest.raises(AttributeError):
                setattr(p, name, Cell(0, 0))
        assert p.added_cell == Cell(1, 1)

    def test_invalid_pairs(self):
        with pytest.raises(ValueError, match=r"^sizes 2, 2 are not consecutive$"):
            pr([2], [2])
        with pytest.raises(ValueError, match=r"^Partition\(\[1, 1, 1\]\) does not cover Partition\(\[2\]\)$"):
            pr([2], [1, 1, 1])
        with pytest.raises(ValueError, match=r"^Partition\(\[3\]\) does not cover Partition\(\[1, 1\]\)$"):
            pr([1, 1], [3])
        with pytest.raises(ValueError):
            pr([2], [4])
        with pytest.raises(ValueError):
            pr([2, 1], [3, 1, 1])
        with pytest.raises(ValueError):
            pr([2, 2], [3, 2, 1])

    def test_value_is_incremented_part(self):
        # mu is lam with one part value i bumped to i+1
        for n in range(7):
            for p in enumerate_incidence_pairs(n):
                i = p.value
                expect = list(p.lam.parts)
                if i:
                    expect.remove(i)
                expect.append(i + 1)
                assert P(expect) == p.mu


class TestEnumeration:
    def test_small_degrees(self):
        assert [(q.lam.parts, q.mu.parts) for q in enumerate_incidence_pairs(0)] == [((), (1,))]
        assert [(q.lam.parts, q.mu.parts) for q in enumerate_incidence_pairs(1)] == [
            ((1,), (2,)),
            ((1,), (1, 1)),
        ]
        assert [(q.lam.parts, q.mu.parts) for q in enumerate_incidence_pairs(2)] == [
            ((2,), (3,)),
            ((2,), (2, 1)),
            ((1, 1), (2, 1)),
            ((1, 1), (1, 1, 1)),
        ]

    def test_count_is_step_length_sum(self):
        for n in range(11):
            pairs = enumerate_incidence_pairs(n)
            assert len(set(pairs)) == len(pairs)
            assert len(pairs) == sum(step_length(mu) for mu in enumerate_partitions(n + 1))


class TestDeriveLambda:
    def test_spot_values(self):
        assert derive_lambda(P([2, 1]), 2) == P([1, 1])
        assert derive_lambda(P([2, 1]), 1) == P([2])
        assert derive_lambda(P([3, 3, 1]), 3) == P([3, 2, 1])

    def test_missing_part_rejected(self):
        with pytest.raises(ValueError):
            derive_lambda(P([2, 1]), 3)
        with pytest.raises(ValueError):
            derive_lambda(P([2, 1]), 0)

    def test_inverse_of_enumeration(self):
        for n in range(7):
            for p in enumerate_incidence_pairs(n):
                assert derive_lambda(p.mu, p.value + 1) == p.lam


class TestMarkedCells:
    def test_k_index(self):
        assert marked_cells(pr([1], [2]))[0] == 0
        assert marked_cells(pr([1], [1, 1]))[0] == 1
        assert marked_cells(pr([1, 1], [2, 1]))[0] == 0

    def test_spot_cells(self):
        assert marked_cells(pr([1, 1], [2, 1])) == (0, {1: Cell(0, 0)}, {1: Cell(0, 0)})
        assert marked_cells(pr([2], [2, 1])) == (1, {0: Cell(0, 0)}, {0: Cell(0, 0)})
        assert marked_cells(pr([2], [3])) == (0, {1: Cell(0, 0)}, {1: Cell(0, 1)})

    def test_cells_inside_diagram(self):
        for n in range(9):
            for p in enumerate_incidence_pairs(n):
                _, sq, sqp = marked_cells(p)
                for j in sq:
                    assert sq[j] in p.lam and sqp[j] in p.lam


class TestHookProducts:
    def test_h_pair_values(self):
        assert h_pair(pr([], [1])) == 1
        assert h_pair(pr([1], [2])) == 2
        assert h_pair(pr([1], [1, 1])) == 2
        assert [h_pair(p) for p in enumerate_incidence_pairs(2)] == [12, 6, 6, 12]

    def test_h_plus_values(self):
        assert h_plus(pr([], [1])) == 1
        assert h_plus(pr([1], [2])) == 2
        assert h_plus(pr([1], [1, 1])) == 1
        assert h_plus(pr([2], [3])) == 6
        assert h_plus(pr([1, 1], [1, 1, 1])) == 2
        assert h_plus(pr([1, 1], [2, 1])) == 3

    def test_h_plus_divides_structure(self):
        # h_plus * (negative-part magnitude) = h_pair as integers
        for n in range(8):
            for p in enumerate_incidence_pairs(n):
                assert h_pair(p) % h_plus(p) == 0

    def test_closed_forms_match_the_marked_cell_oracle(self):
        pairs = [p for n in range(13) for p in enumerate_incidence_pairs(n)]
        assert len(pairs) == 890
        for p in pairs:
            assert h_pair(p) == marked_product(p, 2, False), p
            assert h_plus(p) == marked_product(p, 1, True), p

    def test_conjugation_laws(self):
        # sigma: (lam, mu) -> (lam', mu') keeps h and swaps the two halves of h
        pairs = [p for n in range(12) for p in enumerate_incidence_pairs(n)]
        assert len(pairs) == 618
        for p in pairs:
            q = IncidencePair(p.lam.conjugate(), p.mu.conjugate())
            assert h_pair(q) == h_pair(p), p
            assert h_plus(q) * h_plus(p) == h_pair(p), p


class TestEulerClass:
    def test_spot_values(self):
        assert tuple(euler_class(pr([], [1]))) == (-1, 1, 2)
        assert tuple(euler_class(pr([1], [2]))) == (1, 2, 4)
        assert tuple(euler_class(pr([1, 1], [2, 1]))) == (-1, 6, 6)

    def test_hilbert_weights(self):
        assert tangent_weights_hilbert(P([1])) == [-1, 1]
        assert tangent_weights_hilbert(P([2])) == [-2, -1, 1, 2]
        assert tangent_weights_hilbert(P([2, 1])) == [-3, -1, -1, 1, 1, 3]

    def test_incidence_weights_spot(self):
        assert tangent_weights_incidence(pr([], [1])) == [-1, 1]
        assert tangent_weights_incidence(pr([1, 1], [2, 1])) == sorted([1, -2, -1, -1, 1, 3])
        weights = tangent_weights_incidence(pr([1], [2]))
        prod = 1
        for w in weights:
            prod *= w
        assert prod == 2

    def test_oracle_agreement(self):
        for n in range(13):
            for p in enumerate_incidence_pairs(n):
                weights = tangent_weights_incidence(p)
                assert weights == tangent_weights_marked(p), p
                assert weights == tangent_weights_character(p), p
                assert len(weights) == 2 * (n + 1)
                prod, pos = 1, 1
                for w in weights:
                    prod *= w
                    if w > 0:
                        pos *= w
                sign, mag, t_exp = euler_class(p)
                assert prod == sign * mag
                assert pos == h_plus(p)
                assert t_exp == 2 * (n + 1)


class TestHookIdentities:
    def test_sum_over_mu(self):
        for n in range(7):
            for lam in enumerate_partitions(n):
                total = sum(
                    Fraction(hook_product(lam) ** 2, h_pair(p))
                    for p in enumerate_incidence_pairs(n)
                    if p.lam == lam
                )
                assert total == 1, lam

    def test_sum_over_lam(self):
        for n in range(1, 8):
            for mu in enumerate_partitions(n):
                total = sum(
                    Fraction(hook_product(mu) ** 2, h_pair(IncidencePair(derive_lambda(mu, i), mu)))
                    for i in set(mu.parts)
                )
                assert total == n, mu


class TestBetti:
    def test_series_small(self):
        assert betti_series(2) == [[1], [1, 1], [1, 2, 1]]

    def test_fixed_point_counts(self):
        assert betti_from_fixed_points(1) == [1, 1]
        assert betti_from_fixed_points(2) == [1, 2, 1]

    def test_agreement(self):
        series = betti_series(9)
        for n in range(10):
            cells = betti_from_fixed_points(n)
            assert series[n] == cells
            assert sum(cells) == len(enumerate_incidence_pairs(n))
