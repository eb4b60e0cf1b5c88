from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestfock.partitions import (
    Cell,
    Partition,
    canonical_generators,
    dominance_le,
    enumerate_partitions,
    hook_length,
    hook_product,
    insert_part,
    remove_part,
    step_length,
    z_factor,
)
from nestfock.incidence import enumerate_incidence_pairs
from oracles import addable_corners

P = Partition

# independent enumeration oracle: descending-prefix recursion written
# differently from the production generator
def _oracle_partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(cap, n), 0, -1):
        out.extend((first,) + rest for rest in _oracle_partitions(n - first, first))
    return out


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]

partitions_st = st.lists(st.integers(1, 9), max_size=8).map(Partition)


class TestPartitionType:
    def test_canonical_sorting(self):
        lam = P([1, 3, 2])
        assert lam.parts == (3, 2, 1) and type(lam.parts) is tuple
        # .parts tests part membership; ``in lam`` tests cell membership
        assert 2 in P([2, 1]).parts and 3 not in P([2, 1]).parts

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=r"^parts must be positive integers, got \(2, 0\)$"):
            P([2, 0])
        with pytest.raises(ValueError, match=r"^parts must be positive integers, got \(-1,\)$"):
            P([-1])

    @pytest.mark.parametrize("parts", [[1.7, 2.2], [2.0], ["3"], [True], [2, False], [Fraction(2)]])
    def test_rejects_parts_that_are_not_ints(self, parts):
        """No part is rounded, parsed or read as a bool: a partition is exact."""
        with pytest.raises(TypeError, match=r"^parts must be ints, got "):
            P(parts)

    def test_size_length(self):
        lam = P([4, 4, 2, 1])
        assert lam.size == 11 and lam.length == 4

    def test_immutable_and_hashable(self):
        lam = P([2, 1])
        for name in ("parts", "size", "extra"):
            with pytest.raises(AttributeError):
                setattr(lam, name, (3,))
        assert hash(lam) == hash(P([1, 2]))

    def test_cells_and_contains(self):
        lam = P([2, 1])
        assert set(lam.cells()) == {Cell(0, 0), Cell(0, 1), Cell(1, 0)}
        assert Cell(0, 1) in lam and Cell(1, 0) in lam
        assert Cell(1, 1) not in lam and Cell(0, 2) not in lam

    @given(partitions_st)
    @settings(max_examples=200)
    def test_conjugate_involution(self, lam):
        assert lam.conjugate().conjugate() == lam

    def test_multiset_surgery(self):
        assert insert_part(P([2, 1]), 2) == P([2, 2, 1])
        assert remove_part(P([2, 1]), 1) == P([2])
        with pytest.raises(ValueError):
            remove_part(P([2, 1]), 3)

    def test_memoized_surgery_still_rejects_bad_input(self):
        lam = P([2, 1])
        assert insert_part(lam, 1) == P([2, 1, 1]) and remove_part(lam, 2) == P([1])
        # a failed call is not cached: every repeat raises again
        for _ in range(2):
            for bad in (0, -1):
                with pytest.raises(ValueError):
                    insert_part(lam, bad)
            for absent in (3, 0):
                with pytest.raises(ValueError):
                    remove_part(lam, absent)
        with pytest.raises(ValueError):
            remove_part(P([]), 1)

    @given(st.lists(st.integers(1, 9), max_size=8))
    @settings(max_examples=200)
    def test_hash_is_that_of_the_sorted_parts(self, parts):
        lam, plain = P(parts), tuple(sorted(parts, reverse=True))
        assert hash(lam) == hash(P(plain)) == hash(lam.parts) == hash(plain)
        # a validated tuple: equal to the plain tuple of its sorted parts
        assert isinstance(lam, tuple) and lam == plain and list(lam) == list(plain)


class TestEnumeration:
    def test_trivial_cases(self):
        assert enumerate_partitions(0) == [P([])]
        assert enumerate_partitions(2) == [P([2]), P([1, 1])]

    def test_reverse_lex_order(self):
        for n in range(9):
            got = [p.parts for p in enumerate_partitions(n)]
            assert got == sorted(got, reverse=True)

    def test_against_oracle(self):
        for n in range(11):
            got = enumerate_partitions(n)
            want = _oracle_partitions(n)
            assert len(got) == PARTITION_COUNTS[n]
            assert [p.parts for p in got] == want
            assert len(set(got)) == len(got)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)


class TestHooks:
    def test_spot_values(self):
        assert hook_length(P([2, 1]), Cell(0, 0)) == 3
        assert hook_length(P([1]), Cell(0, 0)) == 1
        assert hook_length(P([1, 1]), Cell(0, 0)) == 2

    def test_outside_cell_rejected(self):
        with pytest.raises(ValueError):
            hook_length(P([2, 1]), Cell(1, 1))

    def test_hook_product(self):
        assert hook_product(P([])) == 1
        assert hook_product(P([2, 1])) == 3
        assert hook_product(P([3])) == 6

    def test_hooks_positive_and_conjugation_invariant(self):
        for n in range(11):
            for lam in enumerate_partitions(n):
                assert all(hook_length(lam, c) >= 1 for c in lam.cells())
                assert hook_product(lam) == hook_product(lam.conjugate())

    def test_hook_length_formula_dimension(self):
        # sum over lam of (n!/h(lam))^2 = n!: classical cross-check
        for n in range(9):
            total = sum(
                (factorial(n) // hook_product(lam)) ** 2
                for lam in enumerate_partitions(n)
            )
            assert total == factorial(n)


class TestStepAndZ:
    def test_step_length(self):
        assert step_length(P([4, 4, 2, 1])) == 3
        assert step_length(P([])) == 0
        assert step_length(P([5, 4, 4, 4, 2, 2])) == 3

    @given(partitions_st)
    @settings(max_examples=200)
    def test_step_conjugation_invariant(self, lam):
        assert step_length(lam) == step_length(lam.conjugate())

    def test_z_factor(self):
        assert z_factor(P([1, 1])) == 2
        assert z_factor(P([2])) == 2
        assert z_factor(P([2, 1])) == 2
        assert z_factor(P([3, 3, 1])) == 18


class TestDominance:
    def test_spot_values(self):
        assert dominance_le(P([1, 1]), P([2]))
        assert not dominance_le(P([2]), P([1, 1]))
        assert dominance_le(P([2, 2]), P([3, 1]))

    def test_size_mismatch_false(self):
        assert not dominance_le(P([1]), P([2]))

    def test_partial_order_axioms(self):
        for n in range(9):
            ps = enumerate_partitions(n)
            for a in ps:
                assert dominance_le(a, a)
                for b in ps:
                    if dominance_le(a, b) and dominance_le(b, a):
                        assert a == b
                    for c in ps:
                        if dominance_le(a, b) and dominance_le(b, c):
                            assert dominance_le(a, c)


class TestCanonicalGenerators:
    def test_staircase_example(self):
        corners = canonical_generators(P([5, 4, 4, 4, 2, 2]))
        assert [(c.cell.row, c.cell.col) for c in corners] == [(0, 5), (1, 4), (4, 2), (6, 0)]
        assert [c.p for c in corners] == [1, 3, 2, None]
        assert [c.q for c in corners] == [None, 1, 2, 2]

    def test_single_box(self):
        corners = canonical_generators(P([1]))
        assert [(c.cell, c.p, c.q) for c in corners] == [
            (Cell(0, 1), 1, None),
            (Cell(1, 0), None, 1),
        ]

    def test_empty(self):
        corners = canonical_generators(P([]))
        assert len(corners) == 1 and corners[0].cell == Cell(0, 0)

    def test_corners_are_addable(self):
        # the corners, in order, are the cells that the incidence pairs of lam add
        for n in range(9):
            added: dict = {}
            for p in enumerate_incidence_pairs(n):
                added.setdefault(p.lam, []).append(p.added_cell)
            assert list(added) == enumerate_partitions(n)
            for lam, cells in added.items():
                corners = canonical_generators(lam)
                assert len(corners) == step_length(lam) + 1
                assert [c.cell for c in corners] == cells

    def test_memoized_corners_are_a_tuple_equal_to_the_diagram_oracle(self):
        for n in range(9):
            for lam in enumerate_partitions(n):
                corners = canonical_generators(lam)
                assert type(corners) is tuple
                assert list(corners) == addable_corners(lam)
