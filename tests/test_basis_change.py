import hashlib
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, clear_memos, run_cli
from oracles import (
    b3_in_b2_recursive,
    hilb_L_in_p_recursive,
    identity_rows,
    transition_json_text,
    translation_dense,
)
from nestfock import basis_change, ring, symfunc
from nestfock.basis_change import (
    CacheError,
    TransitionMatrix,
    _checksum,
    _gram,
    _gram_solve,
    _operator_matrix,
    _translation,
    b1_annihilation,
    b1_cotranslate,
    b1_creation,
    b1_in_b2,
    b1_translate,
    b2_in_b1,
    b2_in_b3,
    b3_in_b1,
    b3_in_b2,
    b3_in_b2_matrix,
    cache_load,
    cache_store,
    fixed_annihilation,
    fixed_creation,
    gram_b3,
    hilb_fixed_in_p,
    hilb_L_in_fixed,
    hilb_L_in_p,
    hilb_L_in_p_matrix,
    hilb_p_in_fixed,
    mat_inv,
    mat_mul,
    operator_keys,
    pair_keys,
    partition_keys,
    transition_matrix,
)
from nestfock.curve_classes import translate_b3
from nestfock.fock import (
    B2Key,
    FockVector,
    annihilation,
    cotranslate,
    creation,
    hilb_annihilation,
    hilb_creation,
    pair_b1,
    pair_b2,
    pair_hilb_p,
    translate,
)
from nestfock.incidence import IncidencePair, h_pair, h_plus
from nestfock.partitions import Partition, dominance_le, hook_product, remove_part, z_factor
from nestfock.ring import star_tilde

P = Partition
U = FockVector.unit


def pr(lam, mu):
    return IncidencePair(P(lam), P(mu))


def key(i, nu):
    return B2Key(i, P(nu))


def _pair_sort_key(p):
    # ascending tuple order refines the product dominance order
    return (p.lam.parts, p.mu.parts)


def gram_route(n, gram=None):
    """The oracle for M = b3_in_b1(n): the Gram solve of A Z A^T = M H M^T.

    M is triangular along the product dominance order with diagonal
    1/h_plus; ``gram`` replaces A Z A^T when given.
    """
    return _gram_solve(
        pair_keys(n),
        _pair_sort_key,
        gram_b3(n).rows if gram is None else gram,
        lambda p: Fraction(1, h_plus(p)),
        lambda p: Fraction(h_pair(p)),
    )


class TestLinearAlgebra:
    def test_inverse(self):
        rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        inv = mat_inv(rows)
        assert mat_mul(rows, inv) == identity_rows(2)

    def test_singular_rejected(self):
        with pytest.raises(ArithmeticError):
            mat_inv([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


class TestCurveInOperator:
    def test_base_cases(self):
        assert b3_in_b2(pr([], [1])) == U(key(0, []))
        assert b3_in_b2(pr([3], [4])) == U(key(3, []))
        assert b3_in_b2(pr([3], [3, 1])) == U(key(0, [3])) - U(key(3, []))

    def test_degree_two_expansions(self):
        assert b3_in_b2(pr([1, 1], [2, 1])) == U(key(1, [1])) - U(key(2, []))
        assert b3_in_b2(pr([1, 1], [1, 1, 1])) == (
            Fraction(1, 2) * U(key(0, [1, 1]))
            - Fraction(1, 2) * U(key(0, [2]))
            - U(key(1, [1]))
            + U(key(2, []))
        )

    def test_shared_part_choice_irrelevant(self):
        for n in range(6):
            for p in pair_keys(n):
                assert b3_in_b2(p) == b3_in_b2_recursive(p, True)

    @pytest.mark.parametrize("smallest_shared", [False, True])
    @pytest.mark.parametrize("n", range(9))
    def test_rows_match_the_per_key_recursion(self, n, smallest_shared):
        mat = b3_in_b2_matrix(n)
        for p in pair_keys(n):
            assert mat.expand(p) == b3_in_b2_recursive(p, smallest_shared), p

    def test_one_memo_entry_per_degree_and_choice(self, monkeypatch):
        """Each degree is built and kept once, and every shared part gives its stored row.

        The build order (length of lam, value == 0) is replayed for n <= 10:
        each step sees only the rows built before it, from every shared part
        (762 steps).  The recursion reads the lower degrees through the public name.
        """
        clear_memos()
        memo = b3_in_b2_matrix.cache_info
        a = b3_in_b2_matrix(3)
        size = memo().currsize
        assert b3_in_b2_matrix(3) is a and memo().currsize == size
        seen = []
        public = basis_change.b3_in_b2_matrix
        monkeypatch.setattr(basis_change, "b3_in_b2_matrix", lambda n: seen.append(n) or public(n))
        clear_memos()
        assert basis_change.b3_in_b2_matrix(4) == public(4)
        assert set(seen) > {4}
        monkeypatch.undo()
        clear_memos()
        steps = 0
        for n in range(11):
            rows, built = dict(zip(pair_keys(n), b3_in_b2_matrix(n).int_rows)), {}
            for p in sorted(rows, key=lambda p: (p.lam.length, p.value == 0)):
                row = rows[p]
                for m in set(p.lam.parts) & set(p.mu.parts):
                    assert basis_change._curve_row(p, m, built) == row, (p, m)
                    steps += 1
                built[p] = row
        assert steps == 762

    def test_translation_commutes_with_a(self):
        """A[translate_b3(p)] = translate(A[p]) on all 423 pairs with n <= 10."""
        pairs = [p for n in range(11) for p in pair_keys(n)]
        assert len(pairs) == 423
        for p in pairs:
            assert b3_in_b2(translate_b3(p)) == translate(b3_in_b2(p)), p

    def test_matrix_invertible(self):
        for n in range(6):
            mat = b3_in_b2_matrix(n)
            inv = mat_inv([list(r) for r in mat.rows])
            assert mat_mul([list(r) for r in mat.rows], inv) == identity_rows(len(inv))

    def test_a_and_its_inverse_are_triangular_at_the_pivots(self):
        """Pair (lam, mu) of value i pivots at (i, lam less one part i), or (0, lam) if i = 0.

        The pivots are a bijection onto the operator keys.  Row P of A ends at
        its pivot column with entry 1/prod m_j(nu)!, and column P of A^-1 = b2_in_b3
        starts at its pivot row with entry prod m_j(nu)!, both in operator-key order.
        """
        rows = cols = 0
        for n in range(11):
            keys, pairs = operator_keys(n), pair_keys(n)
            index = {k: j for j, k in enumerate(keys)}
            pivot = [
                index[key(p.value, remove_part(p.lam, p.value) if p.value else p.lam)] for p in pairs
            ]
            assert sorted(pivot) == list(range(len(keys)))
            weight = [math.prod(map(math.factorial, map(k.nu.count, set(k.nu)))) for k in keys]
            a, inverse = b3_in_b2_matrix(n), b2_in_b3(n)
            assert (a.row_keys, a.col_keys, inverse.row_keys) == (pairs, keys, keys)
            for piv, (row, d) in zip(pivot, a.int_rows):
                assert max(j for j, _ in row) == piv
                assert Fraction(dict(row)[piv], d) == Fraction(1, weight[piv])
                rows += 1
            for i, (row, d) in enumerate(inverse.int_rows):
                for j, x in row:
                    assert i >= pivot[j], (n, keys[i], pairs[j])
                    assert i > pivot[j] or Fraction(x, d) == weight[i]
                    cols += 1
        assert (rows, cols) == (423, 8693)


class TestGram:
    def test_degree_zero_and_one(self):
        assert gram_b3(0).rows == ((Fraction(1),),)
        assert gram_b3(1).rows == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))

    def test_degree_two_diagonal(self):
        g = gram_b3(2).rows
        assert [g[i][i] for i in range(4)] == [1, 3, 2, 3]

    @pytest.mark.parametrize("n", range(7))
    def test_matches_pairwise_pairing(self, n):
        exps = [b3_in_b2(p) for p in pair_keys(n)]
        assert gram_b3(n).rows == tuple(tuple(pair_b2(x, y) for y in exps) for x in exps)
        lexps = [hilb_L_in_p(lam) for lam in partition_keys(n)]
        assert _gram(hilb_L_in_p_matrix(n), z_factor).rows == tuple(
            tuple(pair_hilb_p(x, y) for y in lexps) for x in lexps
        )


class TestCurveInFixed:
    def test_degree_one(self):
        mat = b3_in_b1(1)
        assert mat.expand(pr([1], [2])) == Fraction(1, 2) * U(pr([1], [2])) - Fraction(
            1, 2
        ) * U(pr([1], [1, 1]))
        assert mat.expand(pr([1], [1, 1])) == U(pr([1], [1, 1]))

    def test_degree_two(self):
        mat = b3_in_b1(2)
        assert mat.expand(pr([2], [2, 1])) == (
            Fraction(1, 2) * U(pr([2], [2, 1]))
            - Fraction(1, 6) * U(pr([1, 1], [2, 1]))
            - Fraction(1, 3) * U(pr([1, 1], [1, 1, 1]))
        )
        assert mat.expand(pr([1, 1], [1, 1, 1])) == Fraction(1, 2) * U(pr([1, 1], [1, 1, 1]))

    def test_triangularity(self):
        for n in range(7):
            mat = b3_in_b1(n)
            for a, p in enumerate(mat.row_keys):
                for b, q in enumerate(mat.col_keys):
                    if mat.rows[a][b]:
                        assert dominance_le(q.lam, p.lam) and dominance_le(q.mu, p.mu)


class TestOperatorInFixed:
    def test_degree_one_rows(self):
        mat = b2_in_b1(1)
        assert mat.expand(key(0, [1])) == Fraction(1, 2) * U(pr([1], [2])) + Fraction(
            1, 2
        ) * U(pr([1], [1, 1]))
        assert mat.expand(key(1, [])) == Fraction(1, 2) * U(pr([1], [2])) - Fraction(
            1, 2
        ) * U(pr([1], [1, 1]))

    def test_degree_two_rows(self):
        mat = b2_in_b1(2)
        sixth = Fraction(1, 6)
        assert mat.expand(key(2, [])) == (
            sixth * U(pr([2], [3]))
            - sixth * U(pr([2], [2, 1]))
            - sixth * U(pr([1, 1], [2, 1]))
            + sixth * U(pr([1, 1], [1, 1, 1]))
        )
        assert mat.expand(key(0, [1, 1])) == (
            sixth * U(pr([2], [3]))
            + 2 * sixth * U(pr([2], [2, 1]))
            + 2 * sixth * U(pr([1, 1], [2, 1]))
            + sixth * U(pr([1, 1], [1, 1, 1]))
        )

    def test_round_trip(self):
        for n in range(7):
            prod = mat_mul(
                [list(r) for r in b1_in_b2(n).rows], [list(r) for r in b2_in_b1(n).rows]
            )
            assert prod == identity_rows(len(prod))

    @pytest.mark.parametrize("n", range(8))
    def test_translation_matches_the_dense_rows(self, n):
        """The sparse rows of T, whose content differences can be negative, against dense ones."""
        dense = translation_dense(n)
        assert _translation(n) == dense
        assert _translation(n).json_text() == dense.json_text()

    def test_pairing_transport(self):
        for n in range(7):
            mat = b2_in_b1(n)
            keys = operator_keys(n)
            images = {k: mat.expand(k) for k in keys}
            for x in keys:
                for y in keys:
                    assert pair_b2(U(x), U(y)) == pair_b1(images[x], images[y])


ROUTES = [(s, t) for s in ("b1", "b2", "b3") for t in ("b1", "b2", "b3") if s != t]


def rows_of(mat):
    return [list(r) for r in mat.rows]


class TestGaussJordanOracle:
    """Every route against dense Gauss-Jordan inversion, exactly."""

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("route", ROUTES, ids="-".join)
    def test_route_matches_oracle(self, route, n):
        source, target = route
        mat = transition_matrix(source, target, n)
        back = transition_matrix(target, source, n)
        if route == ("b2", "b1"):
            expected = mat_mul(mat_inv(rows_of(b3_in_b2_matrix(n))), gram_route(n))
        else:
            expected = mat_inv(rows_of(back))
        assert (mat.row_keys, mat.col_keys) == (back.col_keys, back.row_keys)
        assert rows_of(mat) == expected

    @given(route=st.sampled_from(ROUTES), n=st.integers(0, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_on_random_vectors(self, route, n, data):
        there = transition_matrix(*route, n)
        back = transition_matrix(route[1], route[0], n)
        dim = len(there.row_keys)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        v = FockVector(zip(there.row_keys, coeffs))
        assert back.apply(there.apply(v)) == v

    @pytest.mark.parametrize("n", range(7))
    def test_hilbert_routes_match_oracle(self, n):
        fixed_in_p = mat_mul(mat_inv(rows_of(hilb_L_in_fixed(n))), rows_of(hilb_L_in_p_matrix(n)))
        assert rows_of(hilb_fixed_in_p(n)) == fixed_in_p
        assert rows_of(hilb_p_in_fixed(n)) == mat_inv(fixed_in_p)


# rational entries with a good share of zeros, so rows and columns go empty
NONZERO = st.fractions(-9, 9, max_denominator=12).filter(bool)
ENTRIES = st.one_of(st.just(Fraction(0)), NONZERO)


def matrices(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def only_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


class TestIntegerKernels:
    """The integer-scaled kernels against the dense Fraction oracles."""

    @given(data=st.data(), shape=st.tuples(*[st.integers(0, 5)] * 3))
    @settings(max_examples=100, deadline=None)
    def test_matmul_matches_mat_mul(self, data, shape):
        r, k, c = shape
        a = TransitionMatrix("x", "y", 0, range(r), range(k), data.draw(matrices(r, k)))
        b = TransitionMatrix("y", "z", 0, range(k), range(c), data.draw(matrices(k, c)))
        product = a @ b
        # mat_mul cannot read the width of an empty b: the product is zero then
        want = mat_mul(rows_of(a), rows_of(b)) if k else [[Fraction(0)] * c for _ in range(r)]
        assert rows_of(product) == want
        assert only_fractions(product.rows)

    @given(data=st.data(), shape=st.tuples(*[st.integers(0, 5)] * 3))
    @settings(max_examples=50, deadline=None)
    def test_stored_rows_are_canonical(self, data, shape):
        """A product equals, and renders as, the matrix the constructor builds from its view."""
        r, k, c = shape
        keys = lambda size: [P([j + 1]) for j in range(size)]  # rendered by as_list
        a = TransitionMatrix("p", "q", 0, keys(r), keys(k), data.draw(matrices(r, k)))
        b = TransitionMatrix("q", "s", 0, keys(k), keys(c), data.draw(matrices(k, c)))
        product = a @ b
        rebuilt = TransitionMatrix("p", "s", 0, keys(r), keys(c), product.rows)
        assert product == rebuilt
        assert product.json_text() == rebuilt.json_text()
        for pairs, d in product.int_rows:
            assert [j for j, _ in pairs] == sorted({j for j, _ in pairs})
            assert all(x for _, x in pairs) and d > 0
            assert math.gcd(d, *[x for _, x in pairs]) == 1

    def test_unreduced_sums_are_stored_reduced(self):
        """Sums whose integers share a factor with their denominator, and sums that cancel to 0."""
        half = Fraction(1, 2)
        a = TransitionMatrix("x", "y", 0, [0, 1], [0, 1], [[half, half], [half, -half]])
        b = TransitionMatrix("y", "z", 0, [0, 1], [0, 1], [[2, 4], [2, 4]])
        product = a @ b
        assert product.int_rows == ((((0, 2), (1, 4)), 1), ((), 1))
        assert product == TransitionMatrix("x", "z", 0, [0, 1], [0, 1], [[2, 4], [0, 0]])

    @pytest.mark.parametrize("n", range(6))
    def test_kernel_matrices_are_canonical(self, n):
        built = [transition_matrix(*route, n) for route in ROUTES]
        built += [hilb_L_in_fixed(n), hilb_p_in_fixed(n)]
        for mat in built:
            rebuilt = TransitionMatrix(mat.source, mat.target, n, mat.row_keys, mat.col_keys, mat.rows)
            assert mat == rebuilt
            assert mat.json_text() == rebuilt.json_text()
        # A as the oracle builds it from the smallest shared part
        a, keys = b3_in_b2_matrix(n), operator_keys(n)
        oracle = [[b3_in_b2_recursive(p, True)[k] for k in keys] for p in a.row_keys]
        assert TransitionMatrix("b3", "b2", n, a.row_keys, keys, oracle).json_text() == a.json_text()

    def test_matmul_of_empty_matrices(self):
        empty = TransitionMatrix("x", "x", 0, [], [], [])
        assert (empty @ empty).rows == ()

    def test_matmul_keeps_tags_and_keys(self):
        a, b = b3_in_b2_matrix(3), b2_in_b1(3)
        product = a @ b
        assert (product.source, product.target, product.degree) == ("b3", "b1", 3)
        assert (product.row_keys, product.col_keys) == (a.row_keys, b.col_keys)
        assert product == b3_in_b1(3)

    def test_matmul_rejects_mismatched_inner_keys(self):
        with pytest.raises(ValueError):
            b2_in_b1(2) @ b2_in_b1(2)
        a = TransitionMatrix("x", "y", 0, ["p", "q"], ["s", "t"], identity_rows(2))
        b = TransitionMatrix("y", "z", 0, ["t", "s"], ["u"], [[Fraction(1)], [Fraction(2)]])
        with pytest.raises(ValueError):
            a @ b


class TestIntegerApplyAndGram:
    """TransitionMatrix.apply and _gram against term-by-term Fraction sums."""

    @given(data=st.data(), shape=st.tuples(st.integers(1, 5), st.integers(0, 5)))
    @settings(max_examples=100, deadline=None)
    def test_apply_matches_fraction_sum(self, data, shape):
        r, c = shape
        mat = TransitionMatrix("x", "y", 0, range(r), range(c), data.draw(matrices(r, c)))
        coeffs = data.draw(st.dictionaries(st.integers(0, r - 1), NONZERO, max_size=r))
        v = FockVector(coeffs)
        acc = {}
        for k, x in v.items():
            for col, y in zip(mat.col_keys, mat.rows[k]):
                acc[col] = acc.get(col, Fraction(0)) + x * y
        want = FockVector(acc)
        # the second call reads the rows scaled by the first
        for _ in range(2):
            image = mat.apply(v)
            assert image == want
            assert all(type(x) is Fraction and x for _, x in image.items())

    @given(data=st.data(), shape=st.tuples(st.integers(0, 5), st.integers(0, 5)))
    @settings(max_examples=100, deadline=None)
    def test_gram_matches_fraction_sum(self, data, shape):
        r, c = shape
        rows = data.draw(matrices(r, c))
        weights = data.draw(st.lists(ENTRIES, min_size=c, max_size=c))
        mat = TransitionMatrix("x", "y", 0, range(r), range(c), rows)
        want = tuple(
            tuple(sum((a[j] * weights[j] * b[j] for j in range(c)), Fraction(0)) for b in rows)
            for a in rows
        )
        gram = _gram(mat, weights.__getitem__).rows
        assert gram == want
        assert only_fractions(gram)


class TestGramRouteOracle:
    """The closed-form B and M = A B against the Gram solve they replaced."""

    @pytest.mark.parametrize("n", range(9))
    def test_closed_form_matches_gram_route(self, n):
        m = gram_route(n)
        assert rows_of(b3_in_b1(n)) == m
        assert rows_of(b2_in_b1(n)) == mat_mul(mat_inv(rows_of(b3_in_b2_matrix(n))), m)

    def test_no_route_reaches_the_gram_solve(self, monkeypatch):
        """The six routes, the Hilbert side, m_lam, s_lam and the products build with no solve.

        The Gram route, the Gauss-Jordan inverse and the dense product are
        disabled in every module that can reach them.
        """

        def refuse(*args):
            raise AssertionError("the Gram route, a generic solve or an inverse was reached")

        for module in (basis_change, ring, symfunc):
            for name in ("_gram_solve", "gram_b3", "_gram", "mat_inv", "mat_mul"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        clear_memos()
        try:
            for n in range(7):
                for route in ROUTES:
                    transition_matrix(*route, n)
                for build in (hilb_fixed_in_p, hilb_p_in_fixed, hilb_L_in_fixed):
                    build(n)
                for lam in partition_keys(n):
                    assert symfunc.m_in_p(lam) and symfunc.schur_in_p(lam)
            for n in range(4):
                x = U(operator_keys(n)[0])
                assert star_tilde(x, x)
        finally:
            clear_memos()

    def test_no_builder_goes_through_the_dense_constructor(self, monkeypatch):
        """Every builder makes its rows in the stored form, for n <= 6.

        The public constructor is refused while the routes, the identities,
        F, F^-1, X, the translation, every conjugated operator and the
        counted p -> m matrix are built.
        """

        def refuse(*args):
            raise AssertionError("a builder went through the dense constructor")

        monkeypatch.setattr(TransitionMatrix, "__new__", refuse)
        with pytest.raises(AssertionError, match="dense constructor"):
            TransitionMatrix("x", "x", 0, [], [], [])
        clear_memos()
        try:
            for n in range(7):
                for source in ("b1", "b2", "b3"):
                    for target in ("b1", "b2", "b3"):
                        transition_matrix(source, target, n)
                builds = (hilb_fixed_in_p, hilb_p_in_fixed, hilb_L_in_fixed, symfunc._p_to_m)
                for build in (*builds, basis_change._translation):
                    build(n)
                v, w = U(pair_keys(n)[0]), U(partition_keys(n)[0])
                b1_cotranslate(v, n)
                for m in range(1, 7 - n):
                    b1_creation(m, v, n)
                    fixed_creation(m, w, n)
                for m in range(1, n + 1):
                    b1_annihilation(m, v, n)
                    fixed_annihilation(m, w, n)
            assert _operator_matrix.cache_info().currsize == 6 + 2 * 2 * sum(range(1, 7))
        finally:
            monkeypatch.undo()
            clear_memos()


class TestGramSolveCheck:
    """The diagonal check catches any inconsistent off-diagonal Gram entry."""

    solve = staticmethod(gram_route)

    def test_unperturbed_gram_is_consistent(self):
        assert tuple(tuple(r) for r in self.solve(3, gram_b3(3).rows)) == b3_in_b1(3).rows

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_perturbed_off_diagonal_entry_raises(self, n):
        # The check is one scalar per row, quadratic in the perturbation, so
        # it has a blind spot at the second root: +1 on the entry -1 at
        # degree 2 only flips the sign of one entry of M.  A perturbation
        # of 1/1000 lies off every such root here.
        keys = pair_keys(n)
        order = sorted(range(len(keys)), key=lambda i: _pair_sort_key(keys[i]))
        for rank_p, ip in enumerate(order):
            for iq in order[:rank_p]:
                gram = [list(r) for r in gram_b3(n).rows]
                gram[ip][iq] += Fraction(1, 1000)
                gram[iq][ip] += Fraction(1, 1000)
                with pytest.raises(ArithmeticError, match="diagonal consistency"):
                    self.solve(n, gram)


class TestTransitionMatrixType:
    def test_identity_and_tags(self):
        mat = transition_matrix("b1", "b1", 3)
        assert mat.rows == tuple(tuple(r) for r in identity_rows(len(mat.row_keys)))
        with pytest.raises(ValueError):
            transition_matrix("b9", "b1", 1)

    def test_all_routes_compose(self):
        n = 3
        for src in ("b1", "b2", "b3"):
            for tgt in ("b1", "b2", "b3"):
                mat = transition_matrix(src, tgt, n)
                back = transition_matrix(tgt, src, n)
                prod = mat_mul([list(r) for r in mat.rows], [list(r) for r in back.rows])
                assert prod == identity_rows(len(prod))

    def test_expand_apply_consistent(self):
        mat = b2_in_b1(2)
        v = U(key(2, [])) - 3 * U(key(0, [2]))
        assert mat.apply(v) == mat.expand(key(2, [])) - 3 * mat.expand(key(0, [2]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TransitionMatrix("b1", "b1", 0, [pr([], [1])], [pr([], [1])], [[1, 2]])


def unreduced(entry: str) -> str:
    """The same fraction as entry, written with numerator and denominator doubled."""
    f = Fraction(entry)
    return f"{2 * f.numerator}/{2 * f.denominator}"


def resealed(doc: dict) -> dict:
    """doc with its checksum made valid again."""
    doc["checksum"] = _checksum({k: v for k, v in doc.items() if k != "checksum"})
    return doc


class TestRender:
    @pytest.mark.parametrize("n", range(7))
    def test_json_text_is_the_indent_two_dump(self, n):
        for route in ROUTES:
            mat = transition_matrix(*route, n)
            assert mat.json_text() == transition_json_text(mat)

    @pytest.mark.parametrize(
        "mat",
        [
            hilb_fixed_in_p(3),
            hilb_L_in_fixed(2),
            TransitionMatrix("b1", "b1", 0, [], [], []),
            TransitionMatrix("b1", "b2", 1, [pr([], [1])], [], [[]]),
        ],
        ids=["hilb-fixed", "hilb-L", "no-rows", "no-columns"],
    )
    def test_other_shapes_render_as_the_dump(self, mat):
        assert mat.json_text() == transition_json_text(mat)

    @pytest.mark.parametrize("n", range(7))
    def test_loaded_document_reuses_its_checksum_and_strings(self, n, monkeypatch):
        calls = []
        checksum = basis_change._checksum
        monkeypatch.setattr(basis_change, "_checksum", lambda p: calls.append(1) or checksum(p))
        for route in ROUTES:
            text = transition_matrix(*route, n).json_text()
            calls.clear()
            loaded = TransitionMatrix.from_json_doc(json.loads(text))
            assert loaded.json_text() == text
            assert calls == [1]  # the validation; the rendering computes none

    def test_csv_strings_of_a_loaded_document(self):
        mat = b3_in_b1(4)
        loaded = TransitionMatrix.from_json_doc(json.loads(mat.json_text()))
        assert loaded.entry_strings() == mat.entry_strings()
        assert mat.entry_strings() == tuple(tuple(str(x) for x in row) for row in mat.rows)

    @pytest.mark.parametrize("change", ["unreduced entry", "extra field", "float key", "string row"])
    def test_valid_noncanonical_document_renders_canonically(self, change):
        mat = transition_matrix("b3", "b2", 3)
        doc = json.loads(mat.json_text())
        if change == "unreduced entry":
            r, c = next((r, c) for r, row in enumerate(doc["rows"]) for c, x in enumerate(row) if "/" in x)
            doc["rows"][r][c] = unreduced(doc["rows"][r][c])
        elif change == "extra field":
            doc["note"] = "kept by the checksum, dropped by the rendering"
        elif change == "float key":
            doc["key_order"]["cols"][0]["i"] = float(doc["key_order"]["cols"][0]["i"])
        else:
            # a row of one-character entries, written as one string
            r = next(r for r, row in enumerate(doc["rows"]) if all(len(x) == 1 for x in row))
            doc["rows"][r] = "".join(doc["rows"][r])
        loaded = TransitionMatrix.from_json_doc(resealed(doc))
        assert loaded == mat
        assert loaded.json_text() == mat.json_text()
        assert loaded.to_json_doc()["checksum"] != doc["checksum"]


class TestChecksum:
    @pytest.mark.parametrize("n", range(7))
    def test_checksum_is_the_sha256_of_the_sorted_compact_payload(self, n):
        for route in ROUTES:
            doc = transition_matrix(*route, n).to_json_doc()
            payload = {k: v for k, v in doc.items() if k != "checksum"}
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            assert _checksum(payload) == hashlib.sha256(blob).hexdigest() == doc["checksum"]

    def test_hashlib_gives_the_same_digest_without_the_builtin_module(self, monkeypatch):
        payload = b2_in_b1(3).payload()
        expected = _checksum(payload)
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(1) or sha256(data))
        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        assert _checksum(payload) == expected
        assert calls == [1]

    @pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
    def test_damaged_document_raises_cache_error(self, tmp_path, monkeypatch, builtin):
        path = cache_store(b2_in_b1(3), tmp_path)
        doc = json.loads(path.read_text())
        doc["rows"][1][0] = unreduced("5/7") if doc["rows"][1][0] == "5/7" else "5/7"
        path.write_text(json.dumps(doc, indent=2))
        if not builtin:
            monkeypatch.setitem(sys.modules, "_sha256", None)
            monkeypatch.setitem(sys.modules, "_sha2", None)
        with pytest.raises(CacheError, match="checksum"):
            cache_load("b2", "b1", 3, tmp_path)


class TestHilbertSide:
    def test_curve_in_p(self):
        assert hilb_L_in_p(P([])) == U(P([]))
        assert hilb_L_in_p(P([3])) == U(P([3]))
        assert hilb_L_in_p(P([1, 1])) == Fraction(1, 2) * U(P([1, 1])) - Fraction(
            1, 2
        ) * U(P([2]))

    @pytest.mark.parametrize("n", range(10))
    def test_curve_in_p_matches_recursion(self, n):
        for lam in partition_keys(n):
            assert hilb_L_in_p(lam) == hilb_L_in_p_recursive(lam), lam

    @pytest.mark.parametrize("n", range(9))
    def test_curve_keys_of_positive_value_have_no_creation_terms(self, n):
        """Only the keys of value 0 reach the terms (0, nu) that hilb_L_in_p reads."""
        for p in pair_keys(n):
            if p.value > 0:
                assert all(k.i for k in b3_in_b2(p).keys()), p

    def test_fixed_in_p(self):
        mat = hilb_fixed_in_p(2)
        assert mat.expand(P([2])) == U(P([1, 1])) + U(P([2]))
        assert mat.expand(P([1, 1])) == U(P([1, 1])) - U(P([2]))
        assert hilb_fixed_in_p(1).expand(P([1])) == U(P([1]))

    @pytest.mark.parametrize("n", range(9))
    def test_closed_form_matches_gram_route(self, n):
        """The character-table routes equal the Gram solve over the curve classes.

        The oracle factors G = L Z L^T as X diag(h^2) X^T with X triangular
        along the ascending order of the parts and diagonal 1/h, then gets
        F from X F = L by the Gauss-Jordan inverse of X.
        """
        keys = partition_keys(n)
        curves = hilb_L_in_p_matrix(n)
        x = _gram_solve(
            keys,
            lambda lam: lam.parts,
            _gram(curves, z_factor).rows,
            lambda lam: Fraction(1, hook_product(lam)),
            lambda lam: Fraction(hook_product(lam)) ** 2,
        )
        f = mat_mul(mat_inv(x), rows_of(curves))
        assert rows_of(hilb_L_in_fixed(n)) == x
        assert rows_of(hilb_fixed_in_p(n)) == f
        assert rows_of(hilb_p_in_fixed(n)) == mat_inv(f)


def two_apply_route(op, v, n, n_out, to_ops, to_fixed):
    """The oracle: carry v to the operator basis, apply op, carry the image back."""
    if not v or n_out < 0:
        return FockVector()
    w = op(to_ops(n).apply(v))
    return to_fixed(n_out).apply(w) if w else FockVector()


class TestConjugatedOperators:
    @pytest.mark.parametrize("n", range(6))
    def test_translation_pair_matches_two_apply_route(self, n):
        for k in pair_keys(n):
            v = U(k)
            assert b1_translate(v, n) == two_apply_route(translate, v, n, n + 1, b1_in_b2, b2_in_b1)
            assert b1_cotranslate(v, n) == two_apply_route(
                cotranslate, v, n, n - 1, b1_in_b2, b2_in_b1
            )

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_indexed_operators_match_two_apply_route(self, n, m):
        incidence = (b1_in_b2, b2_in_b1)
        hilbert = (hilb_fixed_in_p, hilb_p_in_fixed)
        cases = [
            (b1_creation, creation, n + m, pair_keys, incidence),
            (fixed_creation, hilb_creation, n + m, partition_keys, hilbert),
        ]
        if n >= m:
            cases += [
                (b1_annihilation, annihilation, n - m, pair_keys, incidence),
                (fixed_annihilation, hilb_annihilation, n - m, partition_keys, hilbert),
            ]
        for conjugated, op, n_out, keys, routes in cases:
            for k in keys(n):
                v = U(k)
                want = two_apply_route(lambda w: op(m, w), v, n, n_out, *routes)
                assert conjugated(m, v, n) == want, (conjugated.__name__, k)

    def test_each_matrix_is_built_once(self):
        _operator_matrix.cache_clear()
        keys = pair_keys(3)
        for k in keys:
            b1_creation(1, U(k), 3)
        info = _operator_matrix.cache_info()
        assert (info.misses, info.hits) == (1, len(keys) - 1)
        for k in keys:
            b1_creation(1, U(k), 3)
            b1_creation(2, U(k), 3)
            b1_cotranslate(U(k), 3)
        info = _operator_matrix.cache_info()
        assert (info.misses, info.hits) == (3, 4 * len(keys) - 3)
        assert info.currsize == 3

    def test_zero_vector_and_negative_degree_build_nothing(self):
        _operator_matrix.cache_clear()
        assert b1_creation(1, FockVector(), 2) == FockVector()
        assert b1_annihilation(3, U(pr([1, 1], [2, 1])), 2) == FockVector()
        assert b1_cotranslate(U(pr([], [1])), 0) == FockVector()
        assert _operator_matrix.cache_info().misses == 0


class TestCache:
    def test_round_trip(self, tmp_path):
        mat = b2_in_b1(3)
        assert cache_load("b2", "b1", 3, tmp_path) is None
        cache_store(mat, tmp_path)
        loaded = cache_load("b2", "b1", 3, tmp_path)
        assert loaded == mat
        assert loaded.json_text() == mat.json_text()
        assert loaded._view is None  # a load and its render build no Fraction view

    def test_tampered_checksum_rejected(self, tmp_path):
        path = cache_store(b2_in_b1(1), tmp_path)
        doc = json.loads(path.read_text())
        doc["rows"][0][0] = "7/3"
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError):
            cache_load("b2", "b1", 1, tmp_path)

    def test_version_mismatch_is_miss(self, tmp_path):
        path = cache_store(b2_in_b1(1), tmp_path)
        doc = json.loads(path.read_text())
        doc["version"] = "0.0.0"
        path.write_text(json.dumps(doc))
        assert cache_load("b2", "b1", 1, tmp_path) is None

    @pytest.mark.parametrize("doc", [{}, {"version": 1}], ids=["absent", "not_a_string"])
    def test_document_without_a_version_string_is_damaged(self, tmp_path, doc):
        (tmp_path / "b1--b2--1.json").write_text(json.dumps(doc))
        with pytest.raises(CacheError, match="malformed cache file"):
            cache_load("b1", "b2", 1, tmp_path)

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["regular_file", "path_under_a_file"])
    def test_unusable_cache_directory_is_a_cache_error(self, tmp_path, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(CacheError, match="^cannot write cache file"):
            cache_store(b2_in_b1(1), blocker / sub if sub else blocker)
        assert blocker.read_text() == "" and sorted(tmp_path.iterdir()) == [blocker]

    def test_failed_replace_is_a_cache_error_and_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "b2--b1--1.json").mkdir()  # the target is a directory: os.replace fails
        with pytest.raises(CacheError, match="^cannot write cache file"):
            cache_store(b2_in_b1(1), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["b2--b1--1.json"]

    @pytest.mark.parametrize(
        "text", [b"\xff\xfe", b"[" * 100_000], ids=["not_utf8", "nested_too_deep"]
    )
    def test_undecodable_document_is_unreadable(self, tmp_path, text):
        (tmp_path / "b2--b1--1.json").write_bytes(text)
        with pytest.raises(CacheError, match="^unreadable cache file"):
            cache_load("b2", "b1", 1, tmp_path)

    def test_cache_directory_name_too_long_is_a_cache_error(self, tmp_path):
        with pytest.raises(CacheError, match="^unreadable cache file"):
            cache_load("b2", "b1", 1, tmp_path / ("x" * 5000))

    def test_cache_directory_under_a_regular_file_is_a_miss(self, tmp_path):
        (tmp_path / "blocker").write_text("")
        assert cache_load("b2", "b1", 1, tmp_path / "blocker") is None

    def test_concurrent_writers_leave_a_valid_document(self, tmp_path):
        script = (
            "import sys\n"
            "from nestfock.basis_change import b2_in_b1, cache_store\n"
            "mat = b2_in_b1(4)\n"
            "for _ in range(40):\n"
            "    cache_store(mat, sys.argv[1])\n"
        )
        writers = [
            subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=child_env())
            for _ in range(2)
        ]
        mat = b2_in_b1(4)
        deadline = time.monotonic() + 60
        try:
            while any(w.poll() is None for w in writers):
                assert time.monotonic() < deadline, "writers did not finish"
                # a partly written document would raise CacheError here
                loaded = cache_load("b2", "b1", 4, tmp_path)
                assert loaded is None or loaded == mat
        finally:
            for w in writers:
                if w.poll() is None:
                    w.kill()
        assert [w.wait(timeout=10) for w in writers] == [0, 0]
        assert cache_load("b2", "b1", 4, tmp_path) == mat
        assert [p.name for p in tmp_path.iterdir()] == ["b2--b1--4.json"]

    @pytest.mark.parametrize(
        "name, route",
        [("b2--b1--3.json", ("b2", "b1", 3)), ("b1--b2--2.json", ("b1", "b2", 2))],
    )
    def test_misplaced_document_rejected(self, tmp_path, name, route):
        path = cache_store(b2_in_b1(2), tmp_path)
        (tmp_path / name).write_text(path.read_text())
        with pytest.raises(CacheError, match="is not the"):
            cache_load(*route, tmp_path)

    @pytest.mark.parametrize("n", range(8))
    def test_every_document_parses_to_the_fractions_of_its_strings(self, n):
        for route in ROUTES:
            doc = json.loads(json.dumps(transition_matrix(*route, n).to_json_doc()))
            loaded = TransitionMatrix.from_json_doc(doc)
            assert loaded == transition_matrix(*route, n)
            assert loaded.rows == tuple(tuple(Fraction(x) for x in row) for row in doc["rows"])
            assert only_fractions(loaded.rows)

    @pytest.mark.parametrize("entry", ["1/0", "abc", "1.5/2", "1/-2", "", None, [1]])
    def test_checksum_valid_bad_entry_raises_as_fraction_does(self, entry):
        doc = b2_in_b1(2).to_json_doc()
        doc["rows"][1][0] = entry
        doc["checksum"] = _checksum({k: v for k, v in doc.items() if k != "checksum"})
        with pytest.raises(Exception) as expected:
            Fraction(entry)
        with pytest.raises(expected.type):
            TransitionMatrix.from_json_doc(doc)

    @pytest.mark.parametrize("entry", ["1/0", "abc", None, [1]])
    def test_checksum_valid_bad_entry_in_cache_dir_raises_cache_error(self, tmp_path, entry):
        doc = b2_in_b1(2).to_json_doc()
        doc["rows"][1][0] = entry
        doc["checksum"] = _checksum({k: v for k, v in doc.items() if k != "checksum"})
        (tmp_path / "b2--b1--2.json").write_text(json.dumps(doc))
        with pytest.raises(CacheError, match="malformed"):
            cache_load("b2", "b1", 2, tmp_path)

    def test_float_degree_rejected(self, tmp_path):
        """A resealed document with "n": 2.0 is not the degree-2 matrix, for the CLI either."""
        doc = b2_in_b1(2).to_json_doc()
        doc["n"] = 2.0
        (tmp_path / "b2--b1--2.json").write_text(json.dumps(resealed(doc)))
        with pytest.raises(CacheError, match="is not the"):
            cache_load("b2", "b1", 2, tmp_path)
        args = ("transition", "--from", "b2", "--to", "b1", "-n", "2", "--cache-dir", str(tmp_path))
        res = run_cli(*args, cwd=tmp_path)
        assert (res.returncode, res.stdout) == (1, "")
        assert "is not the b2->b1 matrix at n=2" in res.stderr

    def test_non_integral_operator_index_rejected(self, tmp_path):
        doc = b2_in_b1(2).to_json_doc()
        doc["key_order"]["rows"][0]["i"] = 2.5
        (tmp_path / "b2--b1--2.json").write_text(json.dumps(resealed(doc)))
        with pytest.raises(CacheError, match="malformed"):
            cache_load("b2", "b1", 2, tmp_path)

    @pytest.mark.parametrize("change", ["reversed keys", "foreign key", "truncated index"])
    def test_keys_outside_the_key_books_rejected(self, tmp_path, change):
        """Row keys reordered, or one of them of degree 4, are not the keys of the degree-2 matrix."""
        doc = b2_in_b1(2).to_json_doc()
        rows = doc["key_order"]["rows"]
        if change != "foreign key":
            rows.reverse()
            doc["rows"].reverse()
        if change != "reversed keys":  # (0, [1, 1]) read as the degree-4 key (2, [1, 1])
            next(k for k in rows if k["nu"] == [1, 1])["i"] = 2 if change == "foreign key" else 2.7
        (tmp_path / "b2--b1--2.json").write_text(json.dumps(resealed(doc)))
        with pytest.raises(CacheError):
            cache_load("b2", "b1", 2, tmp_path)

    def test_integral_float_index_loads(self, tmp_path):
        mat = b2_in_b1(2)
        doc = mat.to_json_doc()
        doc["key_order"]["rows"][0]["i"] = 2.0
        (tmp_path / "b2--b1--2.json").write_text(json.dumps(resealed(doc)))
        loaded = cache_load("b2", "b1", 2, tmp_path)
        assert loaded == mat and loaded.json_text() == mat.json_text()

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "b2--b1--1.json"
        path.write_text("not json {")
        with pytest.raises(CacheError):
            cache_load("b2", "b1", 1, tmp_path)
