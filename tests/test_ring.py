from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestfock import ring
from nestfock.basis_change import (
    b1_creation,
    b1_in_b2,
    b2_in_b1,
    fixed_creation,
    operator_keys,
    pair_keys,
)
from nestfock.fock import B2Key, FockVector, pair_b1, pair_b2, pair_hilb_fixed
from nestfock.curve_classes import add_part
from nestfock.incidence import IncidencePair, derive_lambda, h_pair
from nestfock.partitions import Partition, canonical_generators, enumerate_partitions, hook_product
from conftest import clear_memos
from oracles import product_table_by_pairs
from nestfock.ring import (
    OrdinaryClass,
    ordinary_cup,
    ordinary_unit,
    ordinary_unit_scale,
    product_table,
    pullback_f,
    pullback_g,
    star_b1,
    star_hilb,
    star_tilde,
)
P = Partition
U = FockVector.unit


def pr(lam, mu):
    return IncidencePair(P(lam), P(mu))


def key(i, nu):
    return B2Key(i, P(nu))


class TestStarProducts:
    def test_star_b1_spot(self):
        vac = U(pr([], [1]))
        assert star_b1(vac, vac, 0) == -1 * vac
        p12 = U(pr([1], [2]))
        assert star_b1(p12, p12, 1) == 2 * p12
        assert star_b1(p12, U(pr([1], [1, 1])), 1) == FockVector.zero()

    def test_star_b1_degree_check(self):
        with pytest.raises(ValueError):
            star_b1(U(pr([], [1])), U(pr([], [1])), 1)
        with pytest.raises(ValueError):
            star_hilb(U(P([1])), U(P([1])), 2)

    def test_star_tilde_spot(self):
        a1 = U(key(0, [1]))
        t1 = U(key(1, []))
        assert star_tilde(a1, a1) == a1
        assert star_tilde(t1, t1) == a1
        assert star_tilde(U(key(0, [1, 1])), U(key(2, []))) == -2 * U(key(2, []))

    def test_star_tilde_degree_mismatch(self):
        with pytest.raises(ValueError):
            star_tilde(U(key(0, [1])), U(key(2, [])))

    def test_star_hilb_spot(self):
        one = U(P([1]))
        assert star_hilb(one, one, 1) == -1 * one
        two = U(P([2]))
        assert star_hilb(two, two, 2) == 4 * two

    def test_normalized_diagonal_law(self):
        for n in range(5):
            for lam in enumerate_partitions(n):
                sigma = Fraction(1, hook_product(lam)) * U(lam)
                prod = star_hilb(sigma, sigma, n)
                assert prod == Fraction((-1) ** n) * hook_product(lam) * sigma


def table_star(v, w, n):
    """Oracle: the operator-basis product from the b2 structure constants, by bilinearity."""
    keys = operator_keys(n)
    every = range(len(keys))
    consts = {}
    for a, b, c, coeff in product_table("b2", n, every, every):
        consts.setdefault((keys[a], keys[b]), []).append((keys[c], Fraction(coeff)))
    return FockVector(
        (k, x * y * coeff)
        for ka, x in v.items()
        for kb, y in w.items()
        for k, coeff in consts.get((ka, kb), ())
    )


class TestStarTildeContraction:
    """star_tilde, the transport through the fixed points, against the b2
    structure constants of product_table summed by bilinearity."""

    @pytest.mark.parametrize("n", range(5))
    def test_matches_transport_on_basis_pairs(self, n):
        keys = operator_keys(n)
        for a in keys:
            for b in keys:
                assert star_tilde(U(a), U(b)) == table_star(U(a), U(b), n)

    @given(n=st.integers(0, 5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_transport_on_random_vectors(self, n, data):
        keys = operator_keys(n)
        coeffs = st.lists(st.integers(-3, 3), min_size=len(keys), max_size=len(keys))
        v = FockVector(zip(keys, data.draw(coeffs)))
        w = FockVector(zip(keys, data.draw(coeffs)))
        assert star_tilde(v, w) == table_star(v, w, n)

    def test_rational_coefficients(self):
        v = Fraction(1, 3) * U(key(0, [1, 1])) - Fraction(5, 2) * U(key(1, [1]))
        w = Fraction(-7, 4) * U(key(2, [])) + 2 * U(key(0, [2]))
        assert star_tilde(v, w) == table_star(v, w, 2)

    @pytest.mark.parametrize("n", range(5))
    def test_commutative_and_frobenius(self, n):
        basis = [U(k) for k in operator_keys(n)]
        table = {(i, j): star_tilde(a, b) for i, a in enumerate(basis) for j, b in enumerate(basis)}
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert table[i, j] == table[j, i]
                for k, c in enumerate(basis):
                    assert pair_b2(table[i, j], c) == pair_b2(a, table[j, k])


def table_keys(basis, n):
    return pair_keys(n) if basis == "b1" else operator_keys(n)


class TestProductTable:
    """product_table against one full product per ordered pair (tests/oracles.py)."""

    @pytest.mark.parametrize(
        "basis, n", [("b2", n) for n in range(7)] + [(b, n) for b in ("b1", "ordinary") for n in range(8)]
    )
    def test_full_table_matches_oracle(self, basis, n):
        every = range(len(table_keys(basis, n)))
        table = list(product_table(basis, n, every, every))
        assert table == product_table_by_pairs(basis, n, every, every)

    @pytest.mark.parametrize("basis", ["b1", "b2", "ordinary"])
    @pytest.mark.parametrize("n", range(5))
    def test_selections_match_oracle(self, basis, n):
        every = range(len(table_keys(basis, n)))
        selections = [(every, [j]) for j in every] + [([i], every) for i in every]
        selections += [([i], [j]) for i in every for j in every]
        for lefts, rights in selections:
            table = list(product_table(basis, n, lefts, rights))
            assert table == product_table_by_pairs(basis, n, lefts, rights)

    @pytest.mark.parametrize("basis", ["b2", "ordinary"])
    @pytest.mark.parametrize("n", range(6))
    def test_each_needed_sorted_triple_is_contracted_once(self, basis, n, monkeypatch):
        # every contraction is one call of sum in ring; the table must make one
        # per sorted triple it needs, whatever order it meets the triple in,
        # and a second table of the same degree reads them all from the memo
        clear_memos()
        calls = []
        monkeypatch.setattr(ring, "sum", lambda xs: calls.append(1) or sum(xs), raising=False)
        keys = operator_keys(n)
        every = range(len(keys))
        list(product_table(basis, n, every, every))
        length = lambda a: keys[a].nu.length
        needed = {
            tuple(sorted((a, b, c)))
            for a in every
            for b in every
            for c in every
            if basis == "b2" or length(c) == length(a) + length(b) - n
        }
        assert len(calls) == len(needed)
        calls.clear()
        list(product_table(basis, n, every, every))
        assert not calls


class TestOrdinaryClass:
    def test_degree_validation(self):
        with pytest.raises(ValueError, match=r"^key B2Key\(i=0, nu=Partition\(\[1\]\)\) has degree 1, expected 2$"):
            OrdinaryClass(2, U(key(0, [1])))
        # a validated tuple: equal to the plain tuple (n, vec), and immutable
        vec = U(key(0, [1, 1])) + U(key(2, []))
        cls = OrdinaryClass(2, vec)
        assert isinstance(cls, tuple) and cls == (2, vec) and cls.n == 2 and cls.vec is vec
        assert cls != OrdinaryClass(2, 2 * vec)
        for name in ("n", "vec", "extra"):
            with pytest.raises(AttributeError):
                setattr(cls, name, 0)

    def test_ordinary_degrees(self):
        cls = OrdinaryClass(2, U(key(0, [1, 1])) + U(key(2, [])))
        assert cls.ordinary_degrees() == {0, 4}


class TestOrdinaryCup:
    def test_degree_one_table(self):
        orda = OrdinaryClass(1, U(key(0, [1])))
        ordt = OrdinaryClass(1, U(key(1, [])))
        assert ordinary_cup(orda, ordt) == ordt
        assert not ordinary_cup(ordt, ordt).vec

    def test_degree_two_example(self):
        a11 = OrdinaryClass(2, U(key(0, [1, 1])))
        t2 = OrdinaryClass(2, U(key(2, [])))
        assert ordinary_cup(a11, t2) == 2 * t2

    def test_bilinearity_on_mixed_classes(self):
        a = OrdinaryClass(2, U(key(0, [1, 1])) + 3 * U(key(1, [1])))
        b = OrdinaryClass(2, U(key(2, [])))
        split = ordinary_cup(OrdinaryClass(2, U(key(0, [1, 1]))), b) + 3 * ordinary_cup(
            OrdinaryClass(2, U(key(1, [1]))), b
        )
        assert ordinary_cup(a, b) == split

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ordinary_cup(OrdinaryClass(1, U(key(1, []))), OrdinaryClass(2, U(key(2, []))))

    def test_unit(self):
        assert ordinary_unit(0) == OrdinaryClass(0, U(key(0, [])))
        assert ordinary_unit(1) == OrdinaryClass(1, U(key(0, [1])))
        assert ordinary_unit(2) == OrdinaryClass(2, Fraction(1, 2) * U(key(0, [1, 1])))
        assert [ordinary_unit_scale(n) for n in range(4)] == [1, 1, 2, 6]
        for n in range(4):
            unit = ordinary_unit(n)
            for k in operator_keys(n):
                x = OrdinaryClass(n, U(k))
                assert ordinary_cup(unit, x) == x


class TestPullbacks:
    def test_pullback_f_vacuum(self):
        assert pullback_f(U(P([]))) == -1 * U(pr([], [1]))

    def test_pullback_f_point(self):
        got = pullback_f(U(P([1])))
        assert got == -Fraction(1, 2) * U(pr([1], [2])) - Fraction(1, 2) * U(pr([1], [1, 1]))

    def test_pullback_g_spot(self):
        assert pullback_g(U(P([2]))) == 2 * U(pr([1], [2]))
        half = Fraction(1, 2)
        got = pullback_g(half * U(P([2])) - half * U(P([1, 1])))
        assert got == U(pr([1], [2])) - U(pr([1], [1, 1]))
        assert got == 2 * b2_in_b1(1).apply(U(key(1, [])))

    def test_partners_are_those_of_the_corners_and_of_the_parts(self):
        # the key-book partners against the construction from mu alone: f adds each
        # corner (raises one part c, or appends a part 1), g lowers each distinct part
        for size in range(9):
            for mu in enumerate_partitions(size):
                h2 = hook_product(mu) ** 2
                f = {IncidencePair(mu, add_part(mu, c.cell.col, 1)) for c in canonical_generators(mu)}
                assert set(ring._pullback_image(mu, True)) == {(p, -Fraction(h2, h_pair(p))) for p in f}
                if size:  # g starts from one point at least
                    g = {IncidencePair(derive_lambda(mu, i), mu) for i in set(mu)}
                    assert set(ring._pullback_image(mu, False)) == {(p, Fraction(h2, h_pair(p))) for p in g}

    def test_pullback_g_rejects_empty(self):
        with pytest.raises(ValueError):
            pullback_g(U(P([])))

    def test_creation_intertwining_small(self):
        for m in (1, 2):
            for d in range(3):
                for lam in enumerate_partitions(d):
                    v = U(lam)
                    assert pullback_f(fixed_creation(m, v, d)) == b1_creation(
                        m, pullback_f(v), d
                    )

    def test_ring_homomorphism_small(self):
        for n in range(4):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    x, y = U(lam), U(mu)
                    assert pullback_f(star_hilb(x, y, n)) == star_b1(
                        pullback_f(x), pullback_f(y), n
                    )

    def test_bilinear_transport_small(self):
        for n in range(4):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    x, y = U(lam), U(mu)
                    assert pair_b1(pullback_f(x), pullback_f(y)) == pair_hilb_fixed(x, y)
            for lam in enumerate_partitions(n + 1):
                for mu in enumerate_partitions(n + 1):
                    x, y = U(lam), U(mu)
                    assert pair_b1(pullback_g(x), pullback_g(y)) == (
                        n + 1
                    ) * pair_hilb_fixed(x, y)

    def test_global_sign_against_symmetric_functions(self):
        # the comparison map composed with the two dictionaries carries
        # one overall minus sign: the image of any n-point class equals
        # minus its power-sum expansion placed in v-degree 0
        from nestfock.basis_change import hilb_fixed_in_p
        from nestfock.symfunc import PolyVKey, phi, phi_tilde

        for n in range(5):
            for lam in enumerate_partitions(n):
                image = phi_tilde(b1_in_b2(n).apply(pullback_f(U(lam))))
                plain = phi(hilb_fixed_in_p(n).apply(U(lam))).map_keys(
                    lambda nu: PolyVKey(nu, 0)
                )
                assert image == -1 * plain
