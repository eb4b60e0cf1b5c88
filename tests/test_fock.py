from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestfock.fock import (
    B2Key,
    FockVector,
    annihilation,
    b2_keys,
    cotranslate,
    creation,
    loop_action,
    pair_b1,
    pair_b2,
    pair_hilb_fixed,
    pair_hilb_p,
    translate,
    vector_degree,
    b2_degree,
)
from nestfock.incidence import IncidencePair, enumerate_incidence_pairs
from nestfock.partitions import Partition

P = Partition
U = FockVector.unit


def key(i, nu):
    return B2Key(i, P(nu))


VACUUM = U(key(0, []))


class TestFockVector:
    def test_zero_coefficients_dropped(self):
        v = FockVector([(key(0, [1]), Fraction(1)), (key(0, [1]), Fraction(-1))])
        assert not v and len(v) == 0

    def test_algebra(self):
        a, b = U(key(0, [1])), U(key(1, []))
        v = 2 * a - b
        assert v[key(0, [1])] == 2 and v[key(1, [])] == -1
        assert v - v == FockVector.zero()
        assert (v * Fraction(1, 2))[key(0, [1])] == 1
        assert -v + v == FockVector()

    @pytest.mark.parametrize("inexact", [0.1, "1/3", 1.0, None])
    def test_only_ints_and_fractions_are_coefficients(self, inexact):
        with pytest.raises(TypeError):
            FockVector([(key(0, []), inexact)])
        with pytest.raises(TypeError):
            U(key(0, [])) * inexact
        with pytest.raises(TypeError):
            inexact * U(key(0, []))
        assert FockVector([(key(0, []), 3)]) * Fraction(1, 3) == U(key(0, []))

    def test_immutable(self):
        v = U(key(0, []))
        with pytest.raises(AttributeError):
            v._terms = {}

    def test_degree_helper(self):
        assert vector_degree(U(key(2, [1])), b2_degree) == 3
        with pytest.raises(ValueError):
            vector_degree(U(key(0, [])) + U(key(1, [])), b2_degree)


COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))
VECTORS = st.dictionaries(
    st.builds(key, st.integers(0, 2), st.sampled_from([[], [1], [2], [1, 1]])), COEFFS, max_size=6
).map(FockVector)


def stored(v):
    """True if v stores only nonzero Fraction coefficients."""
    return all(type(c) is Fraction and c for _, c in v.items())


class TestVectorStorage:
    @given(v=VECTORS, w=VECTORS, c=COEFFS)
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_stores_only_nonzero_fractions(self, v, w, c):
        merged = FockVector([*v.items(), *w.items()])
        for u in (v, w, v - v, v + w, v - w, -v, c * v, v * c, merged):
            assert stored(u)
        assert not v - v
        assert v - w == v + (-w)
        assert merged == v + w
        assert (v + w)[key(0, [1])] == v[key(0, [1])] + w[key(0, [1])]
        assert (c * v)[key(1, [])] == c * v[key(1, [])]


class TestMapKeys:
    def test_injective_relabel_keeps_coefficients(self):
        v = 2 * U(key(0, [1])) - U(key(1, []))
        w = v.map_keys(lambda k: B2Key(k.i + 3, k.nu))
        assert w == 2 * U(key(3, [1])) - U(key(4, []))
        assert stored(w)

    def test_colliding_keys_merge_and_cancel(self):
        v = U(key(0, [1])) + 2 * U(key(0, [2])) - U(key(0, [1, 1, 1]))
        # [1] and [1, 1, 1] both go to 1 and cancel; [2] goes to 0
        w = v.map_keys(lambda k: k.nu.size % 2)
        assert w == FockVector({0: 2}) and len(w) == 1
        assert stored(w)
        merged = (U(key(0, [1])) + U(key(1, []))).map_keys(lambda k: "one")
        assert merged == FockVector({"one": 2}) and stored(merged)


class TestOperators:
    def test_creation(self):
        assert creation(2, VACUUM) == U(key(0, [2]))
        assert creation(1, U(key(0, [1]))) == U(key(0, [1, 1]))
        assert creation(1, U(key(3, [2]))) == U(key(3, [2, 1]))
        with pytest.raises(ValueError):
            creation(0, VACUUM)

    def test_annihilation(self):
        assert annihilation(1, U(key(0, [1]))) == VACUUM
        assert annihilation(2, U(key(0, [2, 2]))) == 4 * U(key(0, [2]))
        assert annihilation(3, U(key(1, [2]))) == FockVector.zero()
        with pytest.raises(ValueError):
            annihilation(-1, VACUUM)

    def test_translation(self):
        assert translate(VACUUM) == U(key(1, []))
        assert cotranslate(U(key(1, [1]))) == U(key(0, [1]))
        assert cotranslate(U(key(0, [2]))) == FockVector.zero()

    def test_translation_identities(self):
        for d in range(7):
            for k in b2_keys(d):
                v = U(k)
                assert cotranslate(translate(v)) == v
                back = translate(cotranslate(v))
                assert back == (v if k.i >= 1 else FockVector.zero())

    def test_loop_action(self):
        assert loop_action(2, -1, VACUUM) == U(key(2, [1]))
        assert loop_action(0, 0, U(key(1, [2]))) == FockVector.zero()
        assert loop_action(1, 1, U(key(0, [1]))) == U(key(1, []))
        with pytest.raises(ValueError):
            loop_action(-1, 1, VACUUM)

    def test_heisenberg_relation(self):
        keys = [k for d in range(9) for k in b2_keys(d)]
        for p in range(1, 6):
            for q in range(1, 6):
                for k in keys:
                    v = U(k)
                    lhs = annihilation(p, creation(q, v)) - creation(q, annihilation(p, v))
                    want = p * v if p == q else FockVector.zero()
                    assert lhs == want, (p, q, k)
                    # creation operators commute among themselves
                    assert creation(p, creation(q, v)) == creation(q, creation(p, v))
                    assert annihilation(p, annihilation(q, v)) == annihilation(
                        q, annihilation(p, v)
                    )

    def test_loop_bracket(self):
        keys = [k for d in range(5) for k in b2_keys(d)]
        for j1 in range(2):
            for j2 in range(2):
                for p in (-2, -1, 1, 2):
                    for q in (-2, -1, 1, 2):
                        for k in keys:
                            v = U(k)
                            lhs = loop_action(j1, p, loop_action(j2, q, v)) - loop_action(
                                j2, q, loop_action(j1, p, v)
                            )
                            want = (
                                Fraction(p) * U(B2Key(k.i + j1 + j2, k.nu))
                                if p == -q
                                else FockVector.zero()
                            )
                            assert lhs == want


class TestPairings:
    def test_pair_b2(self):
        assert pair_b2(VACUUM, VACUUM) == 1
        v = U(key(0, [1, 1]))
        assert pair_b2(v, v) == 2
        assert pair_b2(U(key(1, [1])), U(key(0, [2]))) == 0

    def test_pair_b1(self):
        p12 = U(IncidencePair(P([1]), P([2])))
        p111 = U(IncidencePair(P([1]), P([1, 1])))
        vac = U(IncidencePair(P([]), P([1])))
        assert pair_b1(vac, vac) == 1
        assert pair_b1(p12, p12) == 2
        assert pair_b1(p12, p111) == 0

    def test_pair_hilb(self):
        two = U(P([2]))
        assert pair_hilb_fixed(two, two) == 4
        assert pair_hilb_fixed(two, U(P([1, 1]))) == 0
        assert pair_hilb_p(U(P([2, 1])), U(P([2, 1]))) == 2

    def test_adjointness(self):
        for d in range(6):
            for m in range(1, 4):
                for ka in b2_keys(d):
                    for kb in b2_keys(d + m):
                        v, w = U(ka), U(kb)
                        assert pair_b2(creation(m, v), w) == pair_b2(v, annihilation(m, w))
            for ka in b2_keys(d):
                for kb in b2_keys(d + 1):
                    v, w = U(ka), U(kb)
                    assert pair_b2(translate(v), w) == pair_b2(v, cotranslate(w))

    def test_dimension_matches_incidence(self):
        for n in range(13):
            assert len(b2_keys(n)) == len(enumerate_incidence_pairs(n))
