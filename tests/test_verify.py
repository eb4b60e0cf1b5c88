import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_memos
from oracles import product_table_by_pairs, translate_b3_pow
from nestfock import basis_change, cli, fock, ring, symfunc, verify
from nestfock.basis_change import (
    TransitionMatrix,
    _gram,
    _translation,
    b1_annihilation,
    b2_in_b1,
    b2_in_b3,
    b3_in_b1,
    gram_b3,
    hilb_fixed_in_p,
    hilb_L_in_fixed,
    hilb_L_in_p,
    hilb_L_in_p_matrix,
    operator_keys,
    partition_keys,
    pair_keys,
)
from nestfock.curve_classes import add_part, create_b3
from nestfock.fock import B2Key, FockVector, loop_action
from nestfock.incidence import EulerClass, IncidencePair, euler_class, h_pair, h_plus
from nestfock.partitions import Partition, z_factor
from nestfock.ring import pullback_f, pullback_g
from nestfock.symfunc import m_in_p


def perturbed(n, a, t, delta):
    """b2_in_b1 with the entry (a, t) of degree n moved by delta."""

    def fake(m):
        mat = b2_in_b1(m)
        if m != n:
            return mat
        rows = [list(r) for r in mat.rows]
        rows[a][t] += delta
        return TransitionMatrix(mat.source, mat.target, m, mat.row_keys, mat.col_keys, rows)

    return fake


class TestSuiteHooks:
    def test_passes_unperturbed(self):
        assert all(r.ok for r in verify.suite_hooks(6))

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_bumped_hook_product_fails_both_sums(self, n, monkeypatch):
        """h(lam, mu) + 1 at one pair moves the lam-sum and the mu-sum it enters."""
        bumped = pair_keys(n)[-1]
        monkeypatch.setattr(verify, "h_pair", lambda p: h_pair(p) + (p == bumped))
        by_lam, by_mu = verify.suite_hooks(n)
        assert not by_lam.ok and not by_mu.ok
        assert [f["lambda"] for f in json.loads(by_lam.detail)] == [bumped.lam.as_list()]
        assert [f["mu"] for f in json.loads(by_mu.detail)] == [bumped.mu.as_list()]


class TestSuiteEuler:
    """Each mutant at n <= 3 fails only the check that reads it, and names its pair."""

    def test_bumped_h_plus_fails_only_the_positive_product(self, monkeypatch):
        bumped = pair_keys(3)[-1]
        monkeypatch.setattr(verify, "h_plus", lambda p: h_plus(p) + (p == bumped))
        full, pos = verify.suite_euler(3)
        assert full.ok and not pos.ok
        assert [f["pair"] for f in json.loads(pos.detail)] == [bumped.as_json_obj()]

    def test_bumped_euler_magnitude_fails_only_the_full_product(self, monkeypatch):
        bumped = pair_keys(3)[-1]

        def bumped_class(p):
            sign, mag, t_exp = euler_class(p)
            return EulerClass(sign, mag + (p == bumped), t_exp)

        monkeypatch.setattr(verify, "euler_class", bumped_class)
        full, pos = verify.suite_euler(3)
        assert pos.ok and not full.ok
        expected = {"pair": bumped.as_json_obj(), "product": 144, "expected": 145}
        assert json.loads(full.detail) == [expected]

    def test_arm_and_leg_swapped_fails_only_the_positive_product(self, monkeypatch):
        def swapped(pair):
            lam, mu = pair
            lam_t, mu_t = lam.conjugate(), mu.conjugate()
            weights = [1, -1]
            for r, c in lam.cells():
                weights += [lam[r] - c + mu_t[c] - r - 1, -(mu[r] - c + lam_t[c] - r - 1)]
            return sorted(weights)

        monkeypatch.setattr(verify, "tangent_weights_incidence", swapped)
        full, pos = verify.suite_euler(3)
        assert full.ok and not pos.ok
        first = json.loads(pos.detail)[0]
        assert first == {"pair": {"lambda": [1], "mu": [2]}, "positive": 1, "expected": 2}


# the checks each suite reports at --max-n 2, in order
CHECK_NAMES = {
    "hooks": [
        "sum over mu of h(lam)^2/h(lam,mu) = 1, |lam| <= 2",
        "sum over lam of h(mu)^2/h(lam,mu) = |mu|, |mu| <= 3",
    ],
    "euler": [
        "weight product = (-1)^(n+1) h(lam,mu), n <= 2",
        "positive weight product = h_plus(lam,mu), n <= 2",
    ],
    "heisenberg": [
        "[a_p, a_q] = p delta Id on degrees <= 2, |p|,|q| <= 4",
        "cotranslate after translate = Id, degrees < 2",
        "translation pair commutes with a_p, degrees <= 2",
    ],
    "loop": [
        "loop bracket identities on degrees <= 2",
        "index-0 generator acts as zero",
    ],
    "pairing": [
        "pair_b2 = pair_b1 after change of basis, n <= 2",
    ],
    "roundtrip": [
        "b1_in_b2 * b2_in_b1 = Id, n <= 2",
        "b3_in_b1 triangular for product dominance, diagonal 1/h_plus, n <= 2",
        "gram consistency A Z A^T = M H M^T, n <= 2",
        "shared-part choice independence, n <= 2",
        "b2_in_b3 * b3_in_b2 = Id, n <= 2",
    ],
    "phi": [
        "curve classes map to monomial functions, |lam| <= 2",
        "Hall pairing is z_lam delta, |lam| <= 2",
        "fixed classes have norm h^2 and image h(lam) m_lam + lower terms, |lam| <= 2",
        "curve classes L F^-1 triangular, diagonal 1/h, |lam| <= 2",
        "diagonal law for normalized fixed classes, n <= 2",
    ],
    "diagrams": [
        "pullback_f intertwines creation, degrees <= 2",
        "pullback_g intertwines annihilation, degrees <= 2",
        "vacuum relation g(a_-m vacuum) = m t^(m-1) vacuum, m <= 2",
        "mixed relation for g after creation, degrees <= 2",
        "comparison maps are ring homomorphisms, n <= 2",
        "bilinear form transport laws, n <= 2",
    ],
    "ordinary": [
        "unit exists with u_n = n!, n <= 2",
        "commutative and associative on basis triples, n <= 2",
        "degree additivity and Betti-zero vanishing, n <= 2",
        "top class squares to zero on the 1-point incidence scheme",
    ],
    "betti": [
        "betti series = cell counts = dimensions, n <= 2",
    ],
}


def test_every_suite_reports_its_checks():
    assert list(CHECK_NAMES) == list(verify.SUITES)
    for suite, names in CHECK_NAMES.items():
        results = verify.run_suite(suite, 2)
        assert [r.name for r in results] == names, suite
        assert all(r.ok for r in results), suite


def test_a_check_that_compares_no_case_fails_as_vacuous(monkeypatch):
    # with no pair of any degree, both Euler checks loop over nothing
    assert all(r.ok and r.cases for r in verify.suite_euler(2))
    monkeypatch.setattr(verify, "pair_keys", lambda n: ())
    assert [r[1:4] for r in verify.suite_euler(2)] == [(False, "vacuous", 0)] * 2


# (name, cases) of every check of run_suite("all", max_n), at 3 and at the defaults
CHECK_CASES = {
    3: [
        ("sum over mu of h(lam)^2/h(lam,mu) = 1, |lam| <= 3", 7),
        ("sum over lam of h(mu)^2/h(lam,mu) = |mu|, |mu| <= 4", 11),
        ("weight product = (-1)^(n+1) h(lam,mu), n <= 3", 14),
        ("positive weight product = h_plus(lam,mu), n <= 3", 14),
        ("[a_p, a_q] = p delta Id on degrees <= 3, |p|,|q| <= 4", 34),
        ("cotranslate after translate = Id, degrees < 3", 7),
        ("translation pair commutes with a_p, degrees <= 3", 14),
        ("loop bracket identities on degrees <= 3", 4536),
        ("index-0 generator acts as zero", 14),
        ("pair_b2 = pair_b1 after change of basis, n <= 3", 42),
        ("b1_in_b2 * b2_in_b1 = Id, n <= 3", 14),
        ("b3_in_b1 triangular for product dominance, diagonal 1/h_plus, n <= 3", 14),
        ("gram consistency A Z A^T = M H M^T, n <= 3", 14),
        ("shared-part choice independence, n <= 3", 11),
        ("b2_in_b3 * b3_in_b2 = Id, n <= 3", 14),
        ("curve classes map to monomial functions, |lam| <= 3", 7),
        ("Hall pairing is z_lam delta, |lam| <= 3", 15),
        ("fixed classes have norm h^2 and image h(lam) m_lam + lower terms, |lam| <= 3", 7),
        ("curve classes L F^-1 triangular, diagonal 1/h, |lam| <= 3", 7),
        ("diagonal law for normalized fixed classes, n <= 3", 15),
        ("pullback_f intertwines creation, degrees <= 3", 7),
        ("pullback_g intertwines annihilation, degrees <= 3", 23),
        ("vacuum relation g(a_-m vacuum) = m t^(m-1) vacuum, m <= 3", 3),
        ("mixed relation for g after creation, degrees <= 3", 10),
        ("comparison maps are ring homomorphisms, n <= 3", 54),
        ("bilinear form transport laws, n <= 3", 54),
        ("unit exists with u_n = n!, n <= 3", 14),
        ("commutative and associative on basis triples, n <= 3", 416),
        ("degree additivity and Betti-zero vanishing, n <= 3", 70),
        ("top class squares to zero on the 1-point incidence scheme", 1),
        ("betti series = cell counts = dimensions, n <= 3", 4),
    ],
    None: [
        ("sum over mu of h(lam)^2/h(lam,mu) = 1, |lam| <= 10", 139),
        ("sum over lam of h(mu)^2/h(lam,mu) = |mu|, |mu| <= 11", 194),
        ("weight product = (-1)^(n+1) h(lam,mu), n <= 8", 187),
        ("positive weight product = h_plus(lam,mu), n <= 8", 187),
        ("[a_p, a_q] = p delta Id on degrees <= 6, |p|,|q| <= 4", 757),
        ("cotranslate after translate = Id, degrees < 6", 45),
        ("translation pair commutes with a_p, degrees <= 6", 205),
        ("loop bracket identities on degrees <= 6", 24300),
        ("index-0 generator acts as zero", 75),
        ("pair_b2 = pair_b1 after change of basis, n <= 8", 4088),
        ("b1_in_b2 * b2_in_b1 = Id, n <= 8", 187),
        ("b3_in_b1 triangular for product dominance, diagonal 1/h_plus, n <= 8", 187),
        ("gram consistency A Z A^T = M H M^T, n <= 8", 187),
        ("shared-part choice independence, n <= 6", 96),
        ("b2_in_b3 * b3_in_b2 = Id, n <= 8", 187),
        ("curve classes map to monomial functions, |lam| <= 9", 97),
        ("Hall pairing is z_lam delta, |lam| <= 9", 1819),
        ("fixed classes have norm h^2 and image h(lam) m_lam + lower terms, |lam| <= 8", 67),
        ("curve classes L F^-1 triangular, diagonal 1/h, |lam| <= 8", 67),
        ("diagonal law for normalized fixed classes, n <= 6", 210),
        ("pullback_f intertwines creation, degrees <= 6", 42),
        ("pullback_g intertwines annihilation, degrees <= 6", 155),
        ("vacuum relation g(a_-m vacuum) = m t^(m-1) vacuum, m <= 6", 6),
        ("mixed relation for g after creation, degrees <= 6", 64),
        ("comparison maps are ring homomorphisms, n <= 5", 298),
        ("bilinear form transport laws, n <= 6", 644),
        ("unit exists with u_n = n!, n <= 4", 26),
        ("commutative and associative on basis triples, n <= 4", 2144),
        ("degree additivity and Betti-zero vanishing, n <= 4", 214),
        ("top class squares to zero on the 1-point incidence scheme", 1),
        ("betti series = cell counts = dimensions, n <= 12", 13),
    ],
}


@pytest.mark.parametrize("max_n", list(CHECK_CASES))
def test_every_check_counts_its_cases(max_n):
    assert [(r.name, r.cases) for r in verify.run_suite("all", max_n)] == CHECK_CASES[max_n]


class TestSuitePairing:
    def test_passes_unperturbed(self):
        assert all(r.ok for r in verify.suite_pairing(5))

    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bumped_h_pair_of_the_engine_is_caught_at_its_degree(self, n, end, monkeypatch):
        """h(lam, mu) + 1 at one pair where B is built fails the transport law at that degree.

        verify weighs B H B^T with the true h_pair, so only B is wrong.
        """
        bumped = pair_keys(n)[end]
        clear_memos()
        try:
            monkeypatch.setattr(basis_change, "h_pair", lambda p: h_pair(p) + (p == bumped))
            (res,) = verify.suite_pairing(n)
            assert not res.ok
            assert {f["degree"] for f in json.loads(res.detail)} == {n}
        finally:
            monkeypatch.undo()
            clear_memos()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_perturbed_entry_is_the_counterexample(self, n, monkeypatch):
        mat = b2_in_b1(n)
        for a, row in enumerate(mat.rows):
            for t, x in enumerate(row):
                if not x:
                    continue
                monkeypatch.setattr(verify, "b2_in_b1", perturbed(n, a, t, Fraction(1, 1000)))
                (res,) = verify.suite_pairing(n)
                assert not res.ok
                failures = json.loads(res.detail)
                key = mat.row_keys[a].as_json_obj()
                for f in failures:
                    assert f["degree"] == n
                    assert key in (f["x"], f["y"])
                    assert f["lhs"] != f["rhs"]
                # the diagonal entry of row a moves by (2 x delta + delta^2) h(t)
                if a == 0:
                    z = z_factor(mat.row_keys[0].nu)
                    shift = (2 * x * Fraction(1, 1000) + Fraction(1, 1000) ** 2) * h_pair(mat.col_keys[t])
                    assert failures[0] == {
                        "degree": n,
                        "x": key,
                        "y": key,
                        "lhs": str(z),
                        "rhs": str(z + shift),
                    }


class TestSuiteHeisenberg:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_perturbed_annihilation_is_caught_at_its_degree(self, degree, monkeypatch):
        """a_1 moved by 1/1000 on one basis key of one degree breaks [a_p, a_q]."""
        key = pair_keys(degree)[0]
        shift = Fraction(1, 1000) * FockVector.unit(pair_keys(degree - 1)[0])

        def fake(m, v, n):
            out = b1_annihilation(m, v, n)
            return out + v[key] * shift if (m, n) == (1, degree) else out

        monkeypatch.setattr(verify, "b1_annihilation", fake)
        res = verify.suite_heisenberg(3)[0]
        assert res.name.startswith("[a_p, a_q]") and not res.ok
        failures = json.loads(res.detail)
        assert degree in {f["degree"] for f in failures}
        assert all(1 in (f["p"], f["q"]) and set(f) == {"p", "q", "degree"} for f in failures)


def with_rows(mat, rows):
    return TransitionMatrix(mat.source, mat.target, mat.degree, mat.row_keys, mat.col_keys, rows)


class TestTranslationRule:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_moved_entry_is_caught_at_its_degree(self, degree, monkeypatch):
        """An entry of the translation into degree n moved by 1/1000 breaks B_n.

        The pairing check, the round trip, the triangularity check and the
        Gram consistency check each fail at that degree and at no other.
        """
        t = _translation(degree - 1)
        entries = [(a, j) for a, row in enumerate(t.rows) for j, x in enumerate(row) if x]
        try:
            for a, j in entries:
                rows = [list(r) for r in t.rows]
                rows[a][j] += Fraction(1, 1000)
                moved = with_rows(t, rows)
                fake = lambda m, moved=moved: moved if m == degree - 1 else _translation(m)
                monkeypatch.setattr(basis_change, "_translation", fake)
                clear_memos()
                results = verify.suite_pairing(degree) + verify.suite_roundtrip(degree)
                assert [r.ok for r in results] == [False, False, False, False, True, True], (a, j)
                for r in results[:4]:
                    assert {f["degree"] for f in json.loads(r.detail)} == {degree}
        finally:
            monkeypatch.undo()
            clear_memos()

    def test_doubled_entry_of_the_translation_from_degree_two_is_caught(self, monkeypatch):
        """One entry of the translation from degree 2 to 3 doubled breaks B from degree 3 on.

        For every entry the pairing check passes at degree 2 and fails at
        degree 3; with the first entry doubled, the heisenberg, roundtrip,
        diagrams and ordinary checks that build on B(3) fail as well.
        """
        want = {  # the result of each check at degree 4
            "heisenberg": [False, False, False],
            "roundtrip": [False, False, False, True, True],
            "diagrams": [False, False, False, False, True, True],
            "ordinary": [False, False, True, True],
        }
        t = _translation(2)
        entries = [(a, j) for a, row in enumerate(t.rows) for j, x in enumerate(row) if x]
        try:
            for a, j in entries:
                rows = [list(r) for r in t.rows]
                rows[a][j] *= 2
                doubled = with_rows(t, rows)
                fake = lambda m, doubled=doubled: doubled if m == 2 else _translation(m)
                monkeypatch.setattr(basis_change, "_translation", fake)
                clear_memos()
                assert verify.suite_pairing(2)[0].ok, (a, j)
                res = verify.suite_pairing(4)[0]
                assert not res.ok and {f["degree"] for f in json.loads(res.detail)} == {3}, (a, j)
                if (a, j) == entries[0]:
                    caught = {s: [r.ok for r in verify.run_suite(s, 4)] for s in want}
                    assert caught == want
        finally:
            monkeypatch.undo()
            clear_memos()


class TestSuiteRoundtrip:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sign_flip_off_the_diagonal_is_caught(self, n, monkeypatch):
        """M[0][1] -> -M[0][1] keeps diag(M H M^T), so only the full Gram identity sees it."""
        mat = b3_in_b1(n)
        rows = [list(r) for r in mat.rows]
        assert rows[0][1]
        rows[0][1] = -rows[0][1]
        flipped = with_rows(mat, rows)
        lhs, rhs = gram_b3(n).rows, _gram(flipped, h_pair).rows
        assert all(lhs[a][a] == rhs[a][a] for a in range(len(rows)))
        monkeypatch.setattr(verify, "b3_in_b1", lambda m: flipped if m == n else b3_in_b1(m))
        results = verify.suite_roundtrip(n)
        assert [r.ok for r in results] == [True, True, False, True, True]
        assert results[2].name.startswith("gram consistency A Z A^T = M H M^T")
        failures = json.loads(results[2].detail)
        row, col = mat.row_keys[0].as_json_obj(), mat.col_keys[1].as_json_obj()
        assert failures[0] == {"degree": n, "row": row, "col": col}
        assert all(f["degree"] == n and set(f) == {"degree", "row", "col"} for f in failures)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_moved_diagonal_entry_is_caught(self, n, monkeypatch):
        """diag(M) = 1/h_plus is checked, so the diagonal of M is pinned."""
        mat = b3_in_b1(n)
        a = len(mat.rows) - 1
        rows = [list(r) for r in mat.rows]
        rows[a][a] += Fraction(1, 1000)
        moved = with_rows(mat, rows)
        monkeypatch.setattr(verify, "b3_in_b1", lambda m: moved if m == n else b3_in_b1(m))
        res = verify.suite_roundtrip(n)[1]
        assert res.name.startswith("b3_in_b1 triangular for product dominance, diagonal 1/h_plus")
        assert not res.ok
        p = mat.row_keys[a].as_json_obj()
        assert json.loads(res.detail) == [{"degree": n, "row": p, "col": p}]

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_doubled_creation_row_of_the_inverse_is_caught_at_its_degree(self, degree, monkeypatch):
        """A row (0, nu) of the closed-form A^-1 doubled at one degree fails only the last check there."""
        clear_memos()
        try:
            mat = b2_in_b3(degree)
            for a, k in enumerate(mat.row_keys):
                if k.i:
                    continue
                rows = [list(r) for r in mat.rows]
                rows[a] = [2 * x for x in rows[a]]
                doubled = with_rows(mat, rows)
                monkeypatch.setattr(
                    verify, "b2_in_b3", lambda m: doubled if m == degree else b2_in_b3(m)
                )
                results = verify.suite_roundtrip(4)
                assert [r.ok for r in results] == [True, True, True, True, False], k
                assert results[4].name.startswith("b2_in_b3 * b3_in_b2 = Id")
                assert json.loads(results[4].detail) == [{"degree": degree}]
        finally:
            monkeypatch.undo()
            clear_memos()

    def test_doubled_absorption_term_of_the_curve_recursion_is_caught(self, monkeypatch):
        """The m-fold translate in create_b3 doubled fails the triangular check from degree 1 on.

        The absorption term first enters A at degree 1, through the row of
        ([1], [1, 1]), which strips 1 down to the vacuum.  A^-1 reads the same
        create_b3, so the product of the two is still the identity.
        """

        def mutant(m, v):
            return create_b3(m, v) + FockVector([(translate_b3_pow(p, m), c) for p, c in v.items()])

        clear_memos()
        try:
            monkeypatch.setattr(basis_change, "create_b3", mutant)
            results = verify.suite_roundtrip(4)
            assert [r.ok for r in results] == [True, False, True, True, True]
            assert results[1].name.startswith("b3_in_b1 triangular")
            first = json.loads(results[1].detail)[0]
            assert (first["degree"], first["row"]) == (1, {"lambda": [1], "mu": [1, 1]})
        finally:
            monkeypatch.undo()
            clear_memos()

    def test_wrong_middle_choice_of_the_curve_recursion_is_caught(self, monkeypatch):
        """a_-2 on ([3, 1], [3, 1, 1]) with one more target term fails the choice check only.

        Only the row of ([3, 2, 1], [3, 2, 1, 1]) strips to that key, with
        m = 2 of its shared parts 1, 2 and 3; A strips 3 and the smallest
        choice 1, so neither A nor a rebuild of A from the smallest part sees it.
        """
        src = IncidencePair(Partition([3, 1]), Partition([3, 1, 1]))
        target = IncidencePair(Partition([3, 2, 1]), Partition([3, 2, 1, 1]))

        def mutant(m, v):
            image = create_b3(m, v)
            return image + FockVector.unit(target) if (m, v) == (2, FockVector.unit(src)) else image

        clear_memos()
        try:
            monkeypatch.setattr(basis_change, "create_b3", mutant)
            results = verify.suite_roundtrip(6)
            assert [r.ok for r in results] == [True, True, True, False, True]
            assert results[3].name.startswith("shared-part choice independence")
            assert json.loads(results[3].detail) == [{"pair": target.as_json_obj()}]
        finally:
            monkeypatch.undo()
            clear_memos()


class TestSuitePhi:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_scaled_curve_row_is_caught_at_its_degree(self, degree, monkeypatch):
        """A row of hilb_L_in_p_matrix doubled fails the monomial check there only.

        The doubled matrix is installed wherever hilb_L_in_p_matrix is read,
        so m_in_p doubles too: only the counted p -> m matrix can tell.
        """
        name = "curve classes map to monomial functions"
        for a, lam in enumerate(partition_keys(degree)):
            clear_memos()
            try:
                mat = hilb_L_in_p_matrix(degree)
                rows = [list(r) for r in mat.rows]
                rows[a] = [2 * x for x in rows[a]]
                doubled = with_rows(mat, rows)
                fake = lambda m: doubled if m == degree else hilb_L_in_p_matrix(m)
                for module in (basis_change, symfunc, verify):
                    monkeypatch.setattr(module, "hilb_L_in_p_matrix", fake)
                assert m_in_p(lam) == 2 * hilb_L_in_p(lam)
                (res,) = [r for r in verify.suite_phi(5) if r.name.startswith(name)]
                assert not res.ok
                assert json.loads(res.detail) == [{"lambda": lam.as_list()}]
            finally:
                monkeypatch.undo()
                clear_memos()

    def test_extra_creation_term_in_the_incidence_curve_recursion_is_caught(self, monkeypatch):
        """An extra i-term of create_b3 on the sources of value 0 and size 1 fails the monomial check.

        hilb_L_in_p reads the incidence curve classes, so the counted
        p -> m matrix guards the curve recursion of b3_in_b2 too.
        """

        def mutant(m, v):
            extra = [
                (IncidencePair(add_part(p.lam, 0, m), add_part(p.mu, 0, m)), c)
                for p, c in v.items()
                if p.value == 0 and p.lam.size == 1
            ]
            return create_b3(m, v) + FockVector(extra)

        name = "curve classes map to monomial functions"
        clear_memos()
        try:
            monkeypatch.setattr(basis_change, "create_b3", mutant)
            (res,) = [r for r in verify.suite_phi(4) if r.name.startswith(name)]
            assert not res.ok
            assert json.loads(res.detail) == [
                {"lambda": [1, 1]}, {"lambda": [2, 1]}, {"lambda": [1, 1, 1]}
            ]
        finally:
            monkeypatch.undo()
            clear_memos()

    @pytest.mark.parametrize(
        "n, lam, mu",
        [
            (2, [2], [1, 1]),
            (3, [3], [2, 1]),
            (4, [2, 2], [2, 1, 1]),
            (3, [2, 1], [2, 1]),
            (4, [2, 2], [2, 2]),
        ],
    )
    def test_perturbed_curve_class_is_caught_at_its_degree(self, n, lam, mu, monkeypatch):
        """An entry of hilb_L_in_fixed moved by 1/1000, below or on the diagonal."""
        name = "curve classes L F^-1 triangular"
        (res,) = [r for r in verify.suite_phi(n) if r.name.startswith(name)]
        assert res.ok
        mat = hilb_L_in_fixed(n)
        a, t = mat.row_keys.index(Partition(lam)), mat.col_keys.index(Partition(mu))
        rows = [list(r) for r in mat.rows]
        rows[a][t] += Fraction(1, 1000)
        fake = lambda m: with_rows(mat, rows) if m == n else hilb_L_in_fixed(m)
        monkeypatch.setattr(verify, "hilb_L_in_fixed", fake)
        (res,) = [r for r in verify.suite_phi(n) if r.name.startswith(name)]
        assert not res.ok
        assert n in {f["degree"] for f in json.loads(res.detail)}

    def test_wrong_character_is_caught_by_the_monomial_expansion(self, monkeypatch):
        """chi^(2,1)((3)) + 1 puts m_(3), which dominates (2,1), into the class of (2,1)."""
        character = basis_change.character

        def wrong(lam, nu):
            bump = (lam, nu) == (Partition([2, 1]), Partition([3]))
            return character(lam, nu) + bump

        monkeypatch.setattr(basis_change, "character", wrong)
        monkeypatch.setattr(verify, "hilb_fixed_in_p", hilb_fixed_in_p.__wrapped__)
        name = "fixed classes have norm h^2 and image h(lam) m_lam + lower terms"
        (res,) = [r for r in verify.suite_phi(3) if r.name.startswith(name)]
        assert not res.ok
        assert {"lambda": [2, 1], "mu": [3], "check": "monomial"} in json.loads(res.detail)


class TestCharacterMutant:
    def test_bumped_character_fails_the_pairing_and_the_norm(self, monkeypatch):
        """chi^(2,1)((3)) + 1 in the one character table that B and F are built from.

        B's row (0, (3)) moves, so the transport law B H B^T = Z fails at
        degree 3 and at no lower degree, and the fixed class of (2, 1)
        leaves its norm h^2.
        """
        character = basis_change.character

        def wrong(lam, nu):
            return character(lam, nu) + ((lam, nu) == (Partition([2, 1]), Partition([3])))

        clear_memos()
        try:
            monkeypatch.setattr(basis_change, "character", wrong)
            results = {r.name: r for r in verify.suite_pairing(3) + verify.suite_phi(3)}
        finally:
            monkeypatch.undo()
            clear_memos()
        pairing = results["pair_b2 = pair_b1 after change of basis, n <= 3"]
        assert not pairing.ok and {f["degree"] for f in json.loads(pairing.detail)} == {3}
        norm = results["fixed classes have norm h^2 and image h(lam) m_lam + lower terms, |lam| <= 3"]
        assert not norm.ok and {"lambda": [2, 1], "check": "norm"} in json.loads(norm.detail)


class TestSuiteOrdinary:
    def test_passes_every_check_at_degree_six(self):
        results = verify.suite_ordinary(6)
        assert len(results) == 4 and all(r.ok for r in results), [r.name for r in results if not r.ok]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_doubled_h_squared_in_one_degree_is_caught(self, monkeypatch, capsys, tmp_path, degree):
        """h(t)^2 of the first fixed point doubled in one degree's contraction data.

        The product table then differs from the one read off star_tilde, and
        suite_ordinary's unit check fails, as does ``verify``, without a
        traceback even where the unit cannot be normalized at all.
        """
        clear_memos()  # else the memo keeps the sums of the true data
        true_data = ring._contraction_data

        @lru_cache(maxsize=None)
        def doubled(m):
            keys, index, nums, h2, denoms, by_length, memo = true_data(m)
            if m == degree:
                h2, memo = (2 * h2[0],) + h2[1:], {}
            return keys, index, nums, h2, denoms, by_length, memo

        monkeypatch.setattr(ring, "_contraction_data", doubled)
        try:
            every = range(len(operator_keys(degree)))
            table = list(ring.product_table("b2", degree, every, every))
            results = {r.name: r.ok for r in verify.suite_ordinary(3)}
            status = cli.main(["verify", "--suite", "ordinary", "--max-n", "3", "--cache-dir", str(tmp_path)])
        finally:
            monkeypatch.undo()
            clear_memos()
        assert table != product_table_by_pairs("b2", degree, every, every)
        assert not results["unit exists with u_n = n!, n <= 3"]
        assert status == 1
        assert "FAIL unit exists with u_n = n!, n <= 3: " in capsys.readouterr().out

    def test_a_unit_that_raises_counts_no_key_of_its_degree(self, monkeypatch):
        """The unit check compares no key of a degree whose unit cannot be built."""
        unit_data = ring._unit_data

        def broken(m):
            if m == 2:
                raise ArithmeticError("unit normalization vanished at degree 2")
            return unit_data(m)

        clear_memos()
        try:
            monkeypatch.setattr(ring, "_unit_data", broken)
            unit = verify.suite_ordinary(3)[0]
        finally:
            monkeypatch.undo()
            clear_memos()
        assert unit.name == "unit exists with u_n = n!, n <= 3" and not unit.ok
        error = "unit normalization vanished at degree 2"
        assert json.loads(unit.detail) == [{"n": 2, "error": error}]
        assert unit.cases == sum(len(operator_keys(n)) for n in (0, 1, 3))

    @pytest.mark.parametrize(
        "shift, failing",
        [
            # at these degrees every sum with l(a) + l(b) + l(c) + n odd
            # vanishes, so this mutant's cup product is zero: the unit
            # check and the check for a table with no nonzero product see it
            (1, ["unit exists with u_n = n!, n <= 3", "degree additivity and Betti-zero vanishing, n <= 3"]),
            (2, ["unit exists with u_n = n!, n <= 3", "degree additivity and Betti-zero vanishing, n <= 3"]),
        ],
        ids=["by_one", "by_two"],
    )
    def test_shifted_length_rule_is_caught(self, monkeypatch, shift, failing):
        """The cup product's rule moved to l(c) = l(a) + l(b) - n + shift.

        The unit cannot be normalized, and the checks fail by name
        instead of raising.
        """
        clear_memos()
        true_data = ring._contraction_data

        @lru_cache(maxsize=None)
        def shifted(m):
            keys, index, nums, h2, denoms, by_length, _ = true_data(m)
            by_length = {ell - shift: cs for ell, cs in by_length.items()}
            return keys, index, nums, h2, denoms, by_length, {}

        monkeypatch.setattr(ring, "_contraction_data", shifted)
        try:
            results = {r.name: r.ok for r in verify.suite_ordinary(3)}
        finally:
            monkeypatch.undo()
            clear_memos()
        assert not any(results[name] for name in failing)


PARTITIONS = st.lists(st.integers(1, 3), max_size=4).map(Partition)
COEFFS = st.fractions(-3, 3, max_denominator=4)


def by_units(op, v):
    """op applied to each key of v on its own, scaled and summed."""
    out = FockVector()
    for k, c in v.items():
        out = out + c * op(FockVector.unit(k))
    return out


class TestImagesComposeByLinearity:
    """suite_loop and the pullbacks build the image of each key once and
    map a vector term by term; these tests pin the linearity that relies on,
    and check that a wrong per-key image still fails its check."""

    @given(
        terms=st.dictionaries(st.builds(B2Key, st.integers(0, 3), PARTITIONS), COEFFS, max_size=5),
        j=st.integers(0, 2),
        p=st.integers(-3, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_loop_action_is_the_sum_of_unit_images(self, terms, j, p):
        v = FockVector(terms)
        assert loop_action(j, p, v) == by_units(lambda u: loop_action(j, p, u), v)

    @given(terms=st.dictionaries(PARTITIONS, COEFFS, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_pullbacks_are_the_sums_of_unit_images(self, terms):
        v = FockVector(terms)
        assert pullback_f(v) == by_units(pullback_f, v)
        nonempty = FockVector({lam: c for lam, c in terms.items() if lam.size})
        assert pullback_g(nonempty) == by_units(pullback_g, nonempty)

    def test_doubled_annihilation_image_fails_the_loop_bracket(self, monkeypatch):
        doubled = B2Key(0, Partition([2, 1]))
        annihilation = fock.annihilation

        def wrong(n, v):
            return annihilation(n, v) + annihilation(n, FockVector({doubled: v[doubled]}))

        assert all(r.ok for r in verify.suite_loop(3))
        monkeypatch.setattr(fock, "annihilation", wrong)
        bracket, index_zero = verify.suite_loop(3)
        assert not bracket.ok and index_zero.ok

    def test_bumped_h_pair_fails_the_bilinear_transport(self, monkeypatch):
        bumped = pair_keys(2)[1]
        name = "bilinear form transport laws, n <= 3"
        assert {r.name: r.ok for r in verify.suite_diagrams(3)}[name]
        clear_memos()  # else the pullbacks keep the weights built from the true h_pair
        monkeypatch.setattr(ring, "h_pair", lambda p: h_pair(p) + (p == bumped))
        try:
            results = {r.name: r for r in verify.suite_diagrams(3)}
        finally:
            clear_memos()
        assert not results[name].ok
        assert "f" in {f["map"] for f in json.loads(results[name].detail)}
