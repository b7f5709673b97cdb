import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from genusforge import fgl, genus, series, symfun
from genusforge.check import first_defect, replace
from genusforge.fgl import (
    CATALOG,
    DEMO_LAWS,
    FormalGroupLaw,
    MobiusTrial,
    UnknownLawError,
    canonical_strict_iso,
    catalog,
    check_axioms,
    gaussian_bracket,
    grading_check,
    kontsevich_germ_law,
    logarithm,
    mobius_sweep,
    n_series,
    negation_series,
    verify_iso,
)
from genusforge.genus import GENUS_SERIES, genus_series
from genusforge.ring import RingElement
from genusforge.series import Series1, Series2, bivariate_from_exp, exp_series, log_series

from conftest import clear_memos, rationals, ring_elements
from oracles import (
    expanded_normalized_gamma_exponential,
    full_order_negation_series,
    iterated_n_series,
    pairwise_check_axioms,
    pairwise_eval_at,
    substituted_law,
)

R = RingElement
gen = R.gen


class TestCatalog:
    def test_names(self):
        assert set(CATALOG) == {
            "additive",
            "multiplicative",
            "multiplicative_t",
            "kontsevich",
            "hyperbolic",
            "jacobi",
            "gamma_raw",
            "gamma_normalized",
            "chi_rescaled",
            "universal_additive",
        }

    def test_unknown_law(self):
        with pytest.raises(UnknownLawError):
            catalog("elliptic", 6)

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            catalog("additive", 1)

    def test_kontsevich_coefficients(self):
        law = catalog("kontsevich", 4)
        t = gen("t")
        assert law.F[(1, 1)] == 1 + t
        # (z0+z1+(1+t)z0z1) * (1 + t z0z1 + ...) => z0^2 z1 coefficient is t
        assert law.F[(1, 2)] == t
        assert law.F[(2, 1)] == t

    def test_kontsevich_germ_route_agrees(self):
        assert kontsevich_germ_law(8) == catalog("kontsevich", 8).F

    def test_hyperbolic_expansion(self):
        law = catalog("hyperbolic", 4)
        assert law.F[(2, 1)] == Fraction(1, 8)
        assert law.F[(1, 2)] == Fraction(1, 8)

    def test_hyperbolic_closed_form(self):
        n = 8
        law = catalog("hyperbolic", n)
        from genusforge.series import sqrt_series

        z = Series1.x(n)
        Rq = sqrt_series(Series1.constant(1, n) + z * z * Fraction(1, 4))
        expected = {}
        for k in range(n):
            c = Rq[k]
            if not c.is_zero():
                expected[(1, k)] = expected.get((1, k), R.zero()) + c
                expected[(k, 1)] = expected.get((k, 1), R.zero()) + c
        assert law.F == Series2(expected, n)

    def test_gamma_raw_leading(self):
        law = catalog("gamma_raw", 3)
        assert law.F[(1, 1)] == 2 * gen("gamma")

    def test_jacobi_specialization_is_hyperbolic(self):
        jac = catalog("jacobi", 10, params={"delta": Fraction(-1, 8), "epsilon": 0})
        hyp = catalog("hyperbolic", 10)
        assert jac.F == hyp.F

    def test_multiplicative_t_params(self):
        law = catalog("multiplicative_t", 6, params={"t": 1})
        assert law.F == catalog("multiplicative", 6).F

    def test_param_naming_no_generator_rejected(self):
        with pytest.raises(ValueError, match="no generator"):
            catalog("additive", 4, params={"foo": 1})
        with pytest.raises(ValueError, match="no generator"):
            catalog("gamma_raw", 4, params={"t": 1})

    @pytest.mark.parametrize(
        "name, params",
        [
            ("gamma_normalized", {"ipi2": 0}),
            ("chi_rescaled", {"u": 0}),
            ("chi_rescaled", {"u": 1 + gen("u")}),
            ("gamma_normalized", {"gamma": 0, "ipi2": 0}),
        ],
    )
    def test_non_invertible_param_under_a_negative_power_rejected(self, name, params):
        bad = "ipi2" if "ipi2" in params else "u"
        with pytest.raises(ValueError, match=f"param '{bad}' must be invertible"):
            catalog(name, 5, params=params)

    def test_zero_param_without_negative_powers_binds(self):
        assert catalog("multiplicative_t", 5, params={"t": 0}).F == catalog("additive", 5).F

    @pytest.mark.parametrize("name", fgl.CATALOG)
    def test_every_generator_of_a_law_can_be_bound(self, name):
        law = catalog(name, 8)
        coeffs = [c for _, c in law.F.items()] + list(law.exp.coefficients() if law.exp else ())
        for g in set().union(*(c.generators() for c in coeffs)):
            catalog(name, 8, params={g: 1})

    def test_unit_axiom_enforced(self):
        with pytest.raises(ValueError):
            FormalGroupLaw(F=Series2({(1, 0): 2, (0, 1): 1}, 4), name="bad")

    def test_universal_exponential(self):
        law = catalog("universal_additive", 5)
        assert law.exp is not None
        assert law.exp[2] == gen("e1")
        assert law.F[(1, 1)] == 2 * gen("e1")


class TestAxioms:
    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_sound_order8(self, name):
        report = check_axioms(catalog(name, 8))
        assert report.passed, report.to_obj()

    def test_multiplicative_order16(self):
        assert check_axioms(catalog("multiplicative", 16)).passed

    def test_broken_demo_fails(self):
        report = check_axioms(catalog("broken_demo", 6))
        assert not report.passed
        # direct expansion: F(z0, F(z1, z2)) - F(F(z0, z1), z2) = -2 z0 z1 z2 + ...
        assert report.associativity.status == "FAIL"
        assert report.associativity.degree == 3

    def test_report_json_shape(self):
        obj = check_axioms(catalog("additive", 6)).to_obj()
        assert obj == {"unit": "PASS", "commutativity": "PASS", "associativity": "PASS"}


@st.composite
def laws_perturbed_at_any_index(draw):
    """A catalog law of order 2..7 plus a nonzero coefficient at any index:
    at (0, 0) it gains a constant term, and at (k, 0) or (0, k) it breaks
    the unit axiom."""
    n = draw(st.integers(2, 7))
    edges = [(0, 0)] + [ij for k in range(1, n + 1) for ij in ((k, 0), (0, k))]
    anywhere = [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
    ij = draw(st.sampled_from(edges) | st.sampled_from(anywhere))
    c = draw(rationals.filter(bool) | ring_elements().filter(lambda c: not c.is_zero()))
    return catalog(draw(st.sampled_from(CATALOG)), n).F + Series2({ij: c}, n)


class TestAxiomsAgainstPairwiseExpansion:
    """check_axioms through RingElement.dot against the expansion that adds
    one product at a time: the same verdict and the same first defect."""

    @staticmethod
    def assert_same_report(F):
        report, expected = check_axioms(F), pairwise_check_axioms(F)
        assert report == expected
        assert json.dumps(report.to_obj()) == json.dumps(expected.to_obj())

    @pytest.mark.parametrize("name", CATALOG + DEMO_LAWS)
    def test_catalog_laws(self, name):
        self.assert_same_report(catalog(name, 7).F)

    def test_broken_demo_first_defect_is_pinned(self):
        self.assert_same_report(catalog("broken_demo", 10).F)
        assert check_axioms(catalog("broken_demo", 10)).to_obj()["associativity"] == {
            "status": "FAIL",
            "degree": 3,
            "coefficient": {"terms": [{"num": "2", "den": "1", "exps": {}}]},
        }

    @given(
        st.sampled_from(CATALOG),
        st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda ij: sum(ij) <= 5),
        st.one_of(rationals.filter(bool), ring_elements()),
    )
    def test_perturbed_laws(self, name, ij, c):
        self.assert_same_report(catalog(name, 5).F + Series2({ij: c}, 5))

    @given(
        st.sampled_from(CATALOG),
        st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda ij: sum(ij) <= 5),
        st.one_of(rationals.filter(bool), ring_elements()),
    )
    def test_symmetrically_perturbed_laws(self, name, ij, c):
        # Still commutative, so one set of column compositions serves both
        # sides of associativity, which the perturbation breaks in general.
        i, j = ij
        F = catalog(name, 5).F + Series2({(i, j): c}, 5) + Series2({(j, i): c}, 5)
        assert check_axioms(F).commutativity.passed
        self.assert_same_report(F)

    def test_a_symmetric_perturbation_fails_associativity(self):
        F = catalog("additive", 5).F + Series2({(1, 2): 1, (2, 1): 1}, 5)
        report = check_axioms(F)
        assert report.commutativity.passed and not report.associativity.passed
        self.assert_same_report(F)

    @given(laws_perturbed_at_any_index())
    def test_laws_perturbed_at_any_index(self, F):
        self.assert_same_report(F)

    def test_a_constant_term_is_reported_not_raised(self):
        F = catalog("gamma_raw", 6).F + 1
        report = check_axioms(F)
        assert report.unit.degree == 0 and not report.associativity.passed
        self.assert_same_report(F)


class TestLogarithm:
    def test_known_logarithms(self):
        n = 6
        lg = logarithm(catalog("multiplicative", n))
        assert lg == log_series(Series1.constant(1, n) + Series1.x(n))
        assert logarithm(catalog("additive", n)) == Series1.x(n)
        lk = logarithm(catalog("kontsevich", n))
        t = gen("t")
        assert lk[2] == (1 + t) * Fraction(-1, 2)
        assert lk[3] == (1 + t + t * t) * Fraction(1, 3)

    @pytest.mark.parametrize("name", CATALOG)
    def test_roundtrip_through_exponential(self, name):
        law = catalog(name, 8)
        rebuilt = bivariate_from_exp(logarithm(law).revert())
        assert rebuilt == law.F

    @pytest.mark.parametrize(
        "derive",
        [
            logarithm,
            fgl.exponential,
            lambda F: n_series(F, 2),
            negation_series,
            lambda F: canonical_strict_iso(F, catalog("additive", 4).F),
            lambda F: canonical_strict_iso(catalog("additive", 4).F, F),
        ],
        ids=["logarithm", "exponential", "n_series", "negation_series", "iso_from", "iso_to"],
    )
    def test_an_order_zero_law_names_its_order(self, derive):
        """A law of order 0 has no logarithm: the error names the law's order,
        not the order one less that the derivation would build."""
        with pytest.raises(ValueError, match=r"^law order must be >= 1, not 0$"):
            derive(Series2({(0, 0): 0}, 0))


class TestNegation:
    def test_known_inverses(self):
        n = 6
        assert negation_series(catalog("additive", n)) == -Series1.x(n)
        neg_m = negation_series(catalog("multiplicative", n))
        assert [neg_m[k].as_rational() for k in range(4)] == [0, -1, 1, -1]
        neg_g = negation_series(catalog("gamma_raw", 4))
        assert neg_g[1] == R.from_rational(-1)
        assert neg_g[2] == 2 * gen("gamma")

    @pytest.mark.parametrize("name", CATALOG)
    def test_inverse_property(self, name):
        law = catalog(name, 7)
        neg = negation_series(law)
        assert neg[1] == R.from_rational(-1)
        assert law.F.eval_at(Series1.x(7), neg).is_zero()
        assert pairwise_eval_at(law.F, Series1.x(7), neg).is_zero()

    @pytest.mark.parametrize("name", CATALOG)
    def test_against_full_order_oracle(self, name):
        for n in range(2, 9):
            law = catalog(name, n)
            assert negation_series(law) == full_order_negation_series(law.F)

    def test_broken_demo_inverse_fails_at_degree_3(self):
        # F = z0 + z1 + z0^2 z1 is not associative: its log is arctan z, so
        # exp(-log z) = -z, and F(z, -z) = -z^3.
        for n in range(3, 9):
            F = catalog("broken_demo", n).F
            defect = first_defect(F.eval_at(Series1.x(n), negation_series(F)).items())
            assert (defect.degree, defect.coefficient) == (3, R.from_rational(-1))


class TestNSeries:
    def test_small_multiples(self):
        n = 6
        assert n_series(catalog("additive", n), 5) == Series1.x(n) * 5
        two = n_series(catalog("multiplicative", n), 2)
        assert two == Series1([0, 2, 1], n)
        minus = n_series(catalog("multiplicative", n), -1)
        assert minus == Series1([0] + [(-1) ** k for k in range(1, n + 1)], n)  # -z / (1 + z)

    def test_one_is_identity(self):
        for name in CATALOG:
            law = catalog(name, 5)
            assert n_series(law, 1) == Series1.x(5)

    @pytest.mark.parametrize("name", CATALOG)
    def test_against_iterated_oracle(self, name):
        for n in range(2, 9):
            law = catalog(name, n)
            for k in range(-3, 5):
                assert n_series(law, k) == iterated_n_series(law.F, k), (n, k)

    def test_linear_coefficient(self):
        law = catalog("kontsevich", 5)
        for k in (-2, 3):
            assert n_series(law, k)[1] == R.from_rational(k)


class TestIso:
    def test_exp_minus_one(self):
        n = 8
        phi = canonical_strict_iso(catalog("additive", n), catalog("multiplicative", n))
        assert phi == exp_series(Series1.x(n)) - 1

    def test_self_iso_is_identity(self):
        law = catalog("jacobi", 6)
        assert canonical_strict_iso(law, law) == Series1.x(6)

    def test_kontsevich_to_multiplicative(self):
        k = catalog("kontsevich", 12)
        m = catalog("multiplicative", 12)
        phi = canonical_strict_iso(k, m)
        assert verify_iso(phi, k, m).passed

    def test_verify_iso_failure_reported(self):
        a = catalog("additive", 6)
        m = catalog("multiplicative", 6)
        res = verify_iso(Series1.x(6), a, m)
        assert not res.passed
        assert res.degree == 2
        again = verify_iso(Series1.x(6), catalog("additive", 6), catalog("multiplicative", 6))
        assert not again.passed and again == res  # a second call, from the memo

    @pytest.mark.parametrize(
        "source, target",
        [
            ("kontsevich", "multiplicative"),
            ("additive", "hyperbolic"),
            ("gamma_raw", "gamma_normalized"),
            ("multiplicative_t", "chi_rescaled"),
            ("jacobi", "universal_additive"),
            ("hyperbolic", "kontsevich"),
            ("broken_demo", "gamma_raw"),
        ],
    )
    def test_stored_exponential_matches_the_reverted_logarithm(self, source, target):
        for n in (4, 8):
            a, b = catalog(source, n), catalog(target, n)
            assert canonical_strict_iso(a, b) == logarithm(b).revert().compose(logarithm(a))
            assert canonical_strict_iso(a.F, b.F) == canonical_strict_iso(a, b)

    def test_exp_pair(self):
        a = catalog("additive", 8)
        m = catalog("multiplicative", 8)
        phi = exp_series(Series1.x(8)) - 1
        assert verify_iso(phi, a, m).passed

    def test_verify_iso_at_the_least_order(self):
        k, m = catalog("kontsevich", 8), catalog("multiplicative", 6)
        phi = canonical_strict_iso(catalog("kontsevich", 10), catalog("multiplicative", 10))
        assert verify_iso(phi, k, m).passed
        assert verify_iso(phi.truncate(5), k, m).passed
        assert not verify_iso(phi, m, k).passed


class TestMobiusSweep:
    def test_definitive_report(self):
        records = mobius_sweep(8)
        assert len(records) == 12
        conventions = {rec.convention for rec in records}
        assert conventions == {"row_matrix", "row_inverse", "col_matrix", "col_inverse"}
        targets = {rec.target for rec in records}
        assert targets == {"additive", "multiplicative", "multiplicative_t"}
        for rec in records:
            assert rec.status in ("PASS", "FAIL")
        # adjudication outcome: the face-value readings all fail at degree 2
        assert all(rec.status == "FAIL" for rec in records)
        assert all(rec.fail_degree == 2 for rec in records)

    def test_row_matrix_is_strict(self):
        records = mobius_sweep(6)
        rm = [r for r in records if r.convention == "row_matrix"]
        assert all(r.strict_linear_term for r in rm)
        assert all(not r.normalized_unit for r in rm)

    def test_a_trial_prints_as_a_dict_of_its_fields(self):
        trial = mobius_sweep(4)[0]
        assert trial.to_obj() == {
            "convention": "row_matrix",
            "target": "additive",
            "normalized_unit": False,
            "strict_linear_term": True,
            "status": "FAIL",
            "fail_degree": 2,
        }
        assert list(trial.to_obj()) == list(MobiusTrial._fields)


class TestGaussianBracket:
    def test_small_brackets(self):
        u = gen("u")
        assert gaussian_bracket(1) == R.one()
        assert gaussian_bracket(2) == u + gen("u", -1)
        assert gaussian_bracket(3) == gen("u", 2) + 1 + gen("u", -2)

    def test_symmetric_all_ones(self):
        for n in range(1, 9):
            b = gaussian_bracket(n)
            assert b.substitute({"u": gen("u", -1)}) == b
            assert all(c == 1 for _, c in b.terms())
            assert len(b.terms()) == n

    def test_invalid(self):
        with pytest.raises(ValueError):
            gaussian_bracket(0)


class TestGrading:
    def test_gamma_raw(self):
        assert grading_check(catalog("gamma_raw", 10)).passed

    def test_jacobi(self):
        assert grading_check(catalog("jacobi", 10)).passed

    def test_universal(self):
        assert grading_check(catalog("universal_additive", 8)).passed

    def test_catches_violations(self):
        law = catalog("multiplicative", 6)  # z0z1 coefficient 1 has weight 0 != 1
        assert not grading_check(law).passed


def _cold(name, order):
    clear_memos()
    law = catalog(name, order)
    return law.F, law.exp


class TestLawCache:
    @pytest.mark.parametrize("name", CATALOG)
    def test_lower_orders_are_truncations_of_one_build(self, name, cold):
        top = _cold(name, 10)
        for order in range(2, 10):
            cold = _cold(name, order)
            law = catalog(name, 10)  # a cold low order first, then the top
            assert (law.F, law.exp) == top
            law = catalog(name, order)  # the top first, then a low order
            assert (law.F, law.exp) == cold

    def test_one_entry_per_law_at_the_highest_order(self, cold):
        for order in (4, 8, 6):
            catalog("hyperbolic", order)
        assert list(fgl._BUILT) == ["hyperbolic"]
        assert fgl._BUILT["hyperbolic"].order == 8

    def test_params_do_not_leak_into_the_cache(self, cold):
        bound = catalog("jacobi", 6, params={"delta": Fraction(-1, 8), "epsilon": 0})
        assert bound.F == catalog("hyperbolic", 6).F
        free = catalog("jacobi", 6)
        assert free.params == ()
        gens = set().union(*(c.generators() for _, c in free.F.items()))
        assert {"delta", "epsilon"} <= gens


class TestLawHash:
    """Equal laws hash equally, params or not; the JSON form is untouched."""

    def test_without_params(self):
        a, b = catalog("additive", 3), catalog("additive", 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, catalog("additive", 4)}) == 2

    def test_with_params(self):
        params = {"delta": Fraction(-1, 8), "epsilon": 0}
        a = catalog("jacobi", 6, params=params)
        b = catalog("jacobi", 6, params=dict(reversed(params.items())))
        assert a == b and hash(a) == hash(b)
        assert json.dumps(a.to_obj()) == json.dumps(b.to_obj())
        assert a != catalog("jacobi", 6, params={"delta": 1, "epsilon": 0})


class TestLawParams:
    """A law's params are a tuple of (name, element) pairs sorted by name:
    a served law cannot be changed, and it hashes and pickles with them."""

    PARAMS = {"epsilon": 0, "delta": Fraction(-1, 8)}
    BOUND = (("delta", R.from_rational(Fraction(-1, 8))), ("epsilon", R.zero()))

    @pytest.mark.parametrize(
        "args, params", [(("additive", 12), ()), (("jacobi", 6, PARAMS), BOUND)]
    )
    def test_a_served_law_cannot_be_changed(self, args, params):
        law = catalog(*args)
        with pytest.raises(TypeError):
            law.params["t"] = 1
        with pytest.raises(AttributeError):
            law.params = (("t", R.one()),)
        again = catalog(*args)
        assert again is law and again.params == params
        assert again.to_obj()["params"] == {k: v.to_obj() for k, v in params}

    def test_a_bound_law_survives_a_pickle_round_trip(self):
        law = catalog("jacobi", 6, self.PARAMS)
        loaded = pickle.loads(pickle.dumps(law))
        assert loaded == law and hash(loaded) == hash(law)
        assert loaded.params == law.params == self.BOUND and hash(loaded.params) == hash(law.params)
        assert json.dumps(loaded.to_obj()) == json.dumps(law.to_obj())

    def test_equal_laws_with_params_hash_equally(self):
        served = catalog("jacobi", 6, self.PARAMS)
        made = FormalGroupLaw(served.F, "jacobi", self.BOUND)
        assert made is not served and made == served
        assert hash(made) == hash(served) and hash(made.params) == hash(served.params)
        other = replace(made, params=(("delta", R.one()),))
        assert len({served, made, other}) == 2


class TestExponentialTable:
    def test_names_are_the_laws_built_from_an_exponential(self):
        assert set(fgl.EXPONENTIALS) == {
            name for name in CATALOG if catalog(name, 4).construction == "from-exponential"
        }

    @pytest.mark.parametrize("name", sorted(fgl.EXPONENTIALS))
    def test_law_stores_the_table_exponential(self, name):
        law = catalog(name, 8)
        assert law.exp == fgl.EXPONENTIALS[name](8)
        assert law.F == bivariate_from_exp(law.exp)

    @pytest.mark.parametrize("order", range(2, 21))
    def test_normalized_gamma_reduces_the_argument_as_the_expansion(self, order):
        got = fgl.gamma_exponential(order, normalized=True)
        assert got.to_json() == expanded_normalized_gamma_exponential(order).to_json()

    def test_sinh_exponential(self):
        x = Series1.x(9)
        assert fgl.sinh_exponential(9) == exp_series(x * Fraction(1, 2)) - exp_series(
            x * Fraction(-1, 2)
        )


class TestChiRescaled:
    def test_logarithm_is_quantum_integers(self):
        law = catalog("chi_rescaled", 8)
        L = logarithm(law)
        for n in range(1, 9):
            assert L[n] == gaussian_bracket(n) * Fraction(1, n)

    def test_u_inversion_invariance(self):
        law = catalog("chi_rescaled", 8)
        flipped = law.F.map_coefficients(lambda c: c.substitute({"u": gen("u", -1)}))
        assert flipped == law.F


def test_law_serialization_shape():
    law = catalog("multiplicative_t", 4)
    obj = law.to_obj()
    assert obj["name"] == "multiplicative_t"
    assert obj["order"] == 4
    assert "coeffs" in obj["F"]


class TestHalfAccumulation:
    """For a commutative F, check_axioms composes the columns of F into F
    once, for both sides of associativity, and compares only the triples
    (a, b, c) with a < c; its first defect is still that of the full
    two-sided expansion."""

    # The 16 pairs (i, j), i <= j, with i, j >= 1 and i + j <= 8.
    @pytest.mark.parametrize("ij", [(i, j) for i in range(1, 5) for j in range(i, 9 - i)])
    def test_commutative_mutants_of_gamma_raw(self, ij):
        """gamma_raw plus 1 at (i, j) and (j, i): commutative, not associative."""
        i, j = ij
        F = catalog("gamma_raw", 8).F + Series2({(i, j): 1, (j, i): 1}, 8)
        report = check_axioms(F)
        assert report.commutativity.passed and not report.associativity.passed
        assert json.dumps(report.to_obj()) == json.dumps(pairwise_check_axioms(F).to_obj())

    def test_a_commutative_law_that_fails_the_unit_axiom(self):
        t = gen("t")
        F = catalog("kontsevich", 7).F + Series2({(2, 0): 1, (0, 2): 1, (3, 0): t, (0, 3): t}, 7)
        report = check_axioms(F)
        assert not report.unit.passed and report.commutativity.passed
        assert not report.associativity.passed
        assert json.dumps(report.to_obj()) == json.dumps(pairwise_check_axioms(F).to_obj())


class TestLawPowersMemo:
    """check_axioms and compose1_2 read one set of a law's powers, kept by
    value for the 16 most recent laws."""

    @staticmethod
    def count_products(monkeypatch):
        mul, calls = Series2.__mul__, []

        def counted(a, b):
            calls.append(None)
            return mul(a, b)

        monkeypatch.setattr(Series2, "__mul__", counted)
        return calls

    def test_equal_laws_share_one_entry(self, monkeypatch):
        clear_memos()
        first = catalog("gamma_raw", 8)
        clear_memos()
        second = catalog("gamma_raw", 8)
        assert first.F == second.F and first.F is not second.F
        phi = canonical_strict_iso(second, catalog("additive", 8))
        calls = self.count_products(monkeypatch)
        assert check_axioms(first).passed
        assert len(calls) == 8  # F^1 .. F^8, once
        assert verify_iso(phi, second, catalog("additive", 8)).passed
        assert len(calls) == 8
        info = series._law_powers.cache_info()
        assert (info.currsize, info.misses) == (1, 1) and info.hits >= 1

    def test_orders_are_separate_entries(self):
        series._law_powers.cache_clear()
        for order in (8, 10):
            check_axioms(catalog("kontsevich", order))
        assert series._law_powers.cache_info().currsize == 2

    def test_the_memo_is_bounded(self):
        series._law_powers.cache_clear()
        bound = series._law_powers.cache_info().maxsize
        assert bound == 16
        for k in range(1, 41):
            assert check_axioms(catalog("multiplicative_t", 4, {"t": k})).passed
            assert series._law_powers.cache_info().currsize <= bound
        assert series._law_powers.cache_info().misses == 40


# The memos of requests and of derived data: each hit must equal a fresh
# computation, and each memo holds at most its bound.
_LAW_NAMES = st.sampled_from(CATALOG)
_ISO_ORDERS = st.integers(min_value=2, max_value=10)
# Params of every law that takes them: chi_rescaled has negative powers of u,
# so u must be invertible.
_BINDINGS = st.one_of(
    st.builds(lambda t: ("multiplicative_t", {"t": t}), rationals),
    st.builds(lambda t: ("kontsevich", {"t": t}), rationals),
    st.builds(lambda d, e: ("jacobi", {"delta": d, "epsilon": e}), rationals, rationals),
    st.builds(lambda d: ("jacobi", {"delta": d}), rationals),
    st.builds(lambda u: ("chi_rescaled", {"u": u}), rationals.filter(bool)),
    st.builds(lambda z: ("gamma_raw", {"zeta2": z, "gamma": 0}), rationals),
    st.builds(lambda e: ("universal_additive", {"e1": e}), rationals),
)
_REQUESTS = st.lists(
    st.tuples(st.one_of(_BINDINGS, st.sampled_from(CATALOG + DEMO_LAWS).map(lambda n: (n, {}))),
              st.integers(min_value=2, max_value=8)),
    min_size=1,
    max_size=5,
)
# Requests that fail: an unknown law, an order below 2, a param that names no
# generator of the law, or one that is not invertible where the law has
# negative powers of it.  And the same for genus series.
_FAILING_LAWS = st.one_of(
    st.tuples(st.sampled_from(("elliptic", "todd", "gamma", "")), _ISO_ORDERS, st.just({})),
    st.tuples(st.sampled_from(CATALOG + DEMO_LAWS), st.integers(-2, 1), st.just({})),
    st.tuples(_LAW_NAMES, _ISO_ORDERS, st.sampled_from(({"foo": 1}, {"zeta1": 1}, {"e0": 1}))),
    st.tuples(st.just("chi_rescaled"), _ISO_ORDERS, st.just({"u": 0})),
    st.tuples(st.just("gamma_normalized"), _ISO_ORDERS, st.just({"ipi2": 0, "gamma": 1})),
)
_FAILING_SERIES = st.one_of(
    st.tuples(st.sampled_from(("elliptic", "broken_demo", "")), _ISO_ORDERS, st.none()),
    st.tuples(st.sampled_from(GENUS_SERIES + ("gamma",)), st.integers(-3, -1), st.none()),
    st.tuples(st.sampled_from(("todd", "gamma_raw")), _ISO_ORDERS, st.just("normalized")),
    st.tuples(st.sampled_from(("gamma", "gamma_normalized")), _ISO_ORDERS, st.just("bogus")),
)


def _sorted_params(params):
    return tuple(sorted((k, R.from_rational(v)) for k, v in params.items()))


class TestDerivedDataMemos:
    @given(_LAW_NAMES, _LAW_NAMES, _ISO_ORDERS)
    def test_iso_equals_a_fresh_composition(self, source, target, order):
        a, b = catalog(source, order), catalog(target, order)
        fresh = fgl.exponential(b).compose(logarithm(a))
        canonical_strict_iso.cache_clear()
        first = canonical_strict_iso(a, b)
        assert first == fresh  # a first call, computed
        again = canonical_strict_iso(catalog(source, order), catalog(target, order))
        assert again is first and again == fresh  # a repeated call, from the memo
        assert canonical_strict_iso.cache_info().hits == 1

    @given(_LAW_NAMES, _LAW_NAMES, _ISO_ORDERS)
    def test_iso_verdict_equals_a_fresh_check(self, source, target, order):
        a, b = catalog(source, order), catalog(target, order)
        phi = canonical_strict_iso(a, b)
        fresh = verify_iso.__wrapped__(phi, a, b)
        verify_iso.cache_clear()
        first = verify_iso(phi, a, b)
        assert first == fresh and first.to_obj() == fresh.to_obj()  # computed
        again = verify_iso(Series1.from_obj(phi.to_obj()), catalog(source, order), b.F)
        assert again == fresh and verify_iso.cache_info().hits == 0  # a law and its F differ
        third = verify_iso(Series1.from_obj(phi.to_obj()), catalog(source, order), b)
        assert third is first  # an equal phi by value, from the memo
        assert verify_iso.cache_info().hits == 1

    @given(_LAW_NAMES, _ISO_ORDERS, st.booleans())
    def test_a_logarithm_hit_equals_a_fresh_derivation(self, name, order, as_series):
        """logarithm is kept by the value of its law or series: an equal one
        built apart is a hit, and equals the logarithm derived afresh."""
        law = catalog(name, order)
        key = law.F if as_series else law
        fresh = logarithm.__wrapped__(key)
        logarithm.cache_clear()
        first = logarithm(key)
        F = Series2.from_obj(law.F.to_obj())
        again = logarithm(F if as_series else replace(law, F=F))
        assert again is first and first == fresh
        assert (logarithm.cache_info().hits, logarithm.cache_info().misses) == (1, 1)

    def test_the_iso_verdict_memo_is_bounded(self):
        verify_iso.cache_clear()
        assert verify_iso.cache_info().maxsize == 16
        a, m = catalog("additive", 4), catalog("multiplicative", 4)
        for k in range(1, 41):
            phi = Series1([0, 1, Fraction(k, 2)], 4)
            assert verify_iso(phi, a, m).degree == (3 if k == 1 else 2)
            assert verify_iso.cache_info().currsize <= 16
        assert verify_iso.cache_info().misses == 40

    @given(_BINDINGS, st.integers(min_value=2, max_value=8))
    def test_bound_law_equals_the_substitution(self, binding, order):
        name, params = binding
        law = catalog(name, order, params)
        assert (law.F, law.exp) == substituted_law(catalog(name, order), params)
        assert law.params == _sorted_params(params)
        again = catalog(name, order, dict(reversed(params.items())))
        assert again is law  # the params' order is not part of the key

    def test_a_failed_binding_raises_every_time_and_is_not_kept(self):
        clear_memos()
        for _ in range(2):
            with pytest.raises(ValueError, match="must be invertible"):
                catalog("chi_rescaled", 5, {"u": 0})
        assert fgl._law.cache_info().currsize == 0

    @given(_REQUESTS, st.booleans())
    def test_any_request_sequence_equals_a_cold_substitution(self, requests, descending):
        """Requests by ascending or descending order, from an empty memo:
        each law is the substitution into a build of its own order, made
        outside every memo, and a repeated request is the same object."""
        clear_memos()
        cold = {}
        for (name, params), order in sorted(requests, key=lambda r: r[1], reverse=descending):
            law = catalog(name, order, params)
            if (name, order) not in cold:
                cold[name, order] = fgl._build(name, order)
            build = cold[name, order]
            assert (law.F, law.exp) == substituted_law(build, params)
            assert (law.name, law.params, law.construction) == (
                name, _sorted_params(params), build.construction
            )
            assert catalog(name.replace("_", "-"), order, dict(reversed(params.items()))) is law

    @given(st.one_of(
        st.tuples(st.just(catalog), _FAILING_LAWS),
        st.tuples(st.just(genus_series), _FAILING_SERIES),
    ))
    def test_a_failing_request_raises_every_time_and_is_not_kept(self, request):
        call, args = request
        clear_memos()
        catalog("additive", 4)
        genus_series("todd", 4)
        sizes = fgl._law.cache_info().currsize, genus._series.cache_info().currsize
        for _ in range(2):
            with pytest.raises((ValueError, LookupError)):
                call(*args)
        assert (fgl._law.cache_info().currsize, genus._series.cache_info().currsize) == sizes

    @given(st.sampled_from(CATALOG + DEMO_LAWS), st.lists(st.integers(2, 10), min_size=1, max_size=4))
    def test_repeated_law_view_is_one_object_and_the_truncation(self, name, orders):
        clear_memos()
        for order in orders + orders:
            law = catalog(name, order)
            assert catalog(name, order) is law
            top = fgl._BUILT[name]
            assert law == top.truncate(order) and law.order == order
            assert (law is top) == (order == top.order)

    @given(st.sampled_from(GENUS_SERIES), st.lists(st.integers(0, 10), min_size=1, max_size=4))
    def test_repeated_genus_view_is_one_object_and_the_truncation(self, name, orders):
        clear_memos()
        for order in orders + orders:
            g = genus_series(name, order)
            assert genus_series(name, order) is g
            assert g == genus._SERIES[name].truncate(order) and g.order == order

    def test_a_rebuilt_top_gives_views_of_the_new_build(self):
        """Once the cache holds another build of the key (a higher order, or
        a cleared cache), a lower order is the new build's truncation, even
        where the two builds differ in value."""
        values = iter(range(1, 100))
        build = lambda n: Series1([0] + [next(values)] * n, n)  # each build another value
        cache = {}
        series.build_once(cache, "k", 4, build)
        first = series.build_once(cache, "k", 2, build)
        assert first == cache["k"].truncate(2)
        for rebuild in (lambda: series.build_once(cache, "k", 6, build), cache.clear):
            rebuild()
            view = series.build_once(cache, "k", 2, build)
            assert view == cache["k"].truncate(2) and view != first
            first = view

    def test_each_memo_holds_at_most_its_bound(self):
        fill = {  # memo: (its bound, a call with the k-th of 1.5 times that many distinct keys)
            fgl._law: (128, lambda k: catalog("multiplicative_t", 2 + k % 3, {"t": k})),
            genus._series: (128, lambda k: genus_series(("todd", "ahat")[k % 2], 95 - k // 2)),
            canonical_strict_iso: (16, lambda k: canonical_strict_iso(
                catalog(CATALOG[k % 10], 3), catalog(CATALOG[k // 10], 3)
            )),
            logarithm: (32, lambda k: logarithm(catalog("multiplicative_t", 3, {"t": k}))),
            symfun._characteristic_log: (32, lambda k: symfun._characteristic_log(
                Series1([1, k, 1], 2), 1 + k % 2
            )),
            genus._chern_rows: (64, lambda k: genus._chern_rows(Series1([1, k, 1], 2))),
        }
        for memo, (bound, call) in fill.items():
            memo.cache_clear()
            assert memo.cache_info().maxsize == bound
            for k in range(bound * 3 // 2):
                call(k)
                assert memo.cache_info().currsize <= bound
            assert memo.cache_info().currsize == bound
