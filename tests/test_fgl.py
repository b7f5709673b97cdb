from fractions import Fraction

import pytest

from genusforge import fgl
from genusforge.fgl import (
    CATALOG,
    FormalGroupLaw,
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
from genusforge.ring import RingElement
from genusforge.series import Series1, Series2, bivariate_from_exp, exp_series, log_series

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


class TestNSeries:
    def test_small_multiples(self):
        n = 6
        assert n_series(catalog("additive", n), 5) == Series1.x(n) * 5
        two = n_series(catalog("multiplicative", n), 2)
        assert two == Series1([0, 2, 1], n)
        minus = n_series(catalog("multiplicative", n), -1)
        assert minus == negation_series(catalog("multiplicative", n))

    def test_one_is_identity(self):
        for name in CATALOG:
            law = catalog(name, 5)
            assert n_series(law, 1) == Series1.x(5)

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

    def test_exp_pair(self):
        a = catalog("additive", 8)
        m = catalog("multiplicative", 8)
        phi = exp_series(Series1.x(8)) - 1
        assert verify_iso(phi, a, m).passed


class TestMobiusSweep:
    def test_definitive_report(self):
        records = mobius_sweep(8)
        assert len(records) == 12
        conventions = {rec["convention"] for rec in records}
        assert conventions == {"row_matrix", "row_inverse", "col_matrix", "col_inverse"}
        targets = {rec["target"] for rec in records}
        assert targets == {"additive", "multiplicative", "multiplicative_t"}
        for rec in records:
            assert rec["status"] in ("PASS", "FAIL")
        # adjudication outcome: the face-value readings all fail at degree 2
        assert all(rec["status"] == "FAIL" for rec in records)
        assert all(rec["fail_degree"] == 2 for rec in records)

    def test_row_matrix_is_strict(self):
        records = mobius_sweep(6)
        rm = [r for r in records if r["convention"] == "row_matrix"]
        assert all(r["strict_linear_term"] for r in rm)
        assert all(not r["normalized_unit"] for r in rm)


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


@pytest.fixture
def cold_cache():
    fgl._BUILT.clear()
    yield
    fgl._BUILT.clear()


def _cold(name, order):
    fgl._BUILT.clear()
    law = catalog(name, order)
    return law.F, law.exp


class TestLawCache:
    @pytest.mark.parametrize("name", CATALOG)
    def test_lower_orders_are_truncations_of_one_build(self, name, cold_cache):
        top = _cold(name, 10)
        for order in range(2, 10):
            cold = _cold(name, order)
            law = catalog(name, 10)  # a cold low order first, then the top
            assert (law.F, law.exp) == top
            law = catalog(name, order)  # the top first, then a low order
            assert (law.F, law.exp) == cold

    def test_one_entry_per_law_at_the_highest_order(self, cold_cache):
        for order in (4, 8, 6):
            catalog("hyperbolic", order)
        assert list(fgl._BUILT) == ["hyperbolic"]
        assert fgl._BUILT["hyperbolic"][0].order == 8

    def test_params_do_not_leak_into_the_cache(self, cold_cache):
        bound = catalog("jacobi", 6, params={"delta": Fraction(-1, 8), "epsilon": 0})
        assert bound.F == catalog("hyperbolic", 6).F
        free = catalog("jacobi", 6)
        assert free.params == {}
        gens = set().union(*(c.generators() for _, c in free.F.items()))
        assert {"delta", "epsilon"} <= gens


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
