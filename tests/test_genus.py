import math
from fractions import Fraction

import pytest

from genusforge import fgl
from genusforge.fgl import EXPONENTIALS, catalog, exponential, gamma_exponential
from genusforge.genus import (
    _series_from_exponential,
    GENUS_SERIES,
    GenusSeries,
    IncompleteChernTableError,
    InsufficientOrderError,
    ManifoldDescriptor,
    ahat_pontryagin_identity,
    chi_rescaled_check,
    conjugation_equivariance_check,
    cpn_chern_numbers,
    gamma_series,
    genus_cpn,
    genus_of,
    genus_series,
    genus_table,
    half_sinh_ratio,
    hodge_chi_check,
    mishchenko_check,
    msp_agreement_check,
    normalized_gamma_report,
    numeric_gamma_validation,
    partitions,
    universal_gamma,
    zeta_map_report,
)
from genusforge.ring import RingElement, zeta_tilde_even
from genusforge.series import Series1

R = RingElement
gen = R.gen


class TestGenusSeries:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            GenusSeries(
                H=Series1([1, 1], 2), exp=Series1([0, 1], 2), name="bad"
            )
        with pytest.raises(ValueError):
            GenusSeries(H=Series1([0, 1], 2), exp=Series1([0, 1], 2), name="bad")

    def test_todd_series(self):
        g = genus_series("todd", 4)
        assert [g.H[k].as_rational() for k in range(3)] == [1, Fraction(1, 2), Fraction(1, 12)]

    def test_h_exp_product(self):
        for name in ("todd", "ahat", "gamma_raw", "kontsevich"):
            g = genus_series(name, 6)
            assert g.H * g.exp == Series1.x(6)

    def test_unknown_series(self):
        for name in ("elliptic", "broken_demo", "broken-demo"):
            with pytest.raises(ValueError, match="unknown genus series"):
                genus_series(name, 4)

    def test_presentation_selects_gamma_and_matches_every_other_name(self):
        assert genus_series("gamma", 3, "normalized") == genus_series("gamma_normalized", 3)
        assert genus_series("gamma", 3, "raw") == genus_series("gamma_raw", 3)
        assert genus_series("gamma_normalized", 3, "normalized") == genus_series("gamma_normalized", 3)
        assert genus_series("todd", 3, "raw") == genus_series("todd", 3)

    @pytest.mark.parametrize(
        "name, presentation",
        [
            ("gamma", "bogus"),
            ("todd", "bogus"),
            ("gamma_raw", "normalized"),
            ("gamma_normalized", "raw"),
            ("todd", "normalized"),
            ("kontsevich", "normalized"),
        ],
    )
    def test_presentation_that_is_unknown_or_contradicts_the_name(self, name, presentation):
        with pytest.raises(ValueError, match="presentation"):
            genus_series(name, 3, presentation)

    @pytest.mark.parametrize("name", GENUS_SERIES)
    def test_every_series_at_orders_zero_and_one(self, name):
        full = genus_series(name, 3)
        for order in (0, 1):
            g = genus_series(name, order)
            assert g.H.order == order and g.H[0] == 1
            assert (g.H, g.exp) == (full.H.truncate(order), full.exp.truncate(order))
        with pytest.raises(ValueError, match="order must be >= 0"):
            genus_series(name, -1)


class TestExponentialTableRoute:
    """Laws in fgl.EXPONENTIALS give their genus series without a law build."""

    @pytest.mark.parametrize("name", sorted(EXPONENTIALS))
    def test_matches_the_catalog_law(self, name):
        presentation = "normalized" if name.endswith("normalized") else "raw"
        for n in range(1, 9):
            via_law = exponential(catalog(name, n + 1))
            assert genus_series(name, n) == _series_from_exponential(
                via_law, n, name, presentation
            )

    def test_ahat_is_the_hyperbolic_series(self):
        for n in range(1, 9):
            ahat, hyp = genus_series("ahat", n), genus_series("hyperbolic", n)
            assert (ahat.H, ahat.exp) == (hyp.H, hyp.exp)
            assert half_sinh_ratio(n) == ahat.H

    @pytest.mark.parametrize("name", sorted(EXPONENTIALS) + ["ahat"])
    def test_builds_no_law(self, name, monkeypatch):
        monkeypatch.setattr(fgl, "_BUILT", {})
        genus_series(name, 6)
        assert fgl._BUILT == {}

    def test_closed_form_laws_still_go_through_the_catalog(self, monkeypatch):
        monkeypatch.setattr(fgl, "_BUILT", {})
        genus_series("kontsevich", 6)
        assert list(fgl._BUILT) == ["kontsevich"]


class TestGenusCpn:
    def test_todd_all_ones(self):
        g = genus_series("todd", 6)
        for n in range(7):
            assert genus_cpn(g, n) == R.one()

    def test_ahat_values(self):
        g = genus_series("ahat", 4)
        assert genus_cpn(g, 2) == R.from_rational(Fraction(-1, 8))
        assert genus_cpn(g, 3) == R.zero()
        assert genus_cpn(g, 4) == R.from_rational(Fraction(3, 128))

    def test_gamma_raw_cp1(self):
        g = gamma_series(3, "raw")
        assert genus_cpn(g, 1) == -2 * gen("gamma")

    def test_insufficient_order(self):
        g = genus_series("todd", 3)
        with pytest.raises(InsufficientOrderError):
            genus_cpn(g, 4)

    def test_multiplicative_law_signs(self):
        g = genus_series("multiplicative", 5)
        for n in range(5):
            assert genus_cpn(g, n) == R.from_rational((-1) ** n)


class TestMishchenko:
    def test_additive_trivial(self):
        g = genus_series("additive", 6)
        assert genus_cpn(g, 0) == R.one()
        assert all(genus_cpn(g, n).is_zero() for n in range(1, 6))
        assert mishchenko_check(g).passed

    def test_todd_closed_form(self):
        g = genus_series("todd", 8)
        assert mishchenko_check(g).passed
        log = g.exp.revert()
        for n in range(1, 9):
            assert log[n] == R.from_rational(Fraction(1, n))

    @pytest.mark.parametrize("name", ["todd", "ahat", "gamma_raw", "kontsevich", "chi_rescaled"])
    def test_catalog_series_order10(self, name):
        assert mishchenko_check(genus_series(name, 10)).passed

    def test_detects_corruption(self):
        g = genus_series("todd", 6)
        bad = GenusSeries.__new__(GenusSeries)
        object.__setattr__(bad, "H", g.H)
        object.__setattr__(bad, "exp", g.exp + Series1([0, 0, 0, Fraction(1, 7)], 6))
        object.__setattr__(bad, "name", "corrupt")
        object.__setattr__(bad, "presentation", "raw")
        assert not mishchenko_check(bad).passed


class TestGenusOf:
    def test_multiplicativity(self):
        g = genus_series("ahat", 6)
        value = genus_of(g, ManifoldDescriptor.projective_product([2, 2]))
        assert value == genus_cpn(g, 2) * genus_cpn(g, 2)

    def test_empty_product_is_one(self):
        g = genus_series("todd", 4)
        assert genus_of(g, ManifoldDescriptor.projective_product([])) == R.one()

    def test_todd_chern_table(self):
        g = genus_series("todd", 4)
        M = ManifoldDescriptor.from_chern(2, {(1, 1): 9, (2,): 3})
        assert genus_of(g, M) == R.one()

    def test_chern_route_matches_product_route(self):
        for name in ("todd", "ahat", "gamma_raw", "jacobi", "universal_additive"):
            g = genus_series(name, 5)
            for n in range(1, 5):
                M = ManifoldDescriptor.from_chern(n, cpn_chern_numbers(n))
                assert genus_of(g, M) == genus_cpn(g, n), (name, n)

    def test_chern_numbers_against_polynomial_oracle(self):
        from oracles import cpn_chern_numbers_oracle

        for n in range(1, 6):
            assert cpn_chern_numbers(n) == cpn_chern_numbers_oracle(n)

    def test_incomplete_table_rejected(self):
        g = genus_series("todd", 4)
        with pytest.raises(IncompleteChernTableError):
            genus_of(g, ManifoldDescriptor.from_chern(2, {(2,): 3}))
        # A descriptor built without from_chern is checked as well.
        with pytest.raises(IncompleteChernTableError):
            ManifoldDescriptor(chern_dim=2, chern={(2,): 3, (1, 1): 9, (3,): 1})

    def test_dimension_zero_checks_the_table(self):
        g = genus_series("todd", 4)
        with pytest.raises(IncompleteChernTableError):
            genus_of(g, ManifoldDescriptor.from_chern(0, {(1,): 1}))
        # K_0 = 1 pairs with the number of points
        assert genus_of(g, ManifoldDescriptor.from_chern(0, {(): 3})) == 3

    def test_partitions(self):
        assert partitions(0) == [()]
        assert sorted(partitions(4)) == sorted(
            [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        )


class TestGammaSeries:
    def test_raw_coefficients(self):
        g = gamma_series(4, "raw")
        assert g.H[1] == -gen("gamma")
        assert g.H[2] == (gen("gamma") ** 2 + gen("zeta2")) * Fraction(1, 2)

    def test_normalized_x2(self):
        g = gamma_series(4, "normalized")
        expected = gen("gamma", 1) ** 2 * gen("ipi2", -2) * Fraction(1, 2) + Fraction(-1, 48)
        assert g.H[2] == expected

    def test_exponential_matches_law_data(self):
        assert gamma_series(6, "raw").exp == gamma_exponential(7).truncate(6)

    def test_presentations_related_by_substitution(self):
        n = 6
        raw = gamma_series(n, "raw")
        norm = gamma_series(n, "normalized")
        for k in range(n + 1):
            rescaled = (raw.H[k] * gen("ipi2", -k)).reduce()
            assert rescaled == norm.H[k]

    def test_invalid_presentation(self):
        with pytest.raises(ValueError):
            gamma_series(4, "askew")

    def test_report(self):
        rep = normalized_gamma_report(8)
        assert rep.passed
        assert rep.extra["linear_term"] == "PASS"
        assert rep.extra["even_part_is_sqrt_sinh"] == "PASS"
        assert "minus" in rep.extra["odd_sum_sign"]


class TestMspAgreement:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_passes(self, m):
        assert msp_agreement_check(8, m).passed

    def test_m3_weight12(self):
        assert msp_agreement_check(12, 3).passed

    def test_mutant_fails_at_weight_one(self):
        res = msp_agreement_check(6, 2, mutant=True)
        assert not res.passed
        assert res.degree == 1
        # the surviving weight-1 defect is -2 gamma (x1 + x2)
        expected = -2 * gen("gamma") * (gen("x1") + gen("x2"))
        assert res.coefficient == expected


class TestAhatPontryagin:
    def test_passes(self):
        assert ahat_pontryagin_identity(8, 2).passed
        assert ahat_pontryagin_identity(12, 3).passed

    def test_k1_coefficient(self):
        coeff = -__import__("genusforge.ring", fromlist=["bernoulli"]).bernoulli(2) / (
            math.factorial(2) * 4
        )
        assert coeff == Fraction(-1, 48)
        assert coeff == zeta_tilde_even(1) / 2

    def test_sinh_series(self):
        s = half_sinh_ratio(6)
        assert s[0] == R.one()
        assert s[2] == R.from_rational(Fraction(-1, 24))
        assert s[4] == R.from_rational(Fraction(7, 5760))


class TestConjugation:
    def test_equivariance_up_to_cp4(self):
        assert conjugation_equivariance_check(4).passed

    def test_cp1_sign_flip(self):
        g = gamma_series(2, "normalized")
        v = genus_cpn(g, 1)
        assert v == -2 * gen("gamma") * gen("ipi2", -1)
        assert v.conjugate() == -v

    def test_raw_even_values_conjugation_fixed(self):
        g = gamma_series(4, "raw")
        v = genus_cpn(g, 2)
        assert v.conjugate() == v


class TestNumericGamma:
    def test_quarter(self):
        rep = numeric_gamma_validation(Fraction(1, 4), 20, 1e-10)
        assert rep.passed
        assert rep.extra["residual"] < 1e-10

    def test_half(self):
        rep = numeric_gamma_validation(Fraction(1, 2), 20, 1e-8)
        assert rep.passed
        # 1/Gamma(1/2) = 1/sqrt(pi)
        series = gamma_exponential(20)
        assert abs(series.evaluate(0.5) - 1 / math.sqrt(math.pi)) < 1e-8

    def test_zero_is_pole(self):
        rep = numeric_gamma_validation(0, 20, 1e-10)
        assert rep.passed

    def test_guards(self):
        with pytest.raises(ValueError):
            numeric_gamma_validation(Fraction(3, 4))
        with pytest.raises(ValueError):
            numeric_gamma_validation(Fraction(1, 4), order=5)


class TestChiRescaledAndHodge:
    def test_chi_structure(self):
        rep = chi_rescaled_check(8)
        assert rep.passed
        assert rep.extra["logarithm"].passed
        assert rep.extra["involution"].passed
        assert "-(u + 1/u)" in rep.extra["mixed_term_sign"]

    def test_hodge_sign_convention(self):
        rep = hodge_chi_check(5)
        assert rep.passed

    def test_kontsevich_genus_values(self):
        g = genus_series("kontsevich", 4)
        t = gen("t")
        assert genus_cpn(g, 1) == -(1 + t)
        assert genus_cpn(g, 2) == 1 + t + t * t


class TestUniversal:
    def test_report_passes(self):
        rep = universal_gamma(8)
        assert all(r.passed for r in rep.values())

    def test_h_coefficient_example(self):
        exp_full = Series1([0, 1] + [gen(f"e{n}") for n in range(1, 6)], 6)
        from genusforge.genus import _series_from_exponential

        g = _series_from_exponential(exp_full, 5, "universal_additive")
        assert g.H[0] == R.one()
        # coefficient of (-z)^2 is h_2 = e1^2 - e2
        assert g.H[2] == gen("e1") ** 2 - gen("e2")

    def test_specialization_linear_term(self):
        # z^2 coefficient of the universal exponential specializes to gamma
        from genusforge.symfun import SymPoly, zeta_specialize

        assert zeta_specialize(SymPoly("E", gen("e1"))) == gen("gamma")


class TestReports:
    def test_zeta_map_report(self):
        rep = zeta_map_report()
        assert rep.passed
        assert "opposite" in rep.extra["even_map_sign"]
        assert "matches" in rep.extra["odd_map_sign"]

    def test_genus_table_shape(self):
        table = genus_table("todd", 3)
        assert table["series"] == "todd"
        assert [row["n"] for row in table["rows"]] == [1, 2, 3]
        assert all(row["value"] == {"terms": [{"num": "1", "den": "1", "exps": {}}]} for row in table["rows"])
