from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from genusforge.fgl import CATALOG, catalog
from genusforge.ring import RingElement
from genusforge.series import (
    BadConstantTermError,
    NonUnitDivisionError,
    NotRevertibleError,
    Series1,
    Series2,
    bivariate_from_exp,
    compose1_2,
    exp_series,
    log_series,
    sqrt_series,
)

from conftest import rationals, ring_elements
from oracles import (
    horner_bivariate_from_exp,
    horner_compose,
    horner_compose1_2,
    newton_revert,
    pairwise_compose,
    pairwise_eval_at,
    pairwise_series1_mul,
    pairwise_series2_mul,
)

R = RingElement
gen = R.gen


@st.composite
def small_series(draw, order=6, constant=None, unit_linear=False):
    coeffs = [draw(rationals) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    if unit_linear:
        coeffs[1] = 1
    return Series1(coeffs, order)


t_polynomials = st.builds(
    lambda a, b, c: a + gen("t") * b + gen("t", 2) * c, rationals, rationals, rationals
)


@st.composite
def exponentials(draw, coefficients, universal=False):
    """z + c_2 z^2 + ... + c_n z^n with 2 <= n <= 9; with universal=True the
    coefficient of z^k is a rational multiple of the generator e_(k-1)."""
    order = draw(st.integers(min_value=2, max_value=9))
    coeffs = [0, 1]
    for k in range(2, order + 1):
        c = draw(coefficients)
        coeffs.append(gen(f"e{k - 1}") * c if universal else c)
    return Series1(coeffs, order)


# Coefficients repeat from a small drawn pool, so products share monomials.
coefficient_pools = st.lists(ring_elements(), min_size=1, max_size=4)


@st.composite
def ring_series(draw, order=3, constant=None):
    pool = draw(coefficient_pools)
    coeffs = [draw(st.sampled_from(pool)) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return Series1(coeffs, order)


@st.composite
def ring_series2(draw, order=3):
    pool = draw(coefficient_pools)
    ijs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    return Series2({ij: draw(st.sampled_from(pool)) for ij in ijs}, order)


def storage(f):
    """Every coefficient's canonical form (its sorted monomial and numerator
    pairs and its denominator), and for a Series2 the order of its stored
    indices."""
    coeffs = f._coeffs.items() if isinstance(f, Series2) else enumerate(f.coefficients())
    return [(k, sorted(c._terms.items()), c._den) for k, c in coeffs]


class TestAgainstPairwiseAccumulation:
    """Sums of products through RingElement.dot store exactly what adding one
    canonical product at a time stores."""

    @given(ring_series(order=4), ring_series(order=4))
    def test_series1_mul(self, a, b):
        assert storage(a * b) == storage(pairwise_series1_mul(a, b))

    @given(ring_series2(), ring_series2())
    def test_series2_mul(self, a, b):
        assert storage(a * b) == storage(pairwise_series2_mul(a, b))

    @given(ring_series2(), ring_series(constant=0), ring_series(constant=0))
    def test_eval_at(self, F, a, b):
        assert storage(F.eval_at(a, b)) == storage(pairwise_eval_at(F, a, b))

    @given(ring_series2(), ring_series(constant=0), ring_series(constant=0))
    def test_compose(self, F, f, g):
        assert storage(F.compose(f, g)) == storage(pairwise_compose(F, f, g))

    def test_gamma_law_at_order_8(self):
        F = bivariate_from_exp(Series1([0, 1, gen("gamma"), gen("zeta2"), gen("zeta3")], 8))
        f = Series1([0, 1, gen("gamma", 1, Fraction(1, 2)), gen("zeta3")], 8)
        assert storage(F * F) == storage(pairwise_series2_mul(F, F))
        assert storage(F.eval_at(f, f)) == storage(pairwise_eval_at(F, f, f))
        assert storage(F.compose(f, f)) == storage(pairwise_compose(F, f, f))

    @pytest.mark.parametrize("name", CATALOG)
    def test_eval_at_reaches_total_degree_6(self, name):
        """Dense inner series carry every coefficient of an order-6 law, up
        to total degree 6, into the result."""
        F = catalog(name, 6).F
        a = Series1([0, 1, Fraction(1, 2), gen("gamma"), -1, Fraction(1, 3), 2], 6)
        b = Series1([0, -1, 1, Fraction(-1, 4), gen("t"), 1, -3], 6)
        assert storage(F.eval_at(a, b)) == storage(pairwise_eval_at(F, a, b))


# Coefficients over t, the zeta generators and the Laurent generator u.
u_elements = st.builds(lambda c, e: c * gen("u", e), ring_elements(), st.integers(-2, 2))
orders = st.integers(min_value=0, max_value=6)


@st.composite
def graded_series1(draw, constant=None):
    pool = draw(st.lists(u_elements, min_size=1, max_size=3))
    order = draw(orders)
    coeffs = [draw(st.sampled_from(pool)) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return Series1(coeffs, order)


@st.composite
def graded_series2(draw, max_order=4):
    pool = draw(st.lists(u_elements, min_size=1, max_size=3))
    order = draw(st.integers(min_value=0, max_value=max_order))
    ijs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i) if i + j]
    return Series2({ij: draw(st.sampled_from(pool)) for ij in ijs}, order)


class TestGradedComposition:
    """Compositions at the precision each step needs equal the full-order
    Horner loops, for inner and outer series of any two orders."""

    @given(graded_series1(), graded_series1(constant=0))
    def test_series1_compose(self, outer, inner):
        assert outer.compose(inner) == horner_compose(outer, inner)

    @given(graded_series1(), graded_series2())
    def test_compose1_2(self, outer, inner):
        assert compose1_2(outer, inner) == horner_compose1_2(outer, inner)

    @given(graded_series2(), graded_series1(constant=0), graded_series1(constant=0))
    def test_series2_compose(self, F, f, g):
        n = min(F.order, f.order, g.order)
        expected = pairwise_compose(F.truncate(n), f.truncate(n), g.truncate(n))
        assert F.compose(f, g) == expected

    @given(graded_series2(), graded_series1(constant=0), graded_series1(constant=0))
    def test_eval_at(self, F, a, b):
        assert F.eval_at(a, b) == pairwise_eval_at(F, a, b)

    def test_compose1_2_stops_at_the_outer_order(self):
        from genusforge.fgl import catalog

        F = catalog("multiplicative", 6).F
        out = compose1_2(Series1([0, 1, -1, 1], 3), F)
        # z - z^2 + z^3 is z/(1+z) to order 3; degree 4 of the result is unknown.
        assert out.order == 3 and out[(2, 2)].is_zero()
        assert out == compose1_2(Series1([0, 1, -1, 1, -1, 1, -1], 6), F).truncate(3)

    def test_series2_compose_lower_order_inner(self):
        F = Series2({(1, 0): 1, (0, 1): 1, (1, 1): gen("t")}, 6)
        f = exp_series(Series1.x(4)) - 1
        g = Series1.x(5)
        out = F.compose(f, g)
        assert out.order == 4
        assert out == F.truncate(4).compose(f, g.truncate(4))


class TestArith:
    def test_basic_identities(self):
        n = 6
        z = Series1.x(n)
        one = Series1.constant(1, n)
        assert (one + z) * (one - z) == one - z * z
        geo = one / (one - z)
        assert geo == Series1([1] * (n + 1), n)
        f = z + z * z * gen("gamma")
        assert f * z == Series1([0, 0, 1, gen("gamma")], n)

    def test_div_requires_unit(self):
        n = 4
        with pytest.raises(NonUnitDivisionError):
            Series1.x(n) / Series1.x(n)

    def test_div_by_laurent_unit_constant(self):
        n = 4
        t = gen("t")
        f = Series1.constant(t, n) + Series1.x(n)
        out = Series1.constant(1, n) / f
        assert (out * f) == Series1.constant(1, n)

    @given(small_series(), small_series(), st.integers(min_value=0, max_value=6))
    def test_truncation_functoriality(self, a, b, m):
        assert (a * b).truncate(m) == (a.truncate(m) * b.truncate(m))
        assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            Series1.x(3) + Series1.x(4)


def _keys(kind, order):
    if kind is Series1:
        return list(range(order + 1))
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


def _build(kind, coeffs, order):
    """The series of the given kind with coefficients {key: RingElement}."""
    if kind is Series1:
        return Series1([coeffs[n] for n in range(order + 1)], order)
    return Series2(coeffs, order)


@st.composite
def same_kind_pairs(draw):
    """Two series of one kind and one order, with coefficients from one small
    pool (zero included), so that sums and differences cancel."""
    kind = draw(st.sampled_from([Series1, Series2]))
    order = draw(st.integers(min_value=0, max_value=4))
    pool = draw(coefficient_pools) + [R.zero()]
    f, g = (
        _build(kind, {k: draw(st.sampled_from(pool)) for k in _keys(kind, order)}, order)
        for _ in range(2)
    )
    return f, g


scalars = st.one_of(st.integers(min_value=-3, max_value=3), ring_elements())
units = st.builds(
    lambda c, e: gen("t", e, c), rationals.filter(bool), st.integers(min_value=-2, max_value=2)
)


class TestCoefficientWiseCore:
    """Series1 and Series2 share one coefficient-wise core: each operation
    equals the RingElement operation on every coefficient."""

    @given(same_kind_pairs(), scalars, units)
    def test_against_each_coefficient(self, pair, c, u):
        f, g = pair
        kind, n = type(f), f.order
        keys = _keys(kind, n)
        # a scalar is the series with c at the constant term (keys[0]) alone
        c_at = {k: R.zero() for k in keys}
        c_at[keys[0]] = c if isinstance(c, R) else R.from_rational(c)

        def each(fn):
            return _build(kind, {k: fn(k) for k in keys}, n)

        def square(a):  # sends 0 to 0, as map_coefficients requires
            return a * a - a * 3

        assert f + g == each(lambda k: f[k] + g[k])
        assert f - g == each(lambda k: f[k] - g[k])
        assert f + c == each(lambda k: f[k] + c_at[k])
        assert f - c == each(lambda k: f[k] - c_at[k])
        assert c - f == each(lambda k: c_at[k] - f[k])
        assert -f == each(lambda k: -f[k])
        assert f * c == each(lambda k: f[k] * c)
        assert f / u == each(lambda k: f[k] * u.inverse())
        assert f.map_coefficients(square) == each(lambda k: square(f[k]))

    @given(same_kind_pairs())
    def test_equal_series_hash_equally(self, pair):
        f, g = pair
        again = (f + g) - g
        assert again == f and hash(again) == hash(f)
        assert f - f == type(f).zeros(f.order) and (f - f).is_zero()

    @given(ring_elements(), st.integers(min_value=0, max_value=4))
    def test_kinds_never_equal(self, c, n):
        for a, b in [
            (Series1.zeros(n), Series2.zeros(n)),
            (Series1.constant(c, n), Series2.constant(c, n)),
        ]:
            assert a != b and b != a
            assert not a == b and not b == a

    @pytest.mark.parametrize("kind", [Series1, Series2])
    def test_mismatched_orders_raise(self, kind):
        f, g = kind.constant(1, 3), kind.constant(1, 4)
        for op in (lambda: f + g, lambda: f - g, lambda: g - f, lambda: f * g, lambda: f / g):
            with pytest.raises(ValueError):
                op()


class TestCompose:
    def test_known_compositions(self):
        n = 4
        z = Series1.x(n)
        sq = z * z
        inner = z + z * z
        assert sq.compose(inner) == Series1([0, 0, 1, 2, 1], n)
        e = exp_series(z) - 1
        lg = log_series(Series1.constant(1, n) + z)
        assert e.compose(lg) == z
        f = Series1([3, 1, Fraction(1, 2), 0, 5], n)
        assert f.compose(z) == f

    def test_inner_constant_guard(self):
        with pytest.raises(BadConstantTermError):
            Series1.x(4).compose(Series1.constant(1, 4))

    @given(small_series(constant=0), small_series(constant=0), small_series(constant=0))
    def test_associativity(self, f, g, h):
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


class TestRevert:
    def test_identity(self):
        assert Series1.x(5).revert() == Series1.x(5)

    def test_catalan(self):
        n = 6
        z = Series1.x(n)
        g = (z - z * z).revert()
        assert [g[k].as_rational() for k in range(7)] == [0, 1, 1, 2, 5, 14, 42]

    def test_exp_log_pair(self):
        n = 8
        z = Series1.x(n)
        e = exp_series(z) - 1
        assert e.revert() == log_series(Series1.constant(1, n) + z)

    @given(small_series(order=7, constant=0, unit_linear=True))
    def test_against_newton_oracle(self, f):
        assert f.revert() == newton_revert(f)

    @given(small_series(order=5, constant=0), rationals.filter(bool))
    def test_non_unit_linear_against_newton_oracle(self, f, c):
        f = f + Series1.x(5) * (c - f[1])
        assert f.revert() == newton_revert(f)

    def test_order_zero_and_one(self):
        assert Series1.zeros(0).revert() == Series1.zeros(0)
        assert Series1([0, 3], 1).revert() == Series1([0, Fraction(1, 3)], 1)
        assert Series1([0, gen("t")], 1).revert() == Series1([0, gen("t", -1)], 1)
        with pytest.raises(NotRevertibleError):
            Series1.constant(1, 0).revert()
        with pytest.raises(NotRevertibleError):
            Series1.zeros(1).revert()

    @given(small_series(order=6, constant=0, unit_linear=True))
    def test_involution(self, f):
        g = f.revert()
        assert g.revert() == f
        assert f.compose(g) == Series1.x(6)
        assert g.compose(f) == Series1.x(6)

    def test_not_revertible(self):
        with pytest.raises(NotRevertibleError):
            (Series1.constant(1, 4) + Series1.x(4)).revert()
        with pytest.raises(NotRevertibleError):
            (Series1.x(4) * Series1.x(4)).revert()


class TestAnalytic:
    def test_exp_series(self):
        n = 6
        e = exp_series(Series1.x(n))
        assert [e[k].as_rational() for k in range(5)] == [
            1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24),
        ]

    def test_log_series(self):
        n = 6
        lg = log_series(Series1.constant(1, n) + Series1.x(n))
        assert [lg[k].as_rational() for k in range(5)] == [
            0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4),
        ]

    def test_sqrt_feeds_hyperbolic_law(self):
        n = 6
        z = Series1.x(n)
        s = sqrt_series(Series1.constant(1, n) + z * z * Fraction(1, 4))
        assert [s[k].as_rational() for k in range(6)] == [
            1, 0, Fraction(1, 8), 0, Fraction(-1, 128), 0,
        ]

    @given(small_series(constant=0))
    def test_exp_log_inverse(self, f):
        assert log_series(exp_series(f)) == f

    @given(small_series(constant=1))
    def test_sqrt_squares_back(self, f):
        s = sqrt_series(f)
        assert s * s == f

    def test_constant_guards(self):
        with pytest.raises(BadConstantTermError):
            exp_series(Series1.constant(1, 3))
        with pytest.raises(BadConstantTermError):
            log_series(Series1.x(3))
        with pytest.raises(BadConstantTermError):
            sqrt_series(Series1.x(3))


class TestBivariate:
    def test_additive(self):
        F = bivariate_from_exp(Series1.x(5))
        assert F == Series2({(1, 0): 1, (0, 1): 1}, 5)

    def test_multiplicative_exact(self):
        n = 8
        F = bivariate_from_exp(exp_series(Series1.x(n)) - 1)
        assert F == Series2({(1, 0): 1, (0, 1): 1, (1, 1): 1}, n)

    def test_gamma_leading_term(self):
        from genusforge.fgl import gamma_exponential

        F = bivariate_from_exp(gamma_exponential(3))
        assert F[(1, 1)] == gen("gamma") * 2

    def test_requires_unit_linear(self):
        with pytest.raises(NotRevertibleError):
            bivariate_from_exp(Series1.x(4) * 2)
        with pytest.raises(NotRevertibleError):
            bivariate_from_exp(Series1.x(4) + 1)

    @given(exponentials(rationals))
    def test_rational_against_horner_oracle(self, exp):
        assert bivariate_from_exp(exp) == horner_bivariate_from_exp(exp)

    @given(exponentials(t_polynomials))
    def test_one_parameter_against_horner_oracle(self, exp):
        assert bivariate_from_exp(exp) == horner_bivariate_from_exp(exp)

    @given(exponentials(rationals, universal=True))
    def test_universal_against_horner_oracle(self, exp):
        assert bivariate_from_exp(exp) == horner_bivariate_from_exp(exp)

    def test_series2_mul_and_inverse(self):
        n = 6
        den = Series2({(0, 0): 1, (1, 1): gen("t", 1, -1)}, n)
        inv = den.inverse()
        assert den * inv == Series2.constant(1, n)

    def test_series2_compose(self):
        n = 5
        F = Series2({(1, 0): 1, (0, 1): 1, (1, 1): 1}, n)
        phi = exp_series(Series1.x(n)) - 1
        lhs = compose1_2(phi, F)
        rhs = F.compose(phi, phi)
        assert isinstance(lhs, Series2) and isinstance(rhs, Series2)

    def test_eval_at(self):
        n = 5
        F = Series2({(1, 0): 1, (0, 1): 1, (1, 1): 1}, n)
        z = Series1.x(n)
        w = F.eval_at(z, z)  # F(z, z) = 2z + z^2
        assert w == Series1([0, 2, 1], n)

    def test_symmetry_probe(self):
        F = Series2({(1, 0): 1, (0, 1): 1, (2, 1): 1}, 4)
        assert not F.is_symmetric()
        assert F.swap() == Series2({(1, 0): 1, (0, 1): 1, (1, 2): 1}, 4)


class TestJson:
    @given(small_series(order=4))
    def test_series1_round_trip(self, f):
        assert Series1.from_json(f.to_json()) == f

    def test_series1_dense_layout(self):
        f = Series1([1, 0, Fraction(1, 2)], 3)
        obj = f.to_obj()
        assert obj["order"] == 3
        assert len(obj["coeffs"]) == 4

    def test_series2_round_trip(self):
        F = Series2({(1, 0): 1, (0, 1): 1, (1, 1): gen("t")}, 5)
        assert Series2.from_json(F.to_json()) == F

    def test_series2_omits_zeros(self):
        F = Series2({(1, 0): 1, (0, 1): 1}, 5)
        assert set(F.to_obj()["coeffs"]) == {"1,0", "0,1"}


class TestTruncationFunctoriality:
    @given(small_series(constant=0), st.integers(min_value=1, max_value=6))
    def test_exp(self, f, m):
        assert exp_series(f).truncate(m) == exp_series(f.truncate(m))

    @given(small_series(constant=1), st.integers(min_value=0, max_value=6))
    def test_sqrt(self, f, m):
        assert sqrt_series(f).truncate(m) == sqrt_series(f.truncate(m))

    @given(
        small_series(constant=0, unit_linear=True),
        st.integers(min_value=1, max_value=6),
    )
    def test_revert(self, f, m):
        assert f.revert().truncate(m) == f.truncate(m).revert()

    @given(
        small_series(),
        small_series(constant=0),
        st.integers(min_value=0, max_value=6),
    )
    def test_compose(self, f, g, m):
        assert f.compose(g).truncate(m) == f.truncate(m).compose(g.truncate(m))
