from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from genusforge import series
from genusforge.fgl import CATALOG, EXPONENTIALS, catalog, gamma_exponential
from genusforge.ring import NonUnitError, RingElement
from genusforge.series import (
    BadConstantTermError,
    NonUnitDivisionError,
    NotRevertibleError,
    Series1,
    Series2,
    _power_table,
    _unit_power,
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
    lagrange_bivariate_from_exp,
    lagrange_rows_by_multiplication,
    miller_revert,
    newton_revert,
    pairwise_compose,
    pairwise_eval_at,
    pairwise_series1_mul,
    pairwise_series2_mul,
    scan_is_symmetric,
)

R = RingElement
gen = R.gen


# Every strategy is built once, not per draw (see conftest): a strategy built
# inside a composite is made, unwrapped and validated again for every example.
# One that depends on a drawn value is built once per value, and an element
# of a drawn pool is drawn as its index.
@lru_cache(maxsize=None)
def _integers(lo, hi):
    return st.integers(min_value=lo, max_value=hi)


def _pick(draw, pool):
    """draw(st.sampled_from(pool)), through an index strategy built once per
    pool size."""
    return pool[draw(_integers(0, len(pool) - 1))]


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
    order = draw(_integers(2, 9))
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
    coeffs = [_pick(draw, pool) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return Series1(coeffs, order)


@st.composite
def ring_series2(draw, order=3):
    pool = draw(coefficient_pools)
    ijs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    return Series2({ij: _pick(draw, pool) for ij in ijs}, order)


@st.composite
def sparse_series2(draw, order=6):
    """Some of the indices up to total degree order, stored in a drawn order."""
    pool = draw(coefficient_pools)
    ijs = draw(_index_permutations(order))
    kept = ijs[: draw(_integers(0, len(ijs)))]
    return Series2({ij: _pick(draw, pool) for ij in kept}, order)


@lru_cache(maxsize=None)
def _index_permutations(order):
    return st.permutations([(i, j) for i in range(order + 1) for j in range(order + 1 - i)])


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

    @given(sparse_series2(), sparse_series2())
    def test_series2_mul_of_sparse_operands_in_any_stored_order(self, a, b):
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
u_pools = st.lists(u_elements, min_size=1, max_size=3)


@st.composite
def graded_series1(draw, constant=None):
    pool = draw(u_pools)
    order = draw(orders)
    coeffs = [_pick(draw, pool) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return Series1(coeffs, order)


@st.composite
def graded_series2(draw, max_order=4):
    pool = draw(u_pools)
    order = draw(_integers(0, max_order))
    ijs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i) if i + j]
    return Series2({ij: _pick(draw, pool) for ij in ijs}, order)


class TestGradedComposition:
    """Compositions, which compute only the precision and the powers that
    reach their result, equal the full-order Horner loops, for inner and
    outer series of any two orders."""

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

    def test_compose1_2_of_a_lower_order_outer_reads_the_whole_law(self):
        """The powers are those of the whole inner law, read to the outer
        order: one memo miss for F, and no entry for F's truncation."""
        F = catalog("gamma_raw", 8).F
        outer = Series1([0, 1, gen("zeta3"), Fraction(1, 2), -1, 2], 5)
        series._law_powers.cache_clear()
        out = compose1_2(outer, F)
        series._law_powers(F)
        info = series._law_powers.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert out.order == 5 and out == horner_compose1_2(outer, F)

    def test_series2_compose_lower_order_inner(self):
        F = Series2({(1, 0): 1, (0, 1): 1, (1, 1): gen("t")}, 6)
        f = exp_series(Series1.x(4)) - 1
        g = Series1.x(5)
        out = F.compose(f, g)
        assert out.order == 4
        assert out == F.truncate(4).compose(f, g.truncate(4))


@st.composite
def symmetric_series2(draw, order=4, constant=True):
    """A symmetric series: (i, j) and (j, i) share one drawn coefficient."""
    pool = draw(coefficient_pools)
    coeffs = {}
    for i in range(order + 1):
        for j in range(i, order + 1 - i):
            if constant or i + j:
                coeffs[(i, j)] = coeffs[(j, i)] = _pick(draw, pool)
    return Series2(coeffs, order)


@st.composite
def perturbed_series2(draw, order=4, constant=True):
    """A symmetric series with one coefficient off its mirror by 1 or t."""
    F = draw(_symmetric_series2(order, constant))
    i = draw(_integers(0, (order - 1) // 2))
    j = draw(_integers(i + 1, order - i))
    ij = _pick(draw, [(i, j), (j, i)])
    return F + Series2({ij: draw(_one_or_t)}, order)


_symmetric_series2 = lru_cache(maxsize=None)(symmetric_series2)
_one_or_t = st.sampled_from([R.one(), gen("t")])


def summed_indices(monkeypatch):
    """A list that gains, per Series2 built from sums of products, the
    number of indices summed (the others are mirrored): the RingElement.dot
    calls made inside that one _dotted call."""
    dotted, dot, counts = series._dotted, RingElement.dot, []

    def counted(pairs, order, symmetric):
        calls = []

        def counted_dot(ps):
            calls.append(None)
            return dot(ps)

        with monkeypatch.context() as patch:
            patch.setattr(RingElement, "dot", staticmethod(counted_dot))
            result = dotted(pairs, order, symmetric)
        counts.append(len(calls))
        return result

    monkeypatch.setattr(series, "_dotted", counted)
    return counts


class TestSymmetricHalf:
    """A product or a composition whose result is symmetric sums only its
    (i, j) with i <= j and mirrors the rest; it stores what adding every
    product one at a time stores, index order included."""

    @given(
        st.one_of(symmetric_series2(), perturbed_series2(), ring_series2(order=4)),
        st.one_of(symmetric_series2(), perturbed_series2(), ring_series2(order=4)),
    )
    def test_series2_mul(self, a, b):
        product = a * b
        assert storage(product) == storage(pairwise_series2_mul(a, b))
        if a.is_symmetric() and b.is_symmetric():
            assert product.is_symmetric()

    def test_a_symmetric_product_sums_one_half(self, monkeypatch):
        F = catalog("gamma_raw", 6).F
        G = F + Series2({(1, 2): 1}, 6)
        assert not G.is_symmetric()
        counts = summed_indices(monkeypatch)
        FF, GF = F * F, G * F
        assert counts == [sum(1 for i, j in FF._coeffs if i <= j), len(GF._coeffs)]
        assert counts[0] < len(FF._coeffs)

    def test_compose1_2_into_a_symmetric_series_sums_one_half(self, monkeypatch):
        F = catalog("gamma_raw", 6).F
        phi = Series1([0, 1, gen("zeta3"), Fraction(1, 2), 1, -1, 2], 6)
        series._law_powers(F)
        counts = summed_indices(monkeypatch)
        out = compose1_2(phi, F)
        assert out.is_symmetric()
        assert counts == [sum(1 for i, j in out._coeffs if i <= j)]

    @given(
        graded_series1(),
        st.one_of(symmetric_series2(constant=False), perturbed_series2(constant=False)),
    )
    def test_compose1_2(self, outer, inner):
        assert compose1_2(outer, inner) == horner_compose1_2(outer, inner)

    @given(
        st.one_of(symmetric_series2(), perturbed_series2()),
        ring_series(order=4, constant=0),
        ring_series(order=4, constant=0),
    )
    def test_series2_compose_with_one_inner_series(self, F, f, g):
        assert storage(F.compose(f, f)) == storage(pairwise_compose(F, f, f))
        assert storage(F.compose(f, g)) == storage(pairwise_compose(F, f, g))

    @given(st.one_of(symmetric_series2(), perturbed_series2()), ring_series(order=4, constant=0))
    def test_eval_at_one_inner_series(self, F, a):
        assert storage(F.eval_at(a, a)) == storage(pairwise_eval_at(F, a, a))

    def test_compose_with_one_inner_series_sums_one_half(self, monkeypatch):
        F = catalog("gamma_raw", 6).F
        f = Series1([0, 1, gen("zeta3"), Fraction(1, 2), gen("gamma"), 1, -1], 6)
        g = f + Series1([0, 0, 0, 1], 6)
        counts = summed_indices(monkeypatch)
        ff, fg = F.compose(f, f), F.compose(f, g)
        assert ff.is_symmetric() and not fg.is_symmetric()
        assert counts == [sum(1 for i, j in ff._coeffs if i <= j), len(fg._coeffs)]


def assert_verdict(F):
    """F's symmetry verdict is what a fresh scan finds, asked twice."""
    expected = scan_is_symmetric(F)
    assert F.is_symmetric() is expected
    assert F.is_symmetric() is expected


def eq_calls(monkeypatch):
    """A list that gains one entry per RingElement.__eq__ call."""
    eq, calls = RingElement.__eq__, []

    def counted(self, other):
        calls.append(None)
        return eq(self, other)

    monkeypatch.setattr(RingElement, "__eq__", counted)
    return calls


any_series2 = st.one_of(symmetric_series2(), perturbed_series2(), ring_series2(order=4))


class TestSymmetryVerdict:
    """A Series2 keeps one symmetry verdict, found by one scan or recorded by
    the half sum that built it, and it is the verdict of a fresh scan
    whichever operation built the value."""

    @given(any_series2, any_series2, st.integers(0, 4))
    def test_after_arithmetic(self, a, b, k):
        for F in (Series2(dict(a._coeffs), a.order), a, b, a * b, a * a, a + b, a - b):
            assert_verdict(F)
        for F in (a.swap(), a.truncate(k), (a * b).swap(), (a * a).truncate(k)):
            assert_verdict(F)

    @given(
        st.one_of(symmetric_series2(), perturbed_series2()),
        st.one_of(symmetric_series2(constant=False), perturbed_series2(constant=False)),
        ring_series(order=4, constant=0),
        ring_series(order=4, constant=0),
        graded_series1(),
    )
    def test_after_composition(self, F, inner, f, g, outer):
        for G in (F.compose(f, f), F.compose(f, g), compose1_2(outer, inner)):
            assert_verdict(G)
        for G in (*series._law_powers(F), *series._law_powers(inner)):
            assert_verdict(G)

    @given(exponentials(t_polynomials))
    def test_after_bivariate_from_exp(self, exp):
        F = bivariate_from_exp(exp)
        assert_verdict(F)
        for G in series._law_powers(F):
            assert_verdict(G)

    @pytest.mark.parametrize("name", [*CATALOG, "broken_demo"])
    def test_law_powers_of_each_law(self, name):
        for G in series._law_powers.__wrapped__(catalog(name, 6).F):
            assert_verdict(G)

    def test_a_value_is_scanned_once(self, monkeypatch):
        F = Series2(dict(catalog("gamma_raw", 6).F._coeffs), 6)
        calls = eq_calls(monkeypatch)
        assert F.is_symmetric() and calls
        del calls[:]
        assert F.is_symmetric() and not calls

    def test_law_powers_scans_a_fresh_law_once(self, monkeypatch):
        """The powers of F re-test nothing: F is scanned once, and each power
        is built by a half sum that records its verdict."""
        law = catalog("gamma_raw", 8).F
        F, G = (Series2(dict(law._coeffs), law.order) for _ in range(2))
        series._law_powers.cache_clear()
        calls = eq_calls(monkeypatch)
        assert G.is_symmetric()
        one_scan = len(calls)
        powers = series._law_powers(F)
        assert len(calls) == 2 * one_scan > 0
        assert all(P.is_symmetric() for P in powers) and len(calls) == 2 * one_scan


class TestNoStoredZeros:
    """A bivariate product or composition stores no zero coefficient, the
    mirror of a zero sum included, and keeps the index order of the
    all-pairs loop."""

    def test_cancelling_products(self):
        a = Series2({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 4)
        b = Series2({(0, 0): 1, (1, 0): -1, (0, 1): -1}, 4)
        c = Series2({(0, 0): 1, (1, 0): -1, (0, 1): -gen("t")}, 4)
        assert list((a * b)._coeffs) == [(0, 0), (2, 0), (1, 1), (0, 2)]
        assert list((a * c)._coeffs) == [(0, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_logarithm_of_the_multiplicative_law_separates(self):
        n = 6
        log = log_series(Series1.constant(1, n) + Series1.x(n))
        out = compose1_2(log, catalog("multiplicative", n).F)
        pure = [(k, 0) for k in range(1, n + 1)] + [(0, k) for k in range(1, n + 1)]
        assert sorted(out._coeffs) == sorted(pure)

    @given(
        st.one_of(symmetric_series2(), sparse_series2(order=4)),
        st.one_of(symmetric_series2(), sparse_series2(order=4)),
        ring_series(order=4),
        ring_series(order=4, constant=0),
    )
    def test_no_zero_is_stored(self, a, b, outer, f):
        inner = a - a[(0, 0)]
        for out in (a * b, compose1_2(outer, inner), a.compose(f, f), a.compose(f, f * 2)):
            assert not any(c.is_zero() for c in out._coeffs.values())


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


_kinds = st.sampled_from([Series1, Series2])


@st.composite
def same_kind_pairs(draw):
    """Two series of one kind and one order, with coefficients from one small
    pool (zero included), so that sums and differences cancel."""
    kind = draw(_kinds)
    order = draw(_integers(0, 4))
    pool = draw(coefficient_pools) + [R.zero()]
    f, g = (
        _build(kind, {k: _pick(draw, pool) for k in _keys(kind, order)}, order)
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
        # a scalar that cancels the constant term leaves no zero stored
        assert f - f[keys[0]] == each(lambda k: R.zero() if k == keys[0] else f[k])
        assert -f == each(lambda k: -f[k])
        assert f * c == each(lambda k: f[k] * c)
        assert f / u == each(lambda k: f[k] * u.inverse())
        assert f.map_coefficients(square) == each(lambda k: square(f[k]))

    @given(same_kind_pairs(), st.one_of(st.just(0), rationals, st.integers(), st.fractions()))
    def test_rational_scale_and_quotient_are_the_element_route(self, pair, q):
        f = pair[0]
        kind, n, c = type(f), f.order, R.from_rational(q)
        keys = _keys(kind, n)

        def each(y):
            return _build(kind, {k: R.dot([(f[k], y)]) for k in keys}, n)

        assert f * q == q * f == each(c)
        assert storage(f * q) == storage(each(c))
        if q:
            assert f / q == each(c.inverse()) and storage(f / q) == storage(each(c.inverse()))
        else:
            with pytest.raises(NonUnitError, match="^not a monomial unit: 0$"):
                f / q

    def test_an_int_divisor_makes_no_fraction(self):
        """exp_series, integrate, sqrt_series and a quotient by an int divide
        each coefficient by the int through the ring's scaling: no Fraction
        is made, and each result is the one a Fraction reciprocal gives."""
        f = Series1([0, R.gen("gamma", 1, 3), R.gen("t", -1, Fraction(1, 2)), 5], 3)
        g = Series2({(1, 0): 1, (0, 1): 1, (1, 1): R.gen("gamma")}, 3)
        made = AssertionError("a Fraction was made")
        with mock.patch.object(Fraction, "__new__", side_effect=made):
            got = [exp_series(f), f.integrate(), sqrt_series(f + 1), f / 6, f / -4, g / 3]
        integral = [0] + [c * Fraction(1, n + 1) for n, c in enumerate(f.coefficients())]
        integral = Series1(integral, 4)
        assert got[1] == integral
        assert got[3:] == [f * Fraction(1, 6), f * Fraction(-1, 4), g * Fraction(1, 3)]
        assert got[:3] == [exp_series(f), integral, sqrt_series(f + 1)]

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

    @pytest.mark.parametrize(
        "c", [gen("t"), 2 * gen("ipi2"), gen("u", -1) * Fraction(-1, 3)], ids=str
    )
    @given(f=small_series(order=8, constant=0))
    def test_laurent_unit_linear_against_newton_oracle(self, c, f):
        for order in range(1, 9):
            g = f.truncate(order)
            g = g + Series1.x(order) * (c - g[1])
            assert g.revert() == newton_revert(g), order

    def test_polynomial_linear_coefficient_is_not_revertible(self):
        for order in (1, 4):
            with pytest.raises(NotRevertibleError):
                (Series1.x(order) * gen("gamma")).revert()

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


class TestLagrangeRows:
    """Reverting an exponential builds the table of its logarithm's powers,
    whose row a is P_a[i] = [z^i] log^a = (a/i) [w^(i-a)] (w/exp(w))^i by
    Lagrange-Buermann; the oracle builds the rows (w/exp(w))^i by one
    division and repeated full-order products.  series._unit_power, Miller's
    recurrence, serves genus._cpn."""

    @given(st.data(), st.lists(ring_elements(), max_size=4), st.integers(-6, 6))
    def test_unit_power_against_repeated_products(self, data, tail, a):
        b = [R.one(), *tail]
        top = data.draw(_integers(0, len(tail)))
        B, power = Series1(b, top), Series1.constant(1, top)
        for _ in range(abs(a)):
            power = pairwise_series1_mul(power, B)
        got = Series1(_unit_power(b, a, top), top)
        if a >= 0:
            assert got == power
        else:
            assert pairwise_series1_mul(got, power) == Series1.constant(1, top)

    @pytest.mark.parametrize("name", sorted(EXPONENTIALS))
    def test_rows_read_match_repeated_multiplication(self, name):
        for order in range(2, 11):
            exp = EXPONENTIALS[name](order)
            rows = lagrange_rows_by_multiplication(exp)
            P = _power_table([R.zero(), R.one()] + [R.zero()] * (order - 1), order, order, exp)
            assert len(P) == order + 1
            assert P[0] == [R.one()] + [R.zero()] * order
            for a in range(1, order + 1):
                want = [rows[i][i - a] * Fraction(a, i) for i in range(a, order + 1)]
                assert P[a] == [R.zero()] * a + want, (order, a)
            assert list(exp.revert().coefficients()) == P[1]

    def test_revert_and_bivariate_never_call_unit_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_unit_power called")

        monkeypatch.setattr(series, "_unit_power", refuse)
        for build in EXPONENTIALS.values():
            exp = build(8)
            bivariate_from_exp(exp)
            exp.revert()

    def test_no_series_product_or_quotient(self, monkeypatch):
        exp, calls = gamma_exponential(10), []
        for name in ("__mul__", "__rmul__", "_divide"):
            real = getattr(Series1, name)
            monkeypatch.setattr(
                Series1, name, lambda *args, _n=name, _f=real: calls.append(_n) or _f(*args)
            )
        bivariate_from_exp(exp)
        exp.revert()
        assert calls == []


linear_units = st.one_of(
    rationals.filter(bool),
    st.sampled_from([gen("t"), gen("t", -1), gen("u"), gen("u", -1) * Fraction(-1, 3)]),
)
zero_rational_or_t = st.one_of(st.just(0), rationals, t_polynomials)


@st.composite
def revertible_series(draw, max_order=8):
    """c z + f_2 z^2 + ... + f_d z^d at an order n >= d, for a unit c and a
    drawn top degree d, with each f_k zero or a rational or t-polynomial."""
    order = draw(_integers(1, max_order))
    top = draw(_integers(1, order))
    coeffs = [0, draw(linear_units)]
    for _ in range(2, top + 1):
        coeffs.append(draw(zero_rational_or_t))
    return Series1(coeffs, order)


@st.composite
def outer_series(draw, max_order=7):
    """A series whose coefficients beyond a drawn degree are zero, so the
    table's rows stop before the order; a constant one when that degree is 0."""
    order = draw(_integers(0, max_order))
    top = draw(_integers(0, order))
    coeffs = [draw(zero_rational_or_t) for _ in range(top + 1)]
    return Series1(coeffs, order)


@lru_cache(maxsize=None)
def _inner_series(max_order):
    """outer_series(max_order) less its constant term."""
    return outer_series(max_order=max_order).map(lambda f: f - f[0])


class TestPowerTable:
    """Reversion and composition read one power table; each equals an
    oracle that builds no such table."""

    @given(revertible_series())
    def test_revert_against_newton_and_miller(self, f):
        g = f.revert()
        assert g == newton_revert(f)
        assert g == miller_revert(f)

    @given(outer_series(), st.integers(0, 7), st.data())
    def test_compose_against_horner_at_any_two_orders(self, outer, inner_order, data):
        inner = data.draw(_inner_series(inner_order))
        assert outer.compose(inner) == horner_compose(outer, inner)

    @given(revertible_series(max_order=6))
    def test_bivariate_against_lagrange_rows(self, f):
        exp = f * f[1].inverse()
        assert bivariate_from_exp(exp) == lagrange_bivariate_from_exp(exp)

    @pytest.mark.parametrize(
        "f",
        [
            Series1([1, 1, 2], 2),
            Series1([0, 0, 1], 2),
            Series1([0, gen("gamma"), 1], 2),
            Series1([gen("t"), 1], 1),
            Series1.zeros(3),
            Series1.constant(1, 0),
        ],
        ids=str,
    )
    def test_not_revertible(self, f):
        with pytest.raises(NotRevertibleError):
            f.revert()
        with pytest.raises(NotRevertibleError):
            miller_revert(f)
        with pytest.raises(NotRevertibleError):
            bivariate_from_exp(f)

    @pytest.mark.parametrize(
        "outer", [Series1.constant(3, 4), Series1.x(4), Series1.zeros(0)], ids=str
    )
    def test_inner_constant_term(self, outer):
        for inner in (Series1.constant(1, 4), Series1([gen("t"), 1], 2), Series1.constant(2, 0)):
            with pytest.raises(BadConstantTermError):
                outer.compose(inner)


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

    def test_from_series1(self):
        f = Series1([0, 1, 1], 2)
        assert Series2.from_series1(f, 1) == Series2({(0, 1): 1, (0, 2): 1}, 2)
        assert Series2.from_series1(f, 0, 1) == Series2({(1, 0): 1}, 1)
        with pytest.raises(ValueError, match="exceeds"):
            Series2.from_series1(f, 0, 4)  # f knows nothing beyond z^2
        for variable in (-1, 2, "1"):
            with pytest.raises(ValueError, match="variable"):
                Series2.from_series1(f, variable)

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

    def test_an_order_is_an_int(self):
        """A bool or a float is no order, so no series writes an order that
        from_obj refuses."""
        for order in (True, False, 2.0, "2"):
            with pytest.raises(TypeError, match="order must be an int"):
                Series1([1, 2, 3], order)
            with pytest.raises(TypeError, match="order must be an int"):
                Series2({(1, 0): 1}, order)


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
