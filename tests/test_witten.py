from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from genusforge.check import replace
from genusforge.genus import WittenSeries, _pair_factor, half_sinh_ratio, witten_series
from genusforge.ring import RingElement, zeta_tilde_even
from genusforge.series import Series1
from genusforge.verify import _exp_mixed

from conftest import rationals
from oracles import (
    divisor_sigma,
    euler_product_inv_sq,
    geometric_factor,
    power_sum_exp_mixed,
    recurrence_exp_mixed,
    witten_product_oracle,
)


@pytest.fixture(scope="module")
def w108():
    return witten_series(10, 8)


class TestWittenStructure:
    def test_evenness(self, w108):
        assert w108.evenness_check().passed
        for k in (1, 3, 5, 7, 9):
            assert w108.H[k].is_zero()

    def test_q0_slice_is_ahat(self, w108):
        assert w108.q0_check().passed
        for k in range(0, 11, 2):
            assert w108.coefficient(k, 0) == half_sinh_ratio(10)[k].as_rational()

    def test_x0_row_is_eta_power(self, w108):
        """The x^0 row of the full product is Pi (1-q^n)^(-2)."""
        expected = euler_product_inv_sq(8)
        for m in range(9):
            assert w108.coefficient(0, m) == expected[m], m

    def test_guards(self):
        before = witten_series.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                witten_series(1, 8)
            with pytest.raises(ValueError):
                witten_series(8, 1)
        assert witten_series.cache_info().currsize == before

    @pytest.mark.parametrize("x_pow, q_pow", [(11, 0), (-1, 0), (2, 9), (2, -1)])
    def test_coefficients_outside_truncation_raise(self, w108, x_pow, q_pow):
        with pytest.raises(ValueError):
            w108.coefficient(x_pow, q_pow)
        with pytest.raises(ValueError):
            w108.log_coefficient(x_pow, q_pow)

    def test_the_x_order_is_that_of_the_series(self):
        """x_order is read off H, so no record claims more x-coefficients than
        it holds, and a log_H of another order is refused."""
        w = witten_series(4, 2)
        assert w.x_order == 4 and "x_order" not in w._fields
        with pytest.raises(TypeError):
            WittenSeries(x_order=20, q_order=2, H=w.H, log_H=w.log_H)
        rebuilt = WittenSeries(H=w.H, log_H=w.log_H)
        assert rebuilt == w and rebuilt.x_order == 4
        for read in (lambda: w.coefficient(10, 0), lambda: w.log_coefficient(12, 1),
                     lambda: w.eisenstein_coefficient(5)):
            with pytest.raises(ValueError):
                read()
        longer = witten_series(6, 2)
        for H, log_H in ((w.H, longer.log_H), (longer.H, w.log_H)):
            with pytest.raises(ValueError, match="log_H has order"):
                WittenSeries(H=H, log_H=log_H)
        with pytest.raises(ValueError, match="log_H has order"):
            replace(w, H=longer.H)

    def test_the_q_order_is_that_of_the_series(self):
        """q_order is the top power of q in H[0], so no record claims more
        q-coefficients than it holds, and a log_H of another q order is refused."""
        w = witten_series(4, 2)
        assert w.q_order == 2 and "q_order" not in w._fields
        with pytest.raises(TypeError):
            WittenSeries(q_order=20, H=w.H, log_H=w.log_H)
        rebuilt = WittenSeries(H=w.H, log_H=w.log_H)
        assert rebuilt == w and rebuilt.q_order == 2
        for read in (lambda: w.coefficient(0, 15), lambda: w.log_coefficient(2, 9)):
            with pytest.raises(ValueError):
                read()
        assert w.divisor_check(1).passed
        deeper = witten_series(4, 3)
        assert deeper.q_order == 3
        for H, log_H in ((w.H, deeper.log_H), (deeper.H, w.log_H)):
            with pytest.raises(ValueError, match="log_H has q order"):
                WittenSeries(H=H, log_H=log_H)


class TestPairFactor:
    @pytest.mark.parametrize("x_order", range(2, 11))
    def test_product_matches_two_factor_oracle(self, x_order):
        for q_order in range(2, 9):
            got = witten_series.__wrapped__(x_order, q_order).H
            assert got == witten_product_oracle(x_order, q_order), q_order

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pair_factor_is_product_of_geometric_factors(self, n):
        x_order, q_order = 8, 6
        expected = (
            geometric_factor(1, n, x_order, q_order) * geometric_factor(-1, n, x_order, q_order)
        ).map_coefficients(lambda c: c.truncate_gen("q", q_order))
        assert _pair_factor(n, x_order, q_order) == expected


class TestExpRecurrence:
    """verify's exp recurrence equals the sum of powers of log H, and takes
    the Eisenstein route's log H back to the product H."""

    @pytest.mark.parametrize("x_order", range(2, 11))
    def test_matches_the_power_sum_oracle(self, x_order):
        for q_order in range(2, 9):
            w = witten_series(x_order, q_order)
            recon = _exp_mixed(w.log_H, q_order)
            assert recon == power_sum_exp_mixed(w.log_H, q_order), q_order
            assert recon == w.H, q_order


_GRID_X = st.integers(min_value=2, max_value=10)
_GRID_Q = st.integers(min_value=2, max_value=8)
_Q_TERMS = st.lists(st.tuples(st.integers(min_value=0, max_value=8), rationals), max_size=3)


@st.composite
def mixed_logs(draw):
    """(L, q_order): Witten's log H at a drawn point of the 2-10 x 2-8 grid of
    x and q orders, plus a drawn polynomial in q at each degree in x, with no
    constant term at x^0, so L still vanishes at (x, q) = (0, 0)."""
    x_order, q_order = draw(_GRID_X), draw(_GRID_Q)
    shift = []
    for k in range(x_order + 1):
        terms = [RingElement.gen("q", e) * c for e, c in draw(_Q_TERMS) if e or k]
        shift.append(sum(terms, RingElement.zero()))
    return witten_series(x_order, q_order).log_H + Series1(shift, x_order), q_order


class TestExpMixedOracles:
    """verify's mixed exp, exp_series truncated in q once, equals the exp
    recurrence truncated in q after each dot and the sum of powers of L."""

    @given(mixed_logs())
    def test_against_the_recurrence_and_power_sum_oracles(self, drawn):
        L, q_order = drawn
        got = _exp_mixed(L, q_order)
        assert got == recurrence_exp_mixed(L, q_order)
        assert got == power_sum_exp_mixed(L, q_order)


class TestMemo:
    GRID = [(x, q) for x in (2, 4, 6) for q in (2, 3, 5)]

    @pytest.mark.parametrize("grid", [GRID, GRID[::-1]], ids=["ascending", "descending"])
    def test_served_equals_uncached_build(self, grid):
        for x_order, q_order in grid:
            served = witten_series(x_order, q_order)
            assert served == witten_series.__wrapped__(x_order, q_order)
            assert witten_series(x_order, q_order) is served


class TestEisenstein:
    def test_divisor_formula(self, w108):
        for k in (1, 2, 3):
            assert w108.divisor_check(k).passed

    def test_log_x2_row(self, w108):
        # q^0: the (x/2)/sinh(x/2) factor contributes zeta~(2) = -1/24
        assert w108.log_coefficient(2, 0) == zeta_tilde_even(1)
        # q^1: sigma_1(1) * 2/2! = 1
        assert w108.log_coefficient(2, 1) == Fraction(1)

    def test_g2_explicit(self, w108):
        g2 = w108.eisenstein_coefficient(1)
        # 2 zeta~(2) + 2 sum sigma_1(n) q^n
        assert w108._q_slice(g2, 0) == Fraction(-1, 12)
        for n in range(1, 9):
            assert w108._q_slice(g2, n) == 2 * divisor_sigma(1, n)

    def test_higher_weights(self, w108):
        g4 = w108.eisenstein_coefficient(2)
        assert w108._q_slice(g4, 0) == 2 * zeta_tilde_even(2)
        assert w108._q_slice(g4, 1) == Fraction(8, 24) * divisor_sigma(3, 1)

    def test_weight_grading(self, w108):
        # all G_2k coefficients are rational multiples of powers of q (weight 0)
        for k in (1, 2, 3):
            for mono, _ in w108.eisenstein_coefficient(k).terms():
                assert all(name == "q" for name, _ in mono)

    def test_range_guard(self, w108):
        with pytest.raises(ValueError):
            w108.eisenstein_coefficient(6)
