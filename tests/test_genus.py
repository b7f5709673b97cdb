import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import clear_memos, rationals, ring_elements
from genusforge import fgl, genus
from genusforge.fgl import EXPONENTIALS, catalog, exponential, gamma_exponential, sinh_exponential
from genusforge.genus import (
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
from genusforge.series import Series1, exp_series
from genusforge.symfun import multiplicative_sequence, power_sum_over
from oracles import (
    divisor_sigma,
    fraction_chern_pairing,
    integer_row_genus_of,
    milnor_chern_numbers,
    milnor_residue_genus,
    pairwise_power_cpn,
    root_degree_part,
    root_product,
    series_from_exponential,
    termwise_sum,
)

R = RingElement
gen = R.gen


@st.composite
def unit_constant_series(draw):
    """H with H_0 = 1, at order 0..8, whose other coefficients are drawn from
    a pool of two-term sums over t, zeta2, zeta3 and the Laurent u and ipi2."""

    def term():
        name = draw(st.sampled_from(("t", "zeta2", "zeta3", "u", "ipi2")))
        low = 0 if name.startswith("zeta") else -2
        return gen(name, draw(st.integers(low, 2)), draw(rationals))

    pool = [R.zero()] + [term() + term() for _ in range(draw(st.integers(1, 2)))]
    n = draw(st.integers(0, 8))
    return Series1([1] + [draw(st.sampled_from(pool)) for _ in range(n)], n)


class TestGenusSeries:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            GenusSeries(H=Series1([0, 1], 2), name="bad")

    def test_a_series_is_its_h_and_name(self):
        assert list(GenusSeries._fields) == ["H", "name"]
        for name in GENUS_SERIES:
            g = genus_series(name, 5)
            assert g.exp == Series1.x(5) / g.H

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
    @pytest.mark.parametrize("n", range(9))
    def test_exp_is_the_exponential_it_was_built_from(self, name, n):
        if name in EXPONENTIALS:
            built_from = EXPONENTIALS[name](n + 1)
        elif name == "ahat":
            built_from = sinh_exponential(n + 1)
        elif name == "todd":  # 1 - e^(-z)
            built_from = 1 - exp_series(-Series1.x(n + 1))
        else:
            built_from = exponential(catalog(name, max(n + 1, 2)))
        assert genus_series(name, n).exp == built_from.truncate(n)

    @pytest.mark.parametrize("name", GENUS_SERIES)
    def test_every_series_at_orders_zero_and_one(self, name):
        full = genus_series(name, 3)
        for order in (0, 1):
            g = genus_series(name, order)
            assert g.H.order == order and g.H[0] == 1
            assert (g.H, g.exp) == (full.H.truncate(order), full.exp.truncate(order))
        with pytest.raises(ValueError, match="order must be >= 0"):
            genus_series(name, -1)


def _uncached(name, order, presentation=None):
    """genus_series(name, order, presentation) built from empty memos."""
    clear_memos()
    return genus_series(name, order, presentation)


class TestSeriesMemo:
    CASES = [(name, None) for name in GENUS_SERIES] + [
        ("gamma", None),
        ("gamma", "raw"),
        ("gamma", "normalized"),
        ("gamma_normalized", "normalized"),
        *((name, "raw") for name in GENUS_SERIES if name != "gamma_normalized"),
    ]

    @pytest.mark.parametrize("name, presentation", CASES)
    def test_served_series_equals_an_uncached_build(self, name, presentation, cold):
        uncached = {n: _uncached(name, n, presentation) for n in range(9)}
        for orders in (range(9), range(8, -1, -1)):
            clear_memos()
            for n in orders:
                assert genus_series(name, n, presentation) == uncached[n]

    def test_one_entry_per_canonical_name_at_the_highest_order(self, cold):
        for n in (4, 8, 6):
            genus_series("gamma", n, "normalized")
            genus_series("gamma_raw", n)
        assert sorted(genus._SERIES) == ["gamma_normalized", "gamma_raw"]
        assert {g.order for g in genus._SERIES.values()} == {8}

    @pytest.mark.parametrize(
        "name, order, presentation",
        [("elliptic", 4, None), ("broken_demo", 4, None), ("gamma", 4, "bogus"),
         ("todd", 4, "normalized"), ("gamma_raw", 4, "normalized"), ("todd", -1, None),
         ("gamma", -3, "raw")],
    )
    def test_rejected_requests_raise_every_time_and_cache_nothing(
        self, name, order, presentation, cold
    ):
        for _ in range(2):
            with pytest.raises(ValueError):
                genus_series(name, order, presentation)
        assert genus._SERIES == {} and genus._series.cache_info().currsize == 0

    def test_truncated_view_does_no_series_arithmetic(self, cold, monkeypatch):
        top = genus_series("todd", 8)

        def refuse(*args):
            raise AssertionError("series product or quotient on a cached view")

        monkeypatch.setattr(Series1, "__mul__", refuse)
        monkeypatch.setattr(Series1, "_divide", refuse)
        assert genus_series("todd", 3).H == top.H.truncate(3)


def _rows_poly(rows) -> RingElement:
    """The polynomial that (partition, coefficient) Chern rows stand for,
    after checking that each partition comes once and that no coefficient
    carries a Chern class."""
    assert len({lam for lam, _ in rows}) == len(rows)
    for _, c in rows:
        assert not c.is_zero() and not any(n[0] == "c" and n[1:].isdigit() for n in c.generators())
    return RingElement.dot(
        (RingElement({tuple(Counter(f"c{k}" for k in lam).items()): 1}), c) for lam, c in rows
    )


class TestHirzebruchMemo:
    @pytest.mark.parametrize("name", GENUS_SERIES)
    def test_memoised_polynomial_is_the_top_of_the_sequence(self, name):
        g = genus_series(name, 6)
        for d in range(1, 7):
            H = g.H.truncate(d)
            rows = genus._chern_rows(H)
            assert all(sum(lam) == d for lam, _ in rows)
            assert _rows_poly(rows) == multiplicative_sequence(H, d)[d - 1]

    @pytest.fixture
    def sequences(self, monkeypatch):
        """An empty Chern-row memo (restored afterwards), and the orders n of
        the multiplicative sequences it computes, in call order."""
        monkeypatch.setattr(genus, "_CHERN_ROWS", {})
        seen = []

        def counted(H, n):
            seen.append(n)
            return multiplicative_sequence(H, n)

        monkeypatch.setattr(genus, "multiplicative_sequence", counted)
        return seen

    @pytest.mark.parametrize("name", GENUS_SERIES)
    def test_one_sequence_fills_every_lower_truncation(self, name, sequences):
        H = genus_series(name, 6).H
        top = genus._chern_rows(H)
        assert sequences == [6] and genus._chern_rows(H) is top
        for d in range(1, 6):
            rows = genus._chern_rows(H.truncate(d))
            assert _rows_poly(rows) == multiplicative_sequence(H, d)[d - 1]
        assert sequences == [6] and len(genus._CHERN_ROWS) == 6

    def test_a_lone_chern_request_computes_nothing_beyond_its_dimension(self, sequences):
        from genusforge import cli

        table = ",".join(
            "*".join(f"c{k}" for k in lam) + f"={v}" for lam, v in cpn_chern_numbers(3).items()
        )
        argv = ["genus", "chern", "--series", "todd", "--dim", "3", "--chern", table]
        assert cli.main(argv) == 0
        assert sequences == [3]
        assert sorted(H.order for H in genus._CHERN_ROWS) == [1, 2, 3]

    def test_verify_builds_one_sequence_per_series(self, sequences):
        from genusforge import verify

        results = dict(verify._gamma_checks(6))
        assert results["chern_route_matches_product_route"].passed
        # ahat and hyperbolic share one H, so they share its rows
        distinct = {genus_series(name, 4).H for name in GENUS_SERIES}
        assert sequences == [4] * len(distinct)

    def test_only_the_most_recently_used_rows_are_kept(self, sequences):
        first = genus_series("todd", 2).H
        genus._chern_rows(first)
        for k in range(40):
            genus._chern_rows(Series1([1, k + 2, 1], 2))
            genus._chern_rows(first)  # a hit makes it the most recent again
        assert len(genus._CHERN_ROWS) == 64 and len(sequences) == 41
        assert first in genus._CHERN_ROWS and first.truncate(1) not in genus._CHERN_ROWS

    def test_threads_sharing_the_memo_read_the_serial_rows(self, monkeypatch):
        """Eight threads ask for the rows of 90 truncations (more than the
        memo keeps) in a shuffled order, with a short switch interval."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(genus, "_CHERN_ROWS", {})
        rng = random.Random(5)
        tops = [
            Series1([1, *(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))])
            for _ in range(30)
        ]
        jobs = [H.truncate(d) for H in tops for d in (3, 2, 1)] * 2
        rng.shuffle(jobs)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(genus._chern_rows, jobs, timeout=120))
        finally:
            sys.setswitchinterval(switch)
        for H, rows in zip(jobs, got):
            assert _rows_poly(rows) == multiplicative_sequence(H, H.order)[-1]
        assert len(genus._CHERN_ROWS) == 64
        for H, rows in genus._CHERN_ROWS.items():
            assert _rows_poly(rows) == multiplicative_sequence(H, H.order)[-1]

    def test_user_series_that_reuses_a_catalog_name_gets_its_own_value(self):
        todd = genus_series("todd", 4)
        ahat = genus_series("ahat", 4)
        impostor = GenusSeries(H=ahat.H, name="todd")
        for d in range(1, 5):
            M = ManifoldDescriptor.from_chern(d, cpn_chern_numbers(d))
            assert genus_of(todd, M) == genus_cpn(todd, d)
            assert genus_of(impostor, M) == genus_cpn(ahat, d)

    def test_high_order_series_asked_for_a_low_dimension(self):
        g = genus_series("gamma_raw", 12)
        M = ManifoldDescriptor.from_chern(2, cpn_chern_numbers(2))
        assert genus_of(g, M) == genus_cpn(g, 2)


@pytest.mark.usefixtures("cold")
class TestExponentialTableRoute:
    """Laws in fgl.EXPONENTIALS give their genus series without a law build."""

    @pytest.mark.parametrize("name", sorted(EXPONENTIALS))
    def test_matches_the_catalog_law(self, name):
        for n in range(1, 9):
            via_law = exponential(catalog(name, n + 1))
            assert genus_series(name, n) == series_from_exponential(via_law, n, name)

    def test_ahat_is_the_hyperbolic_series(self):
        for n in range(1, 9):
            ahat, hyp = genus_series("ahat", n), genus_series("hyperbolic", n)
            assert (ahat.H, ahat.exp) == (hyp.H, hyp.exp)
            assert half_sinh_ratio(n) == ahat.H

    @pytest.mark.parametrize("name", sorted(EXPONENTIALS) + ["ahat"])
    def test_builds_no_law(self, name):
        genus_series(name, 6)
        assert fgl._BUILT == {}

    def test_closed_form_laws_still_go_through_the_catalog(self):
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

    @pytest.mark.parametrize("name", GENUS_SERIES)
    def test_catalog_series_against_repeated_products(self, name):
        g = genus_series(name, 8)
        for n in range(9):
            assert genus_cpn(g, n) == pairwise_power_cpn(g.H, n), n

    @given(unit_constant_series())
    def test_random_series_against_repeated_products(self, H):
        g = GenusSeries(H=H, name="random")
        for n in range(H.order + 1):
            assert genus_cpn(g, n) == pairwise_power_cpn(H, n), n


class TestGenusCpnMemo:
    def test_any_call_order_matches_repeated_products(self):
        """Cold and warm, through genus_table, then genus_cpn in shuffled and
        in reversed n order, every catalog series gives the oracle's values."""
        rng = random.Random(22)
        for name in GENUS_SERIES:
            g = genus_series(name, 6)
            want = [pairwise_power_cpn(g.H, n) for n in range(7)]
            shuffled = list(range(7))
            rng.shuffle(shuffled)
            for cold in (True, False):
                if cold:
                    genus._cpn.cache_clear()
                rows = genus_table(name, 6)["rows"]
                assert [row["value"] for row in rows] == [w.to_obj() for w in want[1:]], name
                for n in shuffled + list(range(6, -1, -1)):
                    assert genus_cpn(g, n) == want[n], (name, n, cold)

    def test_user_series_shares_an_equal_truncation(self):
        g = genus_series("ahat", 8)
        genus._cpn.cache_clear()
        want = genus_cpn(g, 4)
        # equal to ahat through z^4, different at z^5
        user = GenusSeries(H=Series1(g.H.coefficients()[:5] + (gen("t"),), 5), name="user")
        before = genus._cpn.cache_info()
        assert genus_cpn(user, 4) == want
        after = genus._cpn.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert genus_cpn(user, 5) == pairwise_power_cpn(user.H, 5) != genus_cpn(g, 5)
        assert genus._cpn.cache_info().misses == before.misses + 2

    def test_errors_are_raised_before_the_memo(self):
        g = genus_series("todd", 3)
        genus._cpn.cache_clear()
        with pytest.raises(ValueError, match="n must be >= 0"):
            genus_cpn(g, -1)
        with pytest.raises(InsufficientOrderError):
            genus_cpn(g, 4)
        info = genus._cpn.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


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
        class Corrupt(GenusSeries):
            @property
            def exp(self):
                return super().exp + Series1([0, 0, 0, Fraction(1, 7)], self.order)

        bad = Corrupt(H=genus_series("todd", 6).H, name="corrupt")
        assert not mishchenko_check(bad).passed


# A Chern table's values: all ints, all Fractions, or each drawn from both.
_CHERN_VALUES = {
    "int": st.one_of(st.just(0), st.integers()),
    "fraction": st.one_of(st.just(Fraction(0)), rationals, st.fractions()),
}
_CHERN_VALUES["mixed"] = st.one_of(_CHERN_VALUES["int"], _CHERN_VALUES["fraction"])


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

    @pytest.mark.parametrize("name", GENUS_SERIES)
    @given(d=st.integers(1, 5), kind=st.sampled_from(sorted(_CHERN_VALUES)), data=st.data())
    def test_pairing_against_the_fraction_oracle(self, name, d, kind, data):
        table = {lam: data.draw(_CHERN_VALUES[kind]) for lam in partitions(d)}
        g = genus_series(name, d)
        got = genus_of(g, ManifoldDescriptor(chern_dim=d, chern=tuple(sorted(table.items()))))
        want = fraction_chern_pairing(multiplicative_sequence(g.H, d)[d - 1], table)
        assert got == want

    @pytest.mark.parametrize("name", GENUS_SERIES)
    @given(d=st.integers(1, 5), kind=st.sampled_from(sorted(_CHERN_VALUES)), data=st.data())
    def test_pairing_against_the_integer_row_oracle(self, name, d, kind, data):
        table = {lam: data.draw(_CHERN_VALUES[kind]) for lam in partitions(d)}
        g = genus_series(name, d)
        M = ManifoldDescriptor(chern_dim=d, chern=tuple(sorted(table.items())))
        assert genus_of(g, M) == integer_row_genus_of(g, M)

    def test_a_chern_table_is_paired_without_making_its_numbers_elements(self):
        """genus_of pairs a table's ints and Fractions as they stand: once the
        rows are built, no Chern number becomes a ring element."""
        g = genus_series("gamma_raw", 3)
        tables = [
            ManifoldDescriptor(chern_dim=d, chern=tuple(sorted(t.items())))
            for d, t in [
                (0, {(): 7}),
                (0, {(): Fraction(-2, 3)}),
                (1, {(1,): 2}),
                (2, {(1, 1): 9, (2,): Fraction(3, 4)}),
                (3, {(1, 1, 1): Fraction(1, 2), (2, 1): -5, (3,): Fraction(7)}),
            ]
        ]
        want = [genus_of(g, M) for M in tables]
        with mock.patch.object(RingElement, "from_rational", wraps=RingElement.from_rational) as spy:
            got = [genus_of(g, M) for M in tables]
        assert spy.call_count == 0
        assert got == want
        assert want[0] == 7 and want[1] == Fraction(-2, 3)

    def test_chern_numbers_against_polynomial_oracle(self):
        from oracles import cpn_chern_numbers_oracle

        for n in range(1, 6):
            assert cpn_chern_numbers(n) == cpn_chern_numbers_oracle(n)

    def test_incomplete_table_rejected(self):
        g = genus_series("todd", 4)
        with pytest.raises(IncompleteChernTableError):
            genus_of(g, ManifoldDescriptor.from_chern(2, {(2,): 3}))
        # A descriptor built without from_chern is checked as well, a
        # partition given twice included.
        with pytest.raises(IncompleteChernTableError):
            ManifoldDescriptor(chern_dim=2, chern=(((1, 1), 9), ((2,), 3), ((3,), 1)))
        with pytest.raises(IncompleteChernTableError):
            ManifoldDescriptor(chern_dim=2, chern=(((1, 1), 9), ((2,), 3), ((2,), 4)))

    def test_a_table_is_sorted_pairs_that_cannot_be_changed(self):
        d = ManifoldDescriptor.from_chern(2, {(2,): 3, (1, 1): 9})
        assert d.chern == (((1, 1), Fraction(9)), ((2,), Fraction(3)))
        with pytest.raises(TypeError):
            del d.chern[(1, 1)]
        assert genus_of(genus_series("todd", 2), d) == R.one()  # (c1^2 + c2) / 12
        with pytest.raises(TypeError, match="pairs"):
            ManifoldDescriptor(chern_dim=2, chern={(2,): 3, (1, 1): 9})

    def test_from_chern_normalizes_keys_and_refuses_a_repeated_partition(self):
        d = ManifoldDescriptor.from_chern(3, {(1, 2): 1, (3,): 2, ("1", 1, 1): Fraction(1, 2)})
        assert d.chern == (((1, 1, 1), Fraction(1, 2)), ((2, 1), Fraction(1)), ((3,), Fraction(2)))
        assert ManifoldDescriptor.from_chern(1, {(1,): "1/10"}).chern == (((1,), Fraction(1, 10)),)
        table = {(1, 2): 1, (2, 1): 5, (3,): 1, (1, 1, 1): 1}
        with pytest.raises(ValueError, match=r"repeats the partition \(2, 1\)"):
            ManifoldDescriptor.from_chern(3, table)

    @pytest.mark.parametrize("value", [True, False, 1.5, "1", None, 1j])
    def test_a_chern_number_is_an_int_or_a_fraction(self, value):
        """Any other value, a bool included, is refused when the record is
        made, at every dimension, before any series is built."""
        for d, table in (
            (0, (((), value),)),
            (1, (((1,), value),)),
            (2, (((1, 1), 3), ((2,), value))),
        ):
            with pytest.raises(TypeError, match=r"is an int or a Fraction, not"):
                ManifoldDescriptor(chern_dim=d, chern=table)
        half = ManifoldDescriptor(chern_dim=1, chern=(((1,), Fraction(1, 2)),))
        assert genus_of(genus_series("todd", 1), half) == Fraction(1, 4)  # c1 / 2

    @pytest.mark.parametrize(
        "dims, error",
        [((2, -1), ValueError), ((-3,), ValueError), ((2.0,), TypeError), ((True,), TypeError),
         (("2",), TypeError), ([2, 3], TypeError)],
    )
    def test_a_projective_dimension_is_an_int_at_least_zero(self, dims, error):
        with pytest.raises(error, match="projective"):
            ManifoldDescriptor(projective=dims)

    def test_projective_product_reads_its_dimensions_by_int(self):
        assert ManifoldDescriptor.projective_product(["2", 0, 3.0]).projective == (2, 0, 3)
        with pytest.raises(ValueError, match=">= 0, not -1"):
            ManifoldDescriptor.projective_product([2, -1])

    @pytest.mark.parametrize("dim", [2.7, 0.5, -1.5, float("inf"), float("nan"), True, False])
    def test_projective_product_refuses_a_bool_or_a_float_that_is_not_integral(self, dim):
        """int() would read 2.7 as CP^2 and True as CP^1; the record's own
        TypeError refuses them instead."""
        kind = type(dim).__name__
        with pytest.raises(TypeError, match=f"a projective dimension is an int, not {kind}"):
            ManifoldDescriptor.projective_product([1, dim])

    @pytest.mark.parametrize("value", [0.1, 1.0, True, False])
    def test_from_chern_refuses_a_bool_or_a_float(self, value):
        """Fraction() would read 0.1 as the binary float and True as 1; the
        record's own TypeError refuses them instead."""
        kind = type(value).__name__
        with pytest.raises(TypeError, match=rf"the Chern number of \(1,\) is an int or a Fraction, not {kind}"):
            ManifoldDescriptor.from_chern(1, {(1,): value})
        with pytest.raises(TypeError, match=rf"the Chern number of \(2,\) is an int or a Fraction, not {kind}"):
            ManifoldDescriptor.from_chern(2, {(1, 1): 3, (2,): value})

    def test_equal_descriptors_hash_equally(self):
        a = ManifoldDescriptor.from_chern(2, {(1, 1): 9, (2,): 3})
        b = ManifoldDescriptor.from_chern(2, {(2,): 3, (1, 1): 9})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ManifoldDescriptor.projective_product([2])}) == 2

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


# Every H_{i,j} with 0 <= i <= j and complex dimension i + j - 1 in 1..6.
MILNOR_GRID = [(i, d + 1 - i) for d in range(1, 7) for i in range((d + 1) // 2 + 1)]
# Dimensions 7 and 8, for the integrality grid alone.
MILNOR_GRID_7_8 = [(i, d + 1 - i) for d in (7, 8) for i in range((d + 1) // 2 + 1)]


def _milnor_genus(name: str, i: int, j: int) -> RingElement:
    g = genus_series(name, i + j - 1)
    return genus_of(g, ManifoldDescriptor.from_chern(i + j - 1, milnor_chern_numbers(i, j)))


class TestMilnorHypersurfaces:
    """The hypersurfaces H_{i,j} in CP^i x CP^j of bidegree (1, 1) generate
    MU_* as a ring (Milnor; Stong, Notes on Cobordism Theory, ch. VII), so a
    genus is integral on MU_* exactly when it is integral on every H_{i,j}."""

    @pytest.mark.parametrize("name", GENUS_SERIES)
    def test_chern_and_residue_routes_agree(self, name):
        g = genus_series(name, 7)
        for i, j in MILNOR_GRID:
            residue = milnor_residue_genus(g.H, g.exp, i, j)
            assert _milnor_genus(name, i, j) == residue, (i, j)

    def test_todd_is_one(self):
        assert all(_milnor_genus("todd", i, j) == R.one() for i, j in MILNOR_GRID)

    def test_universal_additive_is_integral(self):
        for i, j in MILNOR_GRID + MILNOR_GRID_7_8:
            value = _milnor_genus("universal_additive", i, j)
            assert all(c.denominator == 1 for _, c in value.terms()), (i, j, value)

    def test_ahat_is_not_integral(self):
        # H_{0,3} is a hyperplane in CP^3, so CP^2, and Ahat(CP^2) = -1/8
        assert _milnor_genus("ahat", 0, 3) == R.from_rational(Fraction(-1, 8))


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
        assert dict(rep.extra)["linear_term"] == "PASS"
        assert dict(rep.extra)["even_part_is_sqrt_sinh"] == "PASS"
        assert "minus" in dict(rep.extra)["odd_sum_sign"]


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


def _root_route(H, alphabet, cap):
    """series_product_over_alphabet by the root oracle: the root product,
    truncated by root degree after every factor, split into its degrees."""
    prod = root_product(H, alphabet, cap)
    return Series1([root_degree_part(prod, k) for k in range(cap + 1)], cap)


@pytest.mark.parametrize("order", range(2, 9))
def test_msp_and_ahat_records_match_the_root_route(order, monkeypatch):
    """The records verify reads from msp_agreement_check (m = 1, 2, 3 and the
    mutant) and ahat_pontryagin_identity are those of the root product."""
    checks = [lambda m=m: msp_agreement_check(order, m) for m in (1, 2, 3)] + [
        lambda: msp_agreement_check(order, 2, mutant=True),
        lambda: ahat_pontryagin_identity(order, 3),
    ]
    engine = [check() for check in checks]
    monkeypatch.setattr(genus, "series_product_over_alphabet", _root_route)
    assert [check() for check in checks] == engine
    assert [r.passed for r in engine] == [True, True, True, False, True]


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
        assert dict(rep.extra)["residual"] < 1e-10

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
        assert dict(rep.extra)["logarithm"].passed
        assert dict(rep.extra)["involution"].passed
        assert "-(u + 1/u)" in dict(rep.extra)["mixed_term_sign"]

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
        g = series_from_exponential(exp_full, 5, "universal_additive")
        assert g.H[0] == R.one()
        # coefficient of (-z)^2 is h_2 = e1^2 - e2
        assert g.H[2] == gen("e1") ** 2 - gen("e2")

    def test_specialization_linear_term(self):
        # z^2 coefficient of the universal exponential specializes to gamma
        from genusforge.symfun import zeta_specialize

        assert zeta_specialize(gen("e1")) == gen("gamma")


class TestReports:
    def test_zeta_map_report(self):
        rep = zeta_map_report()
        assert rep.passed
        assert "opposite" in dict(rep.extra)["even_map_sign"]
        assert "matches" in dict(rep.extra)["odd_map_sign"]

    def test_genus_table_shape(self):
        table = genus_table("todd", 3)
        assert table["series"] == "todd"
        assert [row["n"] for row in table["rows"]] == [1, 2, 3]
        assert all(row["value"] == {"terms": [{"num": "1", "den": "1", "exps": {}}]} for row in table["rows"])


class TestSumsThroughOneDot:
    """Sums built by one RingElement.dot equal a term-wise + fold of their
    terms; values are canonical, so the stored form is the same too."""

    @given(st.lists(ring_elements(), max_size=5), st.integers(0, 4))
    def test_power_sum_over(self, alphabet, k):
        assert power_sum_over(alphabet, k) == termwise_sum(a**k for a in alphabet)

    @given(st.integers(1, 40))
    def test_gaussian_bracket(self, n):
        terms = (gen("u", e) if e else R.one() for e in range(n - 1, -n, -2))
        assert fgl.gaussian_bracket(n) == termwise_sum(terms)

    @given(st.integers(0, 40))
    def test_hodge_chi_minus_t(self, n):
        terms = (gen("t", q) if q else R.one() for q in range(n + 1))
        assert genus.hodge_chi_minus_t(n) == termwise_sum(terms)

    @pytest.mark.parametrize("x_order, q_order", [(2, 2), (6, 5), (10, 8)])
    def test_divisor_pair(self, x_order, q_order):
        w = genus.witten_series(x_order, q_order)
        for k in range(1, x_order // 2 + 1):
            scale = Fraction(4 * k, math.factorial(2 * k))
            expected = termwise_sum(
                [R.from_rational(2 * zeta_tilde_even(k))]
                + [gen("q", n, scale * divisor_sigma(2 * k - 1, n)) for n in range(1, q_order + 1)]
            )
            assert w.divisor_pair(k) == (2 * k, w.eisenstein_coefficient(k) - expected)
        for k in (0, x_order // 2 + 1):
            with pytest.raises(ValueError, match="need 1 <= k"):
                w.divisor_pair(k)
