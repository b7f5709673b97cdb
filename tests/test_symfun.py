import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from genusforge import genus, series, symfun
from genusforge.ring import RingElement
from genusforge.series import InsufficientOrderError, Series1, exp_series, log_series
from genusforge.symfun import (
    NotSymmetricError,
    OddContentError,
    convert,
    elementary_in_roots,
    multiplicative_sequence,
    pontryagin_from_chern,
    power_sum_over,
    series_product_over_alphabet,
    symmetric_in_elementary,
    symplectic_power_sum_check,
    zeta_specialize,
)

from conftest import rationals
from oracles import (
    exp_root_poly,
    expand_in_roots,
    root_degree_part,
    root_multiplicative_sequence,
    root_product,
    symmetric_basis,
    symmetric_degree,
)

R = RingElement
gen = R.gen


def roots(m):
    return [gen(f"x{i}") for i in range(1, m + 1)]


@st.composite
def sym_polys(draw, basis="P", max_index=4):
    prefix = {"E": "e", "H": "h", "P": "s"}[basis]
    poly = R.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mono = R.one()
        for idx in draw(st.sets(st.integers(min_value=1, max_value=max_index), max_size=2)):
            mono = mono * gen(f"{prefix}{idx}", draw(st.integers(min_value=1, max_value=2)))
        poly = poly + mono * draw(rationals)
    return poly


# Generators by family: the three bases and three generators foreign to them
# (epsilon, which split("e") keeps apart from e_k, a zeta value and gamma).
_MIXABLE = {
    "e": ("e1", "e2", "e3"),
    "h": ("h1", "h2"),
    "s": ("s1", "s3"),
    "epsilon": ("epsilon",),
    "zeta3": ("zeta3",),
    "gamma": ("gamma",),
}
_FAMILY_SETS = st.lists(st.sampled_from(sorted(_MIXABLE)), min_size=1, max_size=3, unique=True)
_TERM_COUNTS = st.integers(min_value=0, max_value=3)


@st.composite
def mixed_expressions(draw):
    """A rational plus up to three terms, each a rational times up to two
    generators drawn from one to three families."""
    names = st.sampled_from([name for family in draw(_FAMILY_SETS) for name in _MIXABLE[family]])
    x = R.from_rational(draw(rationals))
    for _ in range(draw(_TERM_COUNTS)):
        mono = R.one()
        for name in draw(st.lists(names, max_size=2)):
            mono = mono * gen(name)
        x = x + mono * draw(rationals)
    return x


class TestConvert:
    def test_newton_identities(self):
        assert convert(gen("s2"), "E") == gen("e1") ** 2 - 2 * gen("e2")
        assert convert(gen("e2"), "P") == (gen("s1") ** 2 - gen("s2")) * Fraction(1, 2)
        assert convert(gen("h2"), "E") == gen("e1") ** 2 - gen("e2")

    @pytest.mark.parametrize("src,dst", list(itertools.permutations("EHP", 2)))
    def test_round_trips(self, src, dst):
        for k in range(1, 7):
            prefix = {"E": "e", "H": "h", "P": "s"}[src]
            x = gen(f"{prefix}{k}")
            assert convert(convert(x, dst), src) == x

    @given(sym_polys())
    def test_round_trip_random(self, x):
        for dst in ("E", "H"):
            assert convert(convert(x, dst), "P") == x

    @given(sym_polys(basis="E", max_index=3))
    def test_oracle_agreement(self, x):
        assume(symmetric_degree(x) <= 5)
        m = max(symmetric_degree(x), 1) + 1
        for dst in ("H", "P"):
            assert expand_in_roots(x, m) == expand_in_roots(convert(x, dst), m)

    @given(mixed_expressions())
    def test_basis_agrees_with_the_name_oracle(self, x):
        try:
            want = symmetric_basis(x), symmetric_degree(x)
        except ValueError:
            with pytest.raises(ValueError, match="mixes bases"):
                symfun._basis(x)
        else:
            assert symfun._basis(x) == want

    @pytest.mark.parametrize(
        "x", [gen("e1") + gen("h1"), gen("e2") * gen("h1"), gen("zeta3"), gen("epsilon"), gen("s1") * gen("gamma")]
    )
    @pytest.mark.parametrize("target", ["E", "H", "P"])
    def test_mixed_or_foreign_input_is_refused(self, x, target):
        with pytest.raises(ValueError, match="mixes bases or has a generator outside e_k, h_k and s_k"):
            convert(x, target)

    @pytest.mark.parametrize("target", ["E", "H", "P"])
    def test_a_rational_is_in_every_basis(self, target):
        for c in (R.zero(), R.one(), R.from_rational(Fraction(-3, 7))):
            assert convert(c, target) == c

    def test_the_degree_is_the_largest_monomial_weight(self):
        """e1^3 + e2 has degree 3, though its largest index is 2."""
        x = gen("e1") ** 3 + gen("e2")
        assert symfun._basis(x) == ("E", 3)
        assert convert(convert(x, "P"), "E") == x
        assert convert(x, "H") == gen("h1") ** 3 + gen("h1") ** 2 - gen("h2")


class TestDuality:
    def test_he_product_is_one(self):
        """sum h_k z^k * sum e_k (-z)^k = 1 once h is written in the e basis."""
        n = 12
        h_in_e = [R.one()] + [convert(gen(f"h{k}"), "E") for k in range(1, n + 1)]
        h_series = Series1(h_in_e, n)
        e_neg = Series1([R.one()] + [gen(f"e{k}", coeff=(-1) ** k) for k in range(1, n + 1)], n)
        assert h_series * e_neg == Series1.constant(1, n)


class TestRootOracle:
    def test_definitions(self):
        assert expand_in_roots(gen("e2"), 3) == (
            gen("x1") * gen("x2") + gen("x1") * gen("x3") + gen("x2") * gen("x3")
        )
        assert expand_in_roots(gen("s2"), 2) == gen("x1") ** 2 + gen("x2") ** 2
        newton = gen("e1") ** 2 - 2 * gen("e2")
        assert expand_in_roots(newton, 2) == gen("x1") ** 2 + gen("x2") ** 2

    def test_elementary_against_bruteforce(self):
        from oracles import elementary_bruteforce

        for m in (2, 3, 4):
            for k in range(1, m + 1):
                assert elementary_in_roots(k, m) == elementary_bruteforce(k, roots(m))

    def test_vanishing_beyond_alphabet(self):
        assert elementary_in_roots(4, 3).is_zero()

    def test_symmetric_in_elementary_round_trip(self):
        m = 3
        f = expand_in_roots(gen("e1") * gen("e2") + 2 * gen("e3"), m)
        back = symmetric_in_elementary(f, m)
        assert back == gen("e1") * gen("e2") + 2 * gen("e3")

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            symmetric_in_elementary(gen("x1") ** 2 * gen("x2"), 2)


class TestZetaSpecialize:
    def test_zeta_values(self):
        assert zeta_specialize(gen("s2")) == gen("zeta2")
        assert zeta_specialize(gen("s2"), "normalized") == R.from_rational(Fraction(-1, 24))
        e2 = zeta_specialize(gen("e2"))
        assert e2 == (gen("gamma") ** 2 - gen("zeta2")) * Fraction(1, 2)

    def test_s1_maps_to_gamma(self):
        assert zeta_specialize(gen("s1")) == gen("gamma")
        norm = zeta_specialize(gen("s1"), "normalized")
        assert norm == gen("gamma") * gen("ipi2", -1)

    @given(sym_polys(), sym_polys())
    def test_ring_homomorphism(self, a, b):
        assert zeta_specialize(a * b) == zeta_specialize(a) * zeta_specialize(b)

    @given(st.one_of(sym_polys("E"), sym_polys("P")))
    def test_normalized_is_the_reduced_substitution(self, x):
        """Reducing the table is reducing the result, as reduce is a ring map."""
        p = convert(x, "P")
        table = {}
        for name in p.generators():
            k = int(name[1:])
            table[name] = gen(f"zeta{k}" if k > 1 else "gamma") * gen("ipi2", -k)
        assert zeta_specialize(x, "normalized") == p.substitute(table).reduce()

    def test_invalid_presentation(self):
        with pytest.raises(ValueError):
            zeta_specialize(gen("s2"), "weird")


class TestPontryagin:
    def test_power_sums_in_p(self):
        assert pontryagin_from_chern(gen("s2")) == gen("p1")
        assert pontryagin_from_chern(gen("s4")) == gen("p1") ** 2 - 2 * gen("p2")

    def test_odd_content_rejected(self):
        with pytest.raises(OddContentError):
            pontryagin_from_chern(gen("s3"))
        with pytest.raises(OddContentError):
            pontryagin_from_chern(gen("e1"))

    def test_against_doubled_root_oracle(self):
        # p_k = e_k(x_i^2): verify the rewriting on the +-x_i alphabet
        m = 3
        for expr in (gen("s2"), gen("s4"), gen("s2") ** 2):
            rewritten = pontryagin_from_chern(expr)
            squares = [r * r for r in roots(m)]
            table = {}
            for name in rewritten.generators():
                k = int(name[1:])
                from oracles import elementary_bruteforce

                table[name] = elementary_bruteforce(k, squares)
            via_p = rewritten.substitute(table)
            direct = expand_in_roots(convert(expr, "P"), m)
            assert via_p == direct

    def test_root_polynomial_input(self):
        m = 2
        f = power_sum_over(roots(m), 2)
        in_e = symmetric_in_elementary(f, m)
        assert pontryagin_from_chern(in_e) == gen("p1")


class TestSymplectic:
    def test_doubled_alphabet(self):
        assert symplectic_power_sum_check(1, 1).passed
        assert symplectic_power_sum_check(2, 2).passed
        assert symplectic_power_sum_check(3, 1).passed

    def test_odd_cancellation(self):
        doubled = []
        for r in roots(2):
            doubled.extend([r, -r])
        assert power_sum_over(doubled, 3).is_zero()


class TestMultiplicativeSequence:
    def _todd(self, n):
        from genusforge.genus import genus_series

        return genus_series("todd", n).H

    def test_todd_values(self):
        K = multiplicative_sequence(self._todd(3), 3)
        c1, c2 = gen("c1"), gen("c2")
        assert K[0] == c1 * Fraction(1, 2)
        assert K[1] == (c1 ** 2 + c2) * Fraction(1, 12)
        assert K[2] == c1 * c2 * Fraction(1, 24)

    def test_trivial_series(self):
        K = multiplicative_sequence(Series1.constant(1, 4), 4)
        assert all(k.is_zero() for k in K)

    def test_multiplicativity_convolution(self):
        """The sequence of H*H' is the convolution of the sequences, weight <= 6."""
        n = 6
        H1 = self._todd(n)
        from genusforge.genus import half_sinh_ratio

        H2 = half_sinh_ratio(n)
        K1 = [R.one(), *multiplicative_sequence(H1, n)]
        K2 = [R.one(), *multiplicative_sequence(H2, n)]
        K12 = [R.one(), *multiplicative_sequence(H1 * H2, n)]
        for j in range(n + 1):
            conv = R.zero()
            for a in range(j + 1):
                conv = conv + K1[a] * K2[j - a]
            # the convolution product lives in c_k of the joint sequence
            assert K12[j] == conv, j

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            multiplicative_sequence(Series1.x(4), 4)

    def test_reads_no_coefficient_beyond_the_order(self):
        """Todd known to order 2 has no K_4; read as zeros, H_3 and H_4 gave
        1/144*c1*c3 + 1/144*c2^2 - 1/144*c4."""
        with pytest.raises(InsufficientOrderError, match="series order 2 < n = 4"):
            multiplicative_sequence(self._todd(4).truncate(2), 4)
        assert multiplicative_sequence(self._todd(4).truncate(2), 2) == (
            multiplicative_sequence(self._todd(4), 2)
        )

    def test_cached_power_sums_match_a_fresh_substitution(self):
        for n in range(1, 9):
            chern = {f"e{k}": gen(f"c{k}") for k in range(1, n + 1)}
            newton = symfun._conversion_table("P", "E", n)
            fresh = tuple(newton[f"s{k}"].substitute(chern) for k in range(1, n + 1))
            cached = symfun._chern_power_sums(n)
            assert isinstance(cached, tuple)
            assert cached == fresh, n
            assert symfun._chern_power_sums(n) is cached
            # Newton: s_k = sum_{i<k} (-1)^(i-1) c_i s_{k-i} + (-1)^(k-1) k c_k
            for k in range(1, n + 1):
                want = sum(
                    ((-1) ** (i - 1) * gen(f"c{i}") * cached[k - i - 1] for i in range(1, k)),
                    (-1) ** (k - 1) * k * gen(f"c{k}"),
                )
                assert cached[k - 1] == want, (n, k)


# -- graded routes against the root-truncating oracles ----------------------------

_signed_roots = st.builds(
    lambda i, sign: gen(f"x{i}") * sign,
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, -1]),
)


@st.composite
def scalars(draw, universal=False):
    """A rational, or a rational polynomial of degree <= 1 in the parameter t
    (and, if universal, in one of the universal generators e1..e3)."""
    c = R.from_rational(draw(rationals))
    if draw(st.booleans()):
        c = c + gen("t") * draw(rationals)
    if universal and draw(st.booleans()):
        c = c + gen(f"e{draw(st.integers(min_value=1, max_value=3))}") * draw(rationals)
    return c


@st.composite
def char_series(draw, unit=False, universal=False, min_order=0):
    order = draw(st.integers(min_value=min_order, max_value=6))
    coeffs = draw(st.lists(scalars(universal), min_size=order + 1, max_size=order + 1))
    if unit:
        coeffs[0] = R.one()
    return Series1(coeffs, order)


@st.composite
def within_order(draw, low, high, universal=False):
    """(H, n): n drawn from low..high, then a characteristic series H known to
    order n or more, since no product reads a coefficient beyond H's order."""
    n = draw(st.integers(min_value=low, max_value=high))
    return draw(char_series(unit=True, universal=universal, min_order=n)), n


@st.composite
def graded_root_series(draw):
    """A series with zero constant term whose coefficient k is homogeneous of
    root degree k in x1..x3."""
    cap = draw(st.integers(min_value=0, max_value=6))
    coeffs = [R.zero()]
    for k in range(1, cap + 1):
        c = R.zero()
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            mono = R.one()
            for i in draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)):
                mono = mono * gen(f"x{i}")
            c = c + mono * draw(scalars())
        coeffs.append(c)
    return Series1(coeffs, cap)


_LOG_ORDERS = st.integers(1, 8)


class TestCharacteristicLogMemo:
    """_characteristic_log is kept by the value of (H, n)."""

    @given(st.sampled_from(genus.GENUS_SERIES), _LOG_ORDERS)
    def test_a_hit_equals_a_fresh_log(self, name, n):
        H = genus.genus_series(name, n).H
        fresh = symfun._characteristic_log.__wrapped__(H, n)
        symfun._characteristic_log.cache_clear()
        first = symfun._characteristic_log(H, n)
        again = symfun._characteristic_log(Series1.from_obj(H.to_obj()), n)
        assert again is first and first == fresh == log_series(H.truncate(n))
        info = symfun._characteristic_log.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_a_refused_series_raises_every_time_and_is_not_kept(self):
        symfun._characteristic_log.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="constant term 1"):
                symfun._characteristic_log(Series1([2, 1], 1), 1)
            with pytest.raises(InsufficientOrderError):
                symfun._characteristic_log(Series1([1, 1], 1), 2)
        assert symfun._characteristic_log.cache_info().currsize == 0


class TestGradedAgainstRootOracles:
    @given(within_order(0, 6), st.lists(_signed_roots, max_size=4))
    def test_alphabet_product(self, H_cap, alphabet):
        H, cap = H_cap
        graded = series_product_over_alphabet(H, alphabet, cap)
        oracle = root_product(H, alphabet, cap)
        assert graded.order == cap
        for k in range(cap + 1):
            assert graded[k] == root_degree_part(oracle, k), k

    @given(within_order(1, 4, universal=True))
    def test_multiplicative_sequence(self, H_n):
        H, n = H_n
        got = multiplicative_sequence(H, n)
        assert got == root_multiplicative_sequence(H, n)

    # The root oracle costs up to seconds per example at rank 6.
    @settings(max_examples=4)
    @given(within_order(5, 6, universal=True))
    def test_multiplicative_sequence_at_ranks_5_and_6(self, H_n):
        H, n = H_n
        got = multiplicative_sequence(H, n)
        assert got == root_multiplicative_sequence(H, n)

    @given(st.booleans(), char_series(), st.lists(_signed_roots, max_size=4), st.integers(0, 6))
    def test_alphabet_product_checks_its_entry(self, unit, H, alphabet, cap):
        """Only a characteristic series known to order cap has a product."""
        if unit:
            H = Series1([1, *H.coefficients()[1:]], H.order)
        if not H[0].is_one():
            with pytest.raises(ValueError, match="constant term 1"):
                series_product_over_alphabet(H, alphabet, cap)
        elif cap > H.order:
            with pytest.raises(InsufficientOrderError, match=f"series order {H.order} < n = {cap}"):
                series_product_over_alphabet(H, alphabet, cap)
        else:
            assert series_product_over_alphabet(H, alphabet, cap).order == cap

    def test_a_product_reads_no_coefficient_beyond_the_order(self):
        todd = genus.genus_series("todd", 4).H
        alphabet = [gen("x1"), -gen("x1")]
        with pytest.raises(InsufficientOrderError, match="series order 2 < n = 4"):
            series_product_over_alphabet(todd.truncate(2), alphabet, 4)
        assert series_product_over_alphabet(todd.truncate(2), alphabet, 2) == (
            series_product_over_alphabet(todd, alphabet, 4).truncate(2)
        )

    def test_one_error_class_in_series_and_genus(self):
        assert genus.InsufficientOrderError is series.InsufficientOrderError
        assert symfun.InsufficientOrderError is series.InsufficientOrderError
        assert issubclass(InsufficientOrderError, ValueError)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_product_is_one_log_and_one_exp(self, m, monkeypatch, cold):
        """Over 2m roots: one log_series, one exp_series and no Series1
        product, so a fallback to multiplying factor by factor fails."""
        H = genus.genus_series("gamma_raw", 8).H
        calls = []

        def counted(name, original):
            return lambda *args: calls.append(name) or original(*args)

        for name in ("log_series", "exp_series"):
            monkeypatch.setattr(symfun, name, counted(name, getattr(symfun, name)))
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(Series1, name, counted("mul", getattr(Series1, name)))
        alphabet = [x for r in roots(m) for x in (r, -r)]
        series_product_over_alphabet(H, alphabet, 8)
        assert calls == ["log_series", "exp_series"]

    def test_universal_sequence_keeps_both_alphabets(self):
        from genusforge.genus import genus_series

        H = genus_series("universal_additive", 2).H
        K2 = multiplicative_sequence(H, 2)[1]
        names = K2.generators()
        assert {"c1", "c2"} <= names and {"e1", "e2"} <= names
        assert K2 == root_multiplicative_sequence(H, 2)[1]

    @given(graded_root_series())
    def test_exp_of_graded_series(self, f):
        oracle = exp_root_poly(sum(f.coefficients(), R.zero()), f.order)
        got = exp_series(f)
        for k in range(f.order + 1):
            assert got[k] == root_degree_part(oracle, k), k
