import ast
import copy
import json
import math
import pickle
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from genusforge.ring import (
    NonUnitError,
    RingElement,
    UnboundGeneratorError,
    bernoulli,
    euler_gamma,
    generator_info,
    zeta_fraction,
    zeta_numeric,
    zeta_tilde_even,
)
from genusforge import ring
from genusforge.ring import _decimal, _unpack
from genusforge.series import Series1

from conftest import monomials, rationals, ring_elements, int_max_str_digits
from oracles import FractionRing as F
from oracles import bernoulli_akiyama_tanigawa, pairwise_dot, per_k_zeta_fraction, tuple_dot
from oracles import fraction_to_obj, term_by_term_evaluate, termwise_substitute, uncached_hash
from oracles import folded_reduce, sorted_str, sorted_terms, sorted_to_obj
from oracles import fraction_from_obj, fraction_ring_element
from oracles import decoded_truncate_gen, fraction_euler_gamma, recurrence_bernoulli, regex_split

R = RingElement


def gen(name, exp=1, coeff=1):
    return R.gen(name, exp, coeff)


# The strategies a composite draws from are built once, here or beside it,
# not per draw: a strategy built inside a composite is made, unwrapped and
# validated again for every example.
_NONZERO = rationals.filter(bool)
_UNIT_EXPONENTS = st.integers(min_value=-3, max_value=3)


@st.composite
def units(draw):
    """A nonzero rational times a Laurent monomial in ipi2 and t."""
    out = R.from_rational(draw(_NONZERO))
    for name in ("ipi2", "t"):
        out = out * gen(name, draw(_UNIT_EXPONENTS))
    return out


def assert_canonical(x):
    """Integer numerators, none zero, over a positive denominator coprime to them."""
    nums = list(x._terms.values())
    assert type(x._den) is int and x._den > 0
    assert all(type(c) is int and c for c in nums)
    assert math.gcd(x._den, *nums) == 1
    assert nums or x._den == 1


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_akiyama_tanigawa(self):
        for n in range(0, 25):
            expected = bernoulli_akiyama_tanigawa(n)
            assert bernoulli(n) == expected, n

    def test_every_value_to_60_against_both_fraction_routes(self):
        """Integer sums over one denominator give the rationals of the
        Fraction recurrence and of the Akiyama-Tanigawa triangle."""
        bernoulli.cache_clear()
        for n in range(61):
            want = recurrence_bernoulli(n)
            assert bernoulli(n) == want == bernoulli_akiyama_tanigawa(n), n
            assert type(bernoulli(n)) is Fraction

    @given(st.integers(0, 60))
    def test_a_cold_call_against_both_fraction_routes(self, n):
        bernoulli.cache_clear()
        assert bernoulli(n) == recurrence_bernoulli(n) == bernoulli_akiyama_tanigawa(n)

    def test_memo_stable(self):
        assert bernoulli(20) == bernoulli(20)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_a_cold_call_recurses_only_a_few_frames(self):
        """B_n reads B_0 .. B_{n-1} in increasing order, so a cold B_200 runs
        within 50 frames of its caller."""
        bernoulli.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            value = bernoulli(200)
        finally:
            sys.setrecursionlimit(limit)
        assert value == bernoulli_akiyama_tanigawa(200)


class TestZetaTilde:
    def test_values(self):
        assert zeta_tilde_even(1) == Fraction(-1, 24)
        assert zeta_tilde_even(2) == Fraction(1, 1440)
        assert zeta_tilde_even(3) == Fraction(-1, 60480)

    def test_formula(self):
        for k in range(1, 9):
            assert zeta_tilde_even(k) == -bernoulli(2 * k) / (2 * math.factorial(2 * k))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            zeta_tilde_even(0)


class TestZetaNumeric:
    def test_against_mpmath(self, mp):
        mp.mp.dps = 40
        for k in range(2, 11):
            assert abs(zeta_numeric(k) - float(mp.zeta(k))) < 1e-14

    def test_30_digit_engine(self, mp):
        mp.mp.dps = 45
        for k in (2, 3, 5, 8):
            err = abs(mp.mpf(zeta_fraction(k, 30).numerator) / zeta_fraction(k, 30).denominator - mp.zeta(k))
            assert err < mp.mpf(10) ** (-30), (k, err)

    def test_classic_constants(self):
        assert abs(zeta_numeric(2) - math.pi**2 / 6) < 1e-14
        assert abs(zeta_numeric(4) - math.pi**4 / 90) < 1e-14
        assert abs(zeta_numeric(3) - 1.2020569031595943) < 1e-14

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            zeta_fraction(1)

    def test_shared_weights_give_the_per_k_fraction(self):
        for precision in range(1, 31):
            for k in range(2, 41):
                want = per_k_zeta_fraction(k, precision)
                assert zeta_fraction.__wrapped__(k, precision) == want, (k, precision)


def test_euler_gamma_is_the_float_of_the_fraction_route():
    """One integer sum over one denominator rounds to the float of the
    Fraction sum it replaced."""
    assert euler_gamma.__wrapped__() == fraction_euler_gamma() == euler_gamma()


def test_euler_gamma_digits(mp):
    mp.mp.dps = 30
    assert abs(euler_gamma() - float(mp.euler)) < 5e-16


class TestGenerators:
    def test_core_weights(self):
        assert generator_info("gamma").weight == 1
        assert generator_info("ipi2").weight == 1
        assert generator_info("zeta5").weight == 5
        assert generator_info("t").weight == 0
        assert generator_info("u").weight == 0
        assert generator_info("delta").weight == 2
        assert generator_info("epsilon").weight == 4
        assert generator_info("e7").weight == 7
        assert generator_info("p3").weight == 6

    def test_laurent_flags(self):
        for name in ("ipi2", "t", "u"):
            assert generator_info(name).laurent
        for name in ("gamma", "zeta2", "delta", "q", "e1"):
            assert not generator_info(name).laurent

    def test_gen_keeps_an_int_coefficient_an_int(self):
        made = AssertionError("a Fraction was made")
        with mock.patch.object(Fraction, "__new__", side_effect=made):
            xs = [gen("gamma", 2, -3), gen("t", -1, 4), gen("zeta3", 0, 5), gen("u", 1, True)]
        assert [x.terms() for x in xs] == [
            [((("gamma", 2),), -3)], [((("t", -1),), 4)], [((), 5)], [((("u", 1),), 1)]
        ]
        assert all(type(c) is int and x._den == 1 for x in xs for c in x._terms.values())

    def test_unknown_names(self):
        # A final newline or a non-ASCII digit does not make an index.
        for name in ("zeta1", "foo", "e0", "x0", "e1\n", "zeta2\n", "c1\u0661", "p\u0662"):
            with pytest.raises(KeyError):
                generator_info(name)
            with pytest.raises(KeyError):
                RingElement({((name, 1),): 1})
            with pytest.raises(KeyError):
                RingElement.from_obj({"terms": [{"num": "1", "den": "1", "exps": {name: 1}}]})

    def test_negative_exponent_guard(self):
        with pytest.raises(ValueError):
            gen("gamma", -1)
        assert gen("t", -2) is not None


class TestArithmetic:
    @given(ring_elements(), ring_elements(), ring_elements())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(ring_elements())
    def test_units(self, a):
        assert a + 0 == a
        assert a * 1 == a
        assert a - a == R.zero()
        assert a * 0 == R.zero()

    def test_scalar_coercion(self):
        g = gen("gamma")
        assert 2 * g == g + g
        assert g * Fraction(1, 2) + g * Fraction(1, 2) == g

    def test_pow(self):
        g = gen("gamma") + 1
        assert g**0 == R.one()
        assert g**3 == g * g * g

    @given(ring_elements(), st.integers(min_value=0, max_value=9))
    def test_pow_is_the_repeated_product(self, a, n):
        expected = R.one()
        for _ in range(n):
            expected = expected * a
        assert a**n == expected

    @given(units(), st.integers(min_value=1, max_value=9))
    def test_negative_pow_of_a_unit_is_the_repeated_product_of_its_inverse(self, u, n):
        expected = R.one()
        for _ in range(n):
            expected = expected * u.inverse()
        assert u**-n == expected

    def test_pow_multiplies_nothing_by_one(self, monkeypatch):
        """Squaring starts from the lowest set bit's power, not from 1 times
        it: x^n takes one product per squaring and one per further set bit."""
        dot, factors = R.dot, []

        def recording(pairs):
            pairs = list(pairs)
            factors.extend(x for pair in pairs for x in pair)
            return dot(pairs)

        monkeypatch.setattr(R, "dot", staticmethod(recording))
        g = gen("gamma") + gen("t", -1) * Fraction(1, 2)
        assert g**1 is g
        for n in range(2, 10):
            factors.clear()
            g**n
            assert not any(x.is_one() for x in factors), n
            assert len(factors) == 2 * (n.bit_length() - 1 + bin(n).count("1") - 1), n

    def test_inverse_monomial_unit(self):
        m = gen("t", 2, Fraction(3, 5))
        assert m * m.inverse() == R.one()
        assert gen("ipi2", -4).inverse() == gen("ipi2", 4)

    def test_inverse_rejects_nonunits(self):
        with pytest.raises(NonUnitError):
            (gen("gamma") + 1).inverse()
        with pytest.raises(ValueError):
            gen("gamma").inverse()  # gamma admits no negative exponents


class TestAgainstFractionRing:
    """The integer core against dict-of-Fraction arithmetic."""

    @given(ring_elements(), ring_elements())
    def test_add_sub_mul_neg(self, a, b):
        fa, fb = F.of(a), F.of(b)
        assert F.of(a + b) == F.add(fa, fb)
        assert F.of(a - b) == F.add(fa, F.neg(fb))
        assert F.of(-a) == F.neg(fa)
        assert F.of(a * b) == F.mul(fa, fb)

    @given(ring_elements(), st.integers(min_value=0, max_value=3))
    def test_pow(self, a, n):
        assert F.of(a**n) == F.pow(F.of(a), n)

    @given(units(), st.integers(min_value=-3, max_value=3))
    def test_inverse_and_pow_of_units(self, u, n):
        assert F.of(u.inverse()) == F.inverse(F.of(u))
        assert F.of(u**n) == F.pow(F.of(u), n)

    @given(ring_elements())
    def test_inverse_rejects_what_the_reference_rejects(self, a):
        try:
            expected = F.inverse(F.of(a))
        except NonUnitError:
            with pytest.raises(NonUnitError):
                a.inverse()
        else:
            assert F.of(a.inverse()) == expected

    @given(ring_elements(), ring_elements(), units())
    def test_substitute(self, a, b, u):
        table = {"gamma": b, "t": u}
        assert F.of(a.substitute(table)) == F.substitute(F.of(a), {k: F.of(v) for k, v in table.items()})

    @given(ring_elements(), ring_elements())
    def test_reduce_and_conjugate(self, a, b):
        x = a * b * gen("ipi2", -4)
        assert F.of(x.reduce()) == F.reduce(F.of(x))
        assert F.of(x.conjugate()) == F.conjugate(F.of(x))

    @given(st.dictionaries(
        st.sampled_from([(), (("gamma", 1),), (("ipi2", -2), ("zeta2", 1)), (("t", 3),)]),
        rationals,
    ))
    def test_terms_of_a_fraction_table(self, table):
        x = R(table)
        expected = {m: c for m, c in table.items() if c}
        assert dict(x.terms()) == expected
        for m, c in expected.items():
            assert x.coefficient(m) == c

    @given(ring_elements())
    def test_json_round_trip_keeps_fraction_terms(self, a):
        b = R.from_obj(a.to_obj())
        assert F.of(b) == F.of(a)
        assert [(t["num"], t["den"]) for t in a.to_obj()["terms"]] == [
            (str(c.numerator), str(c.denominator)) for _, c in a.terms()
        ]


class TestCanonicalForm:
    @given(ring_elements(), ring_elements(), units(), st.integers(min_value=-2, max_value=3))
    def test_every_operation_returns_canonical_storage(self, a, b, u, n):
        results = [
            a + b, a - b, -a, a * b, a * u, a**2, u**n, u.inverse(), a / u,
            a.substitute({"gamma": b, "t": u}), (a * gen("ipi2", -4)).reduce(),
            a.conjugate(), a.truncate_gen("gamma", 1), a.truncate_gen("t", 0),
            R.from_obj(a.to_obj()), R(dict(a.terms())), a - a, a * 0,
        ]
        for x in results:
            assert_canonical(x)

    @given(rationals, st.integers(min_value=-3, max_value=3))
    def test_constructors_are_canonical(self, q, e):
        for x in (R.from_rational(q), gen("t", e, q), R.zero(), R.one(), R({(): q, (("t", 1),): q})):
            assert_canonical(x)

    def test_common_denominator_is_reduced(self):
        x = gen("gamma", 1, Fraction(1, 6)) + gen("zeta2", 1, Fraction(1, 3))
        assert x._den == 6 and sorted(x._terms.values()) == [1, 2]
        y = x - gen("gamma", 1, Fraction(1, 6))
        assert y._den == 3 and decoded(y) == {(("zeta2", 1),): 1}


_RING = ring_elements()
_PAIRS = st.lists(st.tuples(_RING, _RING), max_size=5)
# A drawn pool is drawn from by index, through a strategy built once per pool
# size: up to 5 pairs, and 7 once two are repeated.
_REPEATS = {n: st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2) for n in range(1, 6)}
_PERMUTATIONS = {n: st.permutations(range(n)) for n in range(8)}


@st.composite
def product_sums(draw):
    """Pairs of ring elements, with some pairs repeated negated so that whole
    products cancel, in a drawn order."""
    pairs = draw(_PAIRS)
    if pairs:
        pairs += [(-pairs[i][0], pairs[i][1]) for i in draw(_REPEATS[len(pairs)])]
    return [pairs[i] for i in draw(_PERMUTATIONS[len(pairs)])]


def decoded(x):
    """The stored numerators keyed by monomial tuple, not by packed key."""
    return {_unpack(m): c for m, c in x._terms.items()}


def storage(x):
    """The canonical form: (monomial, numerator) pairs in sorted order, and the
    denominator.  The order of the stored dict carries no meaning."""
    return sorted(decoded(x).items()), x._den


class TestDotKernel:
    """RingElement.dot against the sum of products in the reference rings."""

    @given(product_sums())
    def test_against_fraction_ring(self, pairs):
        expected = {}
        for x, y in pairs:
            expected = F.add(expected, F.mul(F.of(x), F.of(y)))
        got = R.dot(pairs)
        assert F.of(got) == expected
        assert_canonical(got)
        assert got == R(expected) and hash(got) == hash(R(expected))

    @given(product_sums())
    def test_same_storage_as_pairwise_sums(self, pairs):
        assert storage(R.dot(pairs)) == storage(pairwise_dot(pairs))
        assert storage(R.dot(iter(pairs))) == storage(pairwise_dot(pairs))

    @given(ring_elements(), ring_elements())
    def test_product_is_the_one_pair_case(self, a, b):
        assert storage(a * b) == storage(R.dot([(a, b)]))

    def test_empty_sequence_and_zero_factors(self):
        zero = R.zero()
        assert storage(R.dot([])) == ([], 1)
        assert storage(R.dot([(zero, gen("gamma")), (gen("t"), zero)])) == ([], 1)
        assert R.dot([(zero, gen("gamma")), (gen("t"), gen("t", -1))]) == 1

    def test_cancellation_to_zero(self):
        x, y = gen("gamma", 1, Fraction(1, 3)) + gen("t", -2), gen("zeta2", 1, Fraction(5, 7))
        got = R.dot([(x, y), (x, -y)])
        assert got.is_zero() and storage(got) == ([], 1)
        # a sum that cancelled leaves no trace in the storage of what follows
        got = R.dot([(x, y), (-x, y), (gen("t", -1), R.from_rational(Fraction(1, 2)))])
        assert storage(got) == ([((("t", -1),), 1)], 2)

    def test_mixed_denominators_reduce_to_lowest_terms(self):
        half, third = R.from_rational(Fraction(1, 2)), R.from_rational(Fraction(1, 3))
        got = R.dot([(gen("gamma"), half), (gen("gamma"), third), (gen("t", -1), third)])
        assert got == gen("gamma", 1, Fraction(5, 6)) + gen("t", -1, Fraction(1, 3))
        assert_canonical(got) and got._den == 6
        got = R.dot([(gen("gamma"), half), (gen("gamma"), half), (gen("ipi2", -3), third * 3)])
        assert storage(got) == ([((("gamma", 1),), 1), ((("ipi2", -3),), 1)], 1)

    def test_laurent_exponents_meet_in_one_monomial(self):
        pairs = [(gen("t", 2), gen("t", -2)), (gen("ipi2", -1), gen("ipi2")), (gen("t"), gen("u"))]
        got = R.dot(pairs)
        assert got == 2 + gen("t") * gen("u")

    def test_a_term_that_passes_through_zero_inside_a_pair_survives(self):
        # (1 + t) * (t^-1 gamma - gamma) adds -gamma before +gamma, so gamma,
        # already summed from the first pair, touches zero and comes back.
        one_plus_t = R({(): 1, (("t", 1),): 1})
        y = R({(("gamma", 1), ("t", -1)): 1, (("gamma", 1),): -1})
        pairs = [(R.one(), gen("gamma") + gen("zeta2")), (one_plus_t, y)]
        got = R.dot(pairs)
        assert storage(got) == storage(pairwise_dot(pairs))


# Rational scalars: zero, small, negative, and numerators and denominators
# far beyond a machine word.
scalars = st.one_of(
    st.just(0),
    rationals,
    st.integers(),
    st.fractions(),
    st.builds(Fraction, st.integers(min_value=-(10**40), max_value=10**40), st.integers(1, 10**30)),
)


class TestScalingKernel:
    """An element times an int or a Fraction scales the numerators and the
    denominator: the value, storage, hash and exponent bound of the one-pair
    dot with the scalar made an element."""

    @given(ring_elements(), scalars)
    @example(gen("gamma", 1, 2), Fraction(1, 2))
    @example(gen("gamma", 1, Fraction(1, 6)) + gen("t", -2, Fraction(1, 4)), Fraction(-9, 10))
    @example(gen("t", -3, 5), 0)
    def test_same_as_the_coerced_product(self, x, q):
        coerced = R.from_rational(q)
        via_dot = R.dot([(x, coerced)])
        assert via_dot == tuple_dot([(x, coerced)])
        for got in (x * q, q * x):
            assert got == via_dot and storage(got) == storage(via_dot)
            assert_canonical(got)
            assert got._emax == via_dot._emax
            assert hash(got) == uncached_hash(via_dot) == hash(via_dot)

    @given(st.lists(st.tuples(ring_elements(), st.one_of(ring_elements(), scalars)), max_size=4))
    @example([(gen("gamma", 1, 2), Fraction(1, 2)), (gen("t", -1), Fraction(-3, 4))])
    def test_a_dot_pair_may_have_a_rational_second_factor(self, pairs):
        """A scalar second factor of a dot pair scales as the product does:
        the storage and exponent bound of the dot with it made an element."""
        coerced = [(x, y if isinstance(y, R) else R.from_rational(y)) for x, y in pairs]
        got = R.dot(pairs)
        assert storage(got) == storage(pairwise_dot(coerced))
        assert got._emax == R.dot(coerced)._emax
        assert_canonical(got)

    def test_a_dot_pair_refuses_a_float(self):
        with pytest.raises(TypeError, match="is an element or rational, not float"):
            R.dot([(gen("gamma"), 1.5)])

    @given(ring_elements())
    def test_zero_scalar_gives_the_zero_element(self, x):
        for q in (0, Fraction(0), False):
            assert (x * q) is R.zero() and (q * x) is R.zero()

    @given(ring_elements())
    def test_bool_scalar_is_an_int(self, x):
        assert x * True == x == True * x
        assert storage(x * True) == storage(x)

    def test_float_scalar_is_refused(self):
        with pytest.raises(TypeError):
            gen("gamma") * 1.5
        with pytest.raises(TypeError):
            1.5 * gen("gamma")

    def test_division_by_zero_is_not_a_unit(self):
        for zero in (0, Fraction(0), R.zero(), False):
            with pytest.raises(NonUnitError, match="^not a monomial unit: 0$"):
                gen("gamma") / zero

    @given(ring_elements(), scalars.filter(bool))
    @example(gen("gamma", 1, 2) + gen("t", -1, Fraction(1, 3)), -2)
    @example(gen("gamma", 1, 6) + gen("t", -1, Fraction(1, 3)), 4)
    @example(gen("zeta3", 1, Fraction(4, 9)), Fraction(-8, 3))
    @example(gen("zeta3", 1, Fraction(4, 9)), Fraction(2, 3))
    def test_division_by_a_rational_scales(self, x, q):
        """x / q is x * (1/q), stored alike; neither an element nor a
        Fraction is made of q."""
        made = AssertionError("made")
        with mock.patch.object(R, "inverse", side_effect=made):
            with mock.patch.object(Fraction, "__new__", side_effect=made):
                got = x / q
        want = x * Fraction(1, q)
        assert got == want and storage(got) == storage(want)
        assert_canonical(got)
        assert got._emax == x._emax

    def test_from_rational_keeps_the_value_it_is_given(self):
        q = Fraction(-6, 4)
        x = R.from_rational(q)
        assert storage(x) == ([((), -3)], 2)
        assert R.from_rational(7)._den == 1 and R.from_rational(Fraction(7)) == 7


_LAURENT = ("ipi2", "t", "u")
_MANY = tuple(f"e{k}" for k in range(1, 41)) + tuple(f"zeta{k}" for k in range(2, 31))
_TOP = 2**23 - 1  # the largest |exponent| a packed monomial holds


_UP_TO_4 = st.integers(min_value=0, max_value=4)
_LAURENT_NAMES = st.sets(st.sampled_from(_LAURENT), max_size=3)
_LAURENT_EXPONENTS = st.integers(min_value=-40, max_value=40)
_MANY_NAMES = st.sets(st.sampled_from(_MANY), max_size=4)
_MANY_EXPONENTS = st.integers(min_value=1, max_value=6)


@st.composite
def laurent_elements(draw):
    """Up to 4 terms in the Laurent generators, exponents in [-40, 40]."""
    terms = {}
    for _ in range(draw(_UP_TO_4)):
        names = draw(_LAURENT_NAMES)
        terms[tuple((n, draw(_LAURENT_EXPONENTS)) for n in names)] = draw(rationals)
    return R(terms)


@st.composite
def many_generator_elements(draw):
    """Up to 4 terms over e1..e40 and zeta2..zeta30, so keys span many slots."""
    terms = {}
    for _ in range(draw(_UP_TO_4)):
        names = draw(_MANY_NAMES)
        terms[tuple((n, draw(_MANY_EXPONENTS)) for n in names)] = draw(rationals)
    return R(terms)


packed_elements = st.one_of(laurent_elements(), many_generator_elements(), ring_elements())


_WIDE_UNIT_EXPONENTS = st.integers(min_value=-1000, max_value=1000)


@st.composite
def laurent_units(draw):
    """A nonzero rational times ipi2^a t^b u^c, |a|, |b|, |c| <= 1000."""
    return R({tuple((n, draw(_WIDE_UNIT_EXPONENTS)) for n in _LAURENT): draw(_NONZERO)})


class TestPackedMonomials:
    """Monomials stored as packed integer keys, against the Fraction ring and
    the dot accumulation on monomial tuples."""

    @given(st.lists(st.tuples(packed_elements, packed_elements), max_size=4))
    def test_dot_against_both_references(self, pairs):
        expected = {}
        for x, y in pairs:
            expected = F.add(expected, F.mul(F.of(x), F.of(y)))
        got = R.dot(pairs)
        assert F.of(got) == expected
        assert storage(got) == storage(tuple_dot(pairs))
        assert_canonical(got)

    @given(packed_elements)
    def test_decoded_views_agree(self, x):
        terms = x.terms()
        assert R(dict(terms)) == x and R.from_json(x.to_json()) == x
        assert x.generators() == {name for m, _ in terms for name, _ in m}
        assert all(x.coefficient(tuple(reversed(m))) == c for m, c in terms)
        assert sorted(m for m, _ in terms) == sorted(decoded(x))

    @given(laurent_units(), packed_elements)
    def test_products_that_cancel_to_the_unit_monomial(self, u, x):
        inv = u.inverse()
        assert F.of(inv) == F.inverse(F.of(u))
        assert (u * inv).is_one() and (u * inv)._terms == {0: 1}
        assert storage(R.dot([(u, inv), (x, R.one())])) == storage(1 + x)
        assert (x * u) * inv == x and inv.inverse() == u

    def test_exponents_out_of_range_raise(self):
        for make in (
            lambda: gen("t", 2**23),
            lambda: gen("t", -(2**23)),
            lambda: gen("t", 2**22) ** 2,
            lambda: gen("t", 2**22) * gen("t", 2**22),
            lambda: gen("t", -(2**22)) * gen("ipi2") * gen("t", -(2**22)),
            lambda: R({(("t", 2**23),): 1}),
            lambda: R({(("t", 2**22), ("t", 2**22)): 1}),
            lambda: R.from_obj({"terms": [{"num": "1", "den": "1", "exps": {"t": 2**23}}]}),
        ):
            with pytest.raises(ValueError):
                make()

    def test_exponents_at_the_edge_of_the_range(self):
        x = gen("t", _TOP)
        assert x.terms() == [((("t", _TOP),), 1)]
        assert x.inverse().terms() == [((("t", -_TOP),), 1)]
        assert gen("t", 2**22) * gen("t", 2**22 - 1) == x
        y = R({(("t", -_TOP), ("u", _TOP), ("ipi2", -_TOP)): 3})
        assert y.terms() == [((("ipi2", -_TOP), ("t", -_TOP), ("u", _TOP)), 3)]
        inverse = [((("ipi2", _TOP), ("t", _TOP), ("u", -_TOP)), Fraction(1, 3))]
        assert y.inverse().terms() == inverse
        one = gen("t", 2**22 - 1) * gen("t", 1 - 2**22)
        assert one == 1 and hash(one) == hash(1) and one._terms == {0: 1}
        # The check adds the factors' bounds, so it refuses a product that
        # would cancel: it never looks at the exponents themselves.
        with pytest.raises(ValueError):
            x * x.inverse()

    def test_coefficient_of_a_generator_never_seen_is_zero(self):
        from genusforge import ring

        x = gen("gamma") + 1
        assert x.coefficient((("x987654", 1),)) == 0 and "x987654" not in ring._SLOTS
        assert x.coefficient((("nosuch", 1),)) == 0
        assert x.coefficient((("gamma", 1), ("t", 0))) == 0
        assert x.coefficient((("gamma", 1), ("gamma", 0))) == 0
        assert x.coefficient((("t", 2**23),)) == 0
        assert x.coefficient((("gamma", 1),)) == 1 and x.coefficient(()) == 1


def _run_script(script):
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_slots_registered_by_concurrent_threads():
    """Eight threads packing e1..e64 at once, each in its own order, give every
    generator one slot and agree on every result."""
    script = (
        "import random\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from genusforge import ring\n"
        "R = ring.RingElement\n"
        "def work(seed):\n"
        "    ks = list(range(1, 65))\n"
        "    random.Random(seed).shuffle(ks)\n"
        "    x, s = R.one(), R.zero()\n"
        "    for k in ks:\n"
        "        x = x * R.gen(f'e{k}', k)\n"
        "        s = s + R.gen(f'e{k}', 1, k)\n"
        "    return x, s\n"
        "with ThreadPoolExecutor(8) as pool:\n"
        "    results = list(pool.map(work, range(8)))\n"
        "assert all(r == results[0] for r in results)\n"
        "assert sorted(ring._SLOTS.values()) == list(range(len(ring._NAMES)))\n"
        "assert all(ring._NAMES[k] == name for name, k in ring._SLOTS.items())\n"
        "x, s = results[0]\n"
        "assert x.terms() == [(tuple(sorted((f'e{k}', k) for k in range(1, 65))), 1)]\n"
        "assert s.terms() == [(((f'e{k}', 1),), k) for k in range(1, 65)]\n"
        "print(len(ring._NAMES))\n"
    )
    assert int(_run_script(script)) >= 64


def test_output_does_not_depend_on_slot_order():
    """The same computation prints the same bytes whichever order the
    generators were first packed in."""
    names = ["gamma", "zeta2", "zeta3", "ipi2", "t", "e1", "e2"]
    outputs = []
    for order in (names, names[::-1]):
        script = (
            "from genusforge.ring import RingElement as R\n"
            f"for name in {order!r}:\n"
            "    R.gen(name)\n"
            "x = R.gen('gamma') + R.gen('ipi2', -1) * R.gen('zeta2')\n"
            "x = x + R.gen('e2') - R.gen('t', -2)\n"
            "y = (x * x + R.gen('e1') * R.gen('zeta3')) ** 2\n"
            f"print(y.to_json(), y, y.generators() == {set(names)!r})\n"
            "print(y.evaluate({'t': 0.5, 'e1': 2, 'e2': 3}), y.weight(), y.conjugate().reduce())\n"
        )
        outputs.append(_run_script(script))
    assert outputs[0] == outputs[1] and "True" in outputs[0]


_PICKLED = (
    "from genusforge import fgl\n"
    "from genusforge.ring import RingElement as R\n"
    "from genusforge.series import Series1\n"
    "x = R.gen('gamma', 2, 5)\n"
    "objects = [x, Series1([1, x, R.gen('zeta3') - x], 2), fgl.catalog('gamma_raw', 4)]\n"
)


@pytest.mark.parametrize(
    "writer, reader",
    [(["zeta3"], []), (["zeta3"], ["gamma", "zeta3"]), (["gamma", "zeta3"], ["zeta3", "zeta2"])],
    ids=["reader-knows-nothing", "reader-swapped-slots", "reader-other-slots"],
)
def test_pickle_loads_the_same_value_under_another_slot_order(writer, reader):
    """A pickle carries monomials by name, so a process that packed its
    generators in another order loads the element that was written."""
    dumped = _run_script(
        "import pickle\n"
        "from genusforge.ring import RingElement\n"
        f"for name in {writer!r}:\n"
        "    RingElement.gen(name)\n" + _PICKLED + "print(pickle.dumps(objects).hex())\n"
    )
    loaded = _run_script(
        "import pickle\n"
        "from genusforge.ring import RingElement\n"
        f"for name in {reader!r}:\n"
        "    RingElement.gen(name)\n"
        f"loaded = pickle.loads(bytes.fromhex({dumped.strip()!r}))\n" + _PICKLED +
        "assert loaded == objects, (loaded, objects)\n"
        "assert [hash(a) for a in loaded] == [hash(b) for b in objects]\n"
        "print(loaded[0], loaded[1].to_obj() == objects[1].to_obj())\n"
    )
    assert loaded.split() == ["5*gamma^2", "True"]


class TestHashAcrossRoutes:
    @given(ring_elements(), units())
    def test_unit_round_trip(self, a, u):
        b = (a * u) * u.inverse()
        assert b == a and hash(b) == hash(a)

    @given(ring_elements(), ring_elements())
    def test_add_then_subtract(self, a, b):
        c = a + b - b
        assert c == a and hash(c) == hash(a)
        assert len({a, c}) == 1

    @given(rationals.filter(bool), units())
    def test_rational_reached_by_a_product_hashes_like_its_fraction(self, q, u):
        x = (R.from_rational(q) * u) * u.inverse()
        assert x == q and hash(x) == hash(q)
        y = gen("gamma", 1, q) + q - gen("gamma", 1, q)
        assert y == q and hash(y) == hash(q)


def _routes(a):
    """Fresh elements equal to a, each built by another route: dot, _plus,
    the constructor and from_obj."""
    b = gen("gamma", 2, 3)
    return [
        R.dot([(a, R.one()), (b, R.one()), (b, R.from_rational(-1))]),
        (a + b) - b,
        R(dict(a.terms())),
        R.from_obj(a.to_obj()),
    ]


class TestCachedHash:
    """An element keeps the hash of its first use; it must be the hash a fresh
    computation gives, and equal elements hash equally before and after."""

    @given(packed_elements)
    def test_kept_hash_is_the_fresh_one(self, a):
        fresh = uncached_hash(a)
        assert hash(a) == fresh and a._hash == fresh
        assert hash(a) == fresh  # read back from the slot

    @given(packed_elements)
    def test_equal_elements_by_any_route_hash_equally(self, a):
        fresh = uncached_hash(a)
        built = _routes(a)
        assert all(x == a for x in built)
        assert [hash(x) for x in built] == [fresh] * len(built)  # first use
        assert [hash(x) for x in built] == [fresh] * len(built)  # kept
        hash(a)
        assert [hash(x) for x in _routes(a)] == [fresh] * len(built)  # after a's is kept

    @given(rationals)
    def test_rational_keeps_the_hash_of_its_fraction(self, q):
        for x in [R.from_rational(q), *_routes(R.from_rational(q))]:
            assert hash(x) == hash(q) and hash(x) == hash(q)
            assert len({q, x}) == 1 and len({x, q}) == 1

    @given(packed_elements, st.booleans())
    def test_copy_and_pickle_round_trips_hash_equally(self, a, used):
        if used:
            hash(a)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == uncached_hash(a) == hash(a)

    def test_warm_cpn_hit_hashes_no_element_again(self):
        from genusforge import genus

        g = genus.genus_series("todd", 12)
        for n in (12, 7):
            genus.genus_cpn(g, n)
            with mock.patch.object(R, "as_rational", autospec=True, side_effect=R.as_rational) as spy:
                genus.genus_cpn(g, n)
            assert spy.call_count == 0, n


class TestKeptTermOrder:
    """An element sorts its terms on the first read and keeps the packed keys
    in _order; terms(), to_obj() and str() read that order, and must give
    what sorting afresh gives, before and after the first read and after a
    pickle round trip (which carries no order)."""

    @staticmethod
    def assert_reads_match_a_fresh_sort(x):
        terms = [(m, Fraction(c, x._den)) for m, c in sorted_terms(x)]
        assert x.terms() == terms
        assert x.to_obj() == sorted_to_obj(x)
        assert str(x) == sorted_str(x)

    @example(R.zero())
    @example(gen("zeta2") + gen("gamma") + gen("t", -1) + 1)
    @given(packed_elements)
    def test_reads_match_a_fresh_sort(self, a):
        fresh = R(dict(a.terms()))  # a new object, never read
        assert not hasattr(fresh, "_order")
        self.assert_reads_match_a_fresh_sort(fresh)  # the first read sorts
        # Only the packed keys are kept, in the order of the fresh sort.
        assert all(type(m) is int for m in fresh._order)
        assert [_unpack(m) for m in fresh._order] == [m for m, _ in sorted_terms(fresh)]
        self.assert_reads_match_a_fresh_sort(fresh)  # read back from the slot
        loaded = pickle.loads(pickle.dumps(fresh))
        assert loaded == fresh and not hasattr(loaded, "_order")
        self.assert_reads_match_a_fresh_sort(loaded)
        self.assert_reads_match_a_fresh_sort(loaded)


def _period_term(c, z2, z4, z6, z3, a):
    zetas = gen("zeta2", z2) * gen("zeta4", z4) * gen("zeta6", z6) * gen("zeta3", z3)
    return zetas * gen("ipi2", a, c)


_TERM_PARTS = (rationals, *(st.integers(0, n) for n in (2, 2, 1, 1)))
# Elements over even and odd zetas and ipi2, whose ipi2 exponents
# (down to -10) cover all, some or none of their even zetas' weight.
period_elements = st.lists(
    st.builds(_period_term, *_TERM_PARTS, st.integers(-10, 2)), max_size=5
).map(lambda ts: sum(ts, R.zero()))
# Balanced ones: each term's ipi2 exponent is at most minus the weight of
# its even zetas, as in every element the package reduces.
balanced_elements = st.lists(
    st.builds(
        lambda c, z2, z4, z6, z3, a: _period_term(c, z2, z4, z6, z3, a - 2 * z2 - 4 * z4 - 6 * z6),
        *_TERM_PARTS,
        st.integers(-4, 0),
    ),
    max_size=5,
).map(lambda ts: sum(ts, R.zero()))


def _even_zetas(x):
    return {name for name in x.generators() if name.startswith("zeta") and int(name[4:]) % 2 == 0}


class TestReduce:
    @given(balanced_elements)
    def test_equals_the_termwise_fold(self, x):
        """On balanced elements the substitution is the ipi2-budget fold,
        stored form and all."""
        out, folded = x.reduce(), folded_reduce(x)
        assert out == folded
        assert (out._terms, out._den) == (folded._terms, folded._den)
        assert (out is x) == (folded is x)

    @example(gen("zeta2") * gen("ipi2", -2) + Fraction(1, 24))  # cancels to zero
    @example(gen("zeta2") * gen("ipi2", -2) + gen("zeta4") * gen("ipi2", -2))
    @given(period_elements)
    def test_equals_the_termwise_substitution(self, x):
        """Balanced or not, reduce is the term-wise substitution, idempotent,
        leaves no even zeta and returns x itself when it has none."""
        out = x.reduce()
        assert F.of(out) == F.reduce(F.of(x))
        assert_canonical(out)
        assert not _even_zetas(out) and out.reduce() is out
        assert (out is x) == (not _even_zetas(x))

    def test_even_zeta_rewrites(self):
        assert (gen("zeta2") * gen("ipi2", -2)).reduce() == R.from_rational(Fraction(-1, 24))
        unred = gen("gamma") * gen("zeta3") * gen("ipi2", -3)
        assert unred.reduce() is unred
        sq = gen("zeta2", 2) * gen("ipi2", -4)
        assert sq.reduce() == R.from_rational(Fraction(1, 576))

    def test_an_even_zeta_without_its_period_is_substituted(self):
        assert gen("zeta2").reduce() == gen("ipi2", 2, Fraction(-1, 24))
        assert (gen("zeta2") * gen("ipi2", -1)).reduce() == gen("ipi2", 1, Fraction(-1, 24))
        assert gen("zeta4", 1, 3).reduce() == gen("ipi2", 4, 3 * zeta_tilde_even(2))

    def test_idempotent(self):
        x = gen("zeta4") * gen("zeta2") * gen("ipi2", -6) + gen("gamma") * gen("zeta2") * gen("ipi2", -3)
        assert x.reduce().reduce() == x.reduce()

    def test_balanced_fully_reduces(self):
        x = gen("zeta2", 2) * gen("zeta4") * gen("ipi2", -8)
        out = x.reduce()
        assert out == R.from_rational(zeta_tilde_even(1) ** 2 * zeta_tilde_even(2))

    @example(gen("zeta2"), gen("zeta4") * gen("ipi2", -1) + gen("zeta3"))
    @given(period_elements, period_elements)
    def test_commutes_with_sum_and_product(self, a, b):
        """A ring map on every element, not only on balanced ones."""
        assert (a * b).reduce() == a.reduce() * b.reduce()
        assert (a + b).reduce() == a.reduce() + b.reduce()

    def test_numeric_agreement(self):
        x = gen("zeta6") * gen("zeta2") * gen("ipi2", -8)
        assert abs(x.evaluate() - x.reduce().evaluate()) < 1e-15


class TestConjugate:
    def test_basic_values(self):
        assert R.from_rational(Fraction(5, 7)).conjugate() == R.from_rational(Fraction(5, 7))
        z3 = gen("zeta3") * gen("ipi2", -3)
        assert z3.conjugate() == -z3
        gi = gen("gamma") * gen("ipi2", -1)
        assert gi.conjugate() == -gi

    @given(ring_elements(), ring_elements())
    def test_involution_and_homomorphism(self, a, b):
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()

    def test_zeta_tilde_parities(self):
        even = (gen("zeta4") * gen("ipi2", -4)).reduce()
        assert even.conjugate() == even
        odd = gen("zeta5") * gen("ipi2", -5)
        assert odd.conjugate() == -odd


class TestWeight:
    def test_graded_values(self):
        assert (gen("gamma") ** 2).weight() == 2
        assert (gen("zeta3") * gen("ipi2", -3)).weight() == 0
        assert (gen("gamma") + gen("zeta2")).weight() is None

    def test_zero_weight_convention(self):
        assert R.zero().weight() == 0

    @given(ring_elements(), ring_elements())
    def test_additive_on_homogeneous(self, a, b):
        wa, wb = a.weight(), b.weight()
        if wa is None or wb is None or a.is_zero() or b.is_zero():
            return
        if a.is_homogeneous(wa) and b.is_homogeneous(wb):
            prod = a * b
            if not prod.is_zero():
                assert prod.weight() == wa + wb


# Values for every generator evaluate has no default for; none is zero, as t
# and u take negative exponents.
_BOUND = ("t", "u", "q", "delta", "epsilon", "e1", "e2")
bound_values = st.fixed_dictionaries(
    {name: st.floats(0.1, 3.0) | st.floats(-3.0, -0.1) for name in _BOUND}
)


_DEFAULTED = ("gamma", "zeta2", "zeta3", "zeta5", "ipi2")


_WIDE_TERMS = st.integers(0, 6)
_MAGNITUDES = st.integers(0, 16)
_WIDE_EXPONENTS = {lo: st.integers(lo, 3).filter(bool) for lo in (-2, 1)}


def wide_elements(names=("gamma", "zeta2", "zeta3", "ipi2") + _BOUND):
    """Sums of terms over every kind of generator whose magnitudes differ by
    up to 16 digits, so that the order of a float sum shows in its value."""
    name_sets = st.sets(st.sampled_from(names), max_size=3)

    @st.composite
    def elements(draw):
        out = R.zero()
        for _ in range(draw(_WIDE_TERMS)):
            term = R.from_rational(draw(rationals) * 10 ** draw(_MAGNITUDES))
            for name in draw(name_sets):
                lo = -2 if generator_info(name).laurent else 1
                term = term * gen(name, draw(_WIDE_EXPONENTS[lo]))
            out = out + term
        return out

    return elements()


class TestEvaluate:
    def test_zeta_tilde_numeric(self):
        val = (gen("zeta2") * gen("ipi2", -2)).evaluate()
        assert abs(val - (-1 / 24)) < 1e-12

    def test_gamma_constant(self):
        assert abs(gen("gamma").evaluate() - 0.5772156649015329) < 1e-12

    def test_override(self):
        assert gen("t").evaluate({"t": 2.0}) == 2.0

    def test_unbound(self):
        with pytest.raises(UnboundGeneratorError):
            gen("t").evaluate()
        with pytest.raises(UnboundGeneratorError):
            gen("e3").evaluate()

    def test_ipi2_default(self):
        assert abs(gen("ipi2").evaluate() - 2j * math.pi) < 1e-15

    def test_evaluation_decodes_its_keys_past_the_key_cache(self):
        x = (gen("gamma", 3) + gen("zeta5") * gen("ipi2", -2) + Fraction(1, 3)) ** 3
        want = term_by_term_evaluate(x)
        _unpack.cache_clear()
        assert x.evaluate() == want
        assert _unpack.cache_info().currsize == 0

    def test_equal_elements_evaluate_identically(self):
        a = gen("zeta2") * 10**16 + 1 + gen("gamma")
        b = gen("gamma") + 1 + gen("zeta2") * 10**16
        assert a == b and hash(a) == hash(b)
        assert a.evaluate() == b.evaluate()

    @given(st.lists(wide_elements(), min_size=1, max_size=4), bound_values, st.floats(-0.9, 0.9))
    def test_stored_term_order_does_not_reach_the_value(self, elements, overrides, z0):
        reordered = [R._make(dict(reversed(x._terms.items())), x._den, x._emax) for x in elements]
        for x, y in zip(elements, reordered):
            assert x == y and hash(x) == hash(y)
            assert x.evaluate(overrides) == y.evaluate(overrides)
        order = len(elements) - 1
        f, g = Series1(elements, order), Series1(reordered, order)
        assert f == g and f.evaluate(z0, overrides) == g.evaluate(z0, overrides)

    @given(
        wide_elements(_DEFAULTED) | wide_elements(),
        st.none() | bound_values | bound_values.map(lambda v: {**v, "gamma": -0.75, "zeta3": 2.5}),
    )
    def test_matches_the_term_by_term_loop(self, x, overrides):
        """The same float, bit for bit, as raising every factor where it
        appears; and the same error when a generator has no value."""
        try:
            want = term_by_term_evaluate(x, overrides)
        except UnboundGeneratorError as exc:
            with pytest.raises(UnboundGeneratorError) as got:
                x.evaluate(overrides)
            assert got.value.args == exc.args
        else:
            assert x.evaluate(overrides) == want


_FAMILY_GENERATORS = ("e1", "e2", "e10", "epsilon", "c1", "c3", "zeta2", "zeta3", "x2")
_FAMILY_NAMES = st.sets(st.sampled_from(_FAMILY_GENERATORS), max_size=3)
_FAMILY_EXPONENTS = st.integers(1, 3)
_FAMILY_TERMS = st.integers(0, 4)
_IPI2_POWERS = st.integers(-3, 0)
_MONOMIALS = monomials()


@st.composite
def family_elements(draw):
    """Sums of a ring_elements monomial, ipi2**-k, and a monomial in members
    of several indexed families and in epsilon, times a rational."""
    out = R.zero()
    for _ in range(draw(_FAMILY_TERMS)):
        term = draw(_MONOMIALS) * gen("ipi2", draw(_IPI2_POWERS)) * draw(rationals)
        for name in draw(_FAMILY_NAMES):
            term = term * gen(name, draw(_FAMILY_EXPONENTS))
        out = out + term
    return out


def _is_member(name, family):
    return name.startswith(family) and name[len(family):].isdigit()


class TestSplit:
    @given(family_elements(), st.sampled_from(("e", "c", "zeta", "x", "h")))
    @example(R.zero(), "e")
    @example(R.from_rational(Fraction(-3, 7)), "c")
    @example(gen("ipi2", -2, Fraction(1, 6)) * gen("e1") + gen("ipi2", -3), "e")
    def test_rebuilds_its_element_from_coefficients_free_of_the_family(self, x, family):
        parts = x.split(family)
        rebuilt = R.dot((R({m: 1}), c) for m, c in parts.items())
        assert rebuilt == x and storage(rebuilt) == storage(x)
        assert (parts == {}) == x.is_zero()
        for m, c in parts.items():
            assert m == tuple(sorted(m)) and all(_is_member(name, family) and e for name, e in m)
            assert not c.is_zero() and not any(_is_member(n, family) for n in c.generators())
            assert_canonical(c)

    def test_members_are_whole_names(self):
        x = gen("e1") * gen("e10", 2) * gen("epsilon") + gen("epsilon", 3) + gen("e1", 1, 4)
        assert x.split("e") == {
            (("e1", 1), ("e10", 2)): gen("epsilon"),
            (("e1", 1),): R.from_rational(4),
            (): gen("epsilon", 3),
        }
        # e1 is a member of e, not a family that would catch e10.
        assert x.split("e1") == {(): x}


_SPLIT_LAURENT_EXPONENTS = st.integers(-3, 3)
_SPLIT_FAMILIES = st.sampled_from(("e", "c", "zeta", "x", "h", "ipi", "e1"))
_SPLIT_NAMES = st.sampled_from(_FAMILY_GENERATORS + _LAURENT + ("gamma", "q", "e7", "nope"))


@st.composite
def laurent_family_elements(draw):
    """Sums of terms in ipi2, t and u at exponents in [-3, 3] times members of
    several indexed families, so that a negative Laurent digit sits beside
    family digits in lower and in higher slots."""
    terms = {}
    for _ in range(draw(_FAMILY_TERMS)):
        m = [(n, draw(_SPLIT_LAURENT_EXPONENTS)) for n in _LAURENT]
        m += [(n, draw(_FAMILY_EXPONENTS)) for n in draw(_FAMILY_NAMES)]
        terms[tuple(m)] = draw(rationals)
    return R(terms)


def _split_and_truncate_match_their_oracles(x, family, name, max_exp):
    got, want = x.split(family), regex_split(x, family)
    assert list(got) == list(want)
    assert [(list(c._terms.items()), c._den) for c in got.values()] == [
        (list(c._terms.items()), c._den) for c in want.values()
    ]
    cut, kept = x.truncate_gen(name, max_exp), decoded_truncate_gen(x, name, max_exp)
    assert list(cut._terms.items()) == list(kept._terms.items()) and cut._den == kept._den
    assert_canonical(cut)


class TestSplitAndTruncateAgainstDecoding:
    """split and truncate_gen read digits by masks over keys biased by
    _LIMIT in every slot; decoding every key and matching every name agrees,
    term for term and in the same order."""

    @given(
        laurent_family_elements() | family_elements(),
        _SPLIT_FAMILIES,
        _SPLIT_NAMES,
        _SPLIT_LAURENT_EXPONENTS,
    )
    @example(gen("t", -1) * gen("c1") + gen("ipi2", -3) * gen("u", -2), "c", "u", -2)
    @example(gen("c3") * gen("u", -1) + gen("t", 3), "c", "nope", -1)
    @example(R.zero(), "c", "t", 0)
    def test_against_the_decoding_routes(self, x, family, name, max_exp):
        _split_and_truncate_match_their_oracles(x, family, name, max_exp)

    def test_under_slots_interleaved_with_negative_laurent_digits(self):
        """In a fresh process whose slots alternate family members and Laurent
        generators, with the Laurent ones both below and above each member."""
        order = ["t", "c1", "ipi2", "x2", "u", "c3", "e1", "zeta3", "e10", "c2"]
        script = (
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from genusforge import ring\n"
            f"for name in {order!r}:\n"
            "    ring.RingElement.gen(name)\n"
            f"assert ring._NAMES == {order!r}, ring._NAMES\n"
            "from hypothesis import given, settings\n"
            "import test_ring as t\n"
            "settings(database=None, max_examples=200)(given(\n"
            "    t.laurent_family_elements(), t._SPLIT_FAMILIES, t._SPLIT_NAMES,\n"
            "    t._SPLIT_LAURENT_EXPONENTS)(t._split_and_truncate_match_their_oracles))()\n"
            f"print(ring._NAMES[:{len(order)}] == {order!r})\n"
        )
        assert _run_script(script).split() == ["True"]


class TestSubstitute:
    def test_simple(self):
        x = gen("t", 2) + gen("t") * gen("gamma")
        out = x.substitute({"t": R.from_rational(Fraction(1, 2))})
        assert out == R.from_rational(Fraction(1, 4)) + gen("gamma") * Fraction(1, 2)

    def test_laurent_target(self):
        x = gen("u", -2) + gen("u", 2)
        out = x.substitute({"u": gen("u", -1)})
        assert out == x

    @given(ring_elements(), ring_elements())
    def test_homomorphism(self, a, b):
        table = {"gamma": gen("zeta2") + 1}
        assert (a * b).substitute(table) == a.substitute(table) * b.substitute(table)

    @given(ring_elements(), ring_elements(), ring_elements(), units())
    def test_against_a_termwise_fold(self, a, b, c, u):
        """One dot sums the images of the terms, as adding them one by one does."""
        table = {"gamma": b, "zeta2": c, "t": u}
        assert a.substitute(table) == termwise_substitute(a, table)

    def test_nonunit_negative_power_rejected(self):
        x = gen("t", -1)
        with pytest.raises(NonUnitError):
            x.substitute({"t": gen("t") + 1})


_SERIAL_GENERATORS = ("u", "ipi2", "t", "gamma", "zeta3", "e2", "delta")
_SERIAL_LAURENT = ("u", "ipi2", "t")


_UP_TO_5 = st.integers(min_value=0, max_value=5)
_SERIAL_NAMES = st.sets(st.sampled_from(_SERIAL_GENERATORS), max_size=4)
_SERIAL_EXPONENTS = {
    True: st.integers(min_value=-6, max_value=6).filter(bool),
    False: st.integers(min_value=1, max_value=6),
}
_SERIAL_NUMERATORS = st.integers(min_value=-(10**30), max_value=10**30)
_SERIAL_DENOMINATORS = st.integers(min_value=1, max_value=10**30)


@st.composite
def serializable_elements(draw):
    """Up to 5 terms with numerators of either sign and denominators up to
    10**30, over several generators, Laurent ones with negative exponents."""
    terms = {}
    for _ in range(draw(_UP_TO_5)):
        names = draw(_SERIAL_NAMES)
        m = tuple((n, draw(_SERIAL_EXPONENTS[n in _SERIAL_LAURENT])) for n in names)
        terms[m] = Fraction(draw(_SERIAL_NUMERATORS), draw(_SERIAL_DENOMINATORS))
    return R(terms)


class TestSerialization:
    @given(ring_elements())
    def test_round_trip(self, a):
        assert R.from_json(a.to_json()) == a

    def test_canonical_format(self):
        x = gen("gamma") * gen("ipi2", -1, Fraction(-3, 4))
        obj = json.loads(x.to_json())
        assert obj == {"terms": [{"den": "4", "exps": {"gamma": 1, "ipi2": -1}, "num": "-3"}]}

    def test_terms_sorted_by_weight_then_monomial(self):
        x = gen("zeta2") + gen("gamma") + 1
        names = [list(t["exps"]) for t in x.to_obj()["terms"]]
        assert names == [[], ["gamma"], ["zeta2"]]

    def test_deterministic(self):
        x = gen("zeta3") * gen("gamma") + gen("t", -2) * 7
        assert x.to_json() == R.from_json(x.to_json()).to_json()

    @example(R.zero())
    @example(R.from_rational(Fraction(-6, 4)) + gen("u", -3, Fraction(5, 6)))
    @given(st.one_of(serializable_elements(), packed_elements))
    def test_stored_integers_give_the_fraction_form(self, x):
        """to_obj reduces each stored numerator over the common denominator
        itself; it must give what one Fraction per term gives."""
        assert x.to_obj() == fraction_to_obj(x)
        assert R.from_obj(x.to_obj()) == x

    def test_numbers_past_the_int_digit_limit_print(self):
        """str, repr, to_obj and to_json write every exact value, however long,
        without touching the interpreter's limit; reading one back past it
        still needs the limit lifted."""
        limit = sys.get_int_max_str_digits()
        x = R.from_rational(10**3000) ** 2
        y = R.from_rational(Fraction(-(7**12000), 3)) * gen("gamma") + x
        texts = [str(x), repr(x), x.to_json(), str(y), repr(y), y.to_json()]
        objs = [x.to_obj(), y.to_obj()]
        assert sys.get_int_max_str_digits() == limit
        assert texts[0] == "1" + "0" * 6000 and texts[1] == f"RingElement({texts[0]})"
        assert json.loads(texts[2]) == objs[0] == {"terms": [{"num": texts[0], "den": "1", "exps": {}}]}
        with int_max_str_digits(0):
            want = str(Fraction(-(7**12000), 3))
            assert texts[3] == f"{texts[0]} {want[0]} {want[1:]}*gamma"
            assert texts[4] == f"RingElement({texts[3]})"
            assert objs[1]["terms"][1]["num"] == str(-(7**12000))
            assert R.from_obj(objs[1]) == R.from_json(texts[5]) == y

    @pytest.mark.parametrize("limit", [640, 4300, 0])
    @given(n=st.integers(min_value=-(10**3000), max_value=10**3000) | st.sampled_from([10**6000, -(10**4300)]))
    def test_decimal_is_str_under_any_limit(self, limit, n):
        with int_max_str_digits(0):
            want = str(n)
        with int_max_str_digits(limit):
            assert _decimal(n) == want


# Constructor inputs: names repeat inside a monomial and exponents may be
# zero; only the Laurent generators take negative ones.
_INPUT_PAIRS = st.one_of(
    st.tuples(st.sampled_from(("t", "u", "ipi2")), st.integers(min_value=-2, max_value=2)),
    st.tuples(st.sampled_from(("gamma", "zeta2", "delta")), st.integers(min_value=0, max_value=2)),
)
_INPUT_MONOMIALS = st.lists(_INPUT_PAIRS, max_size=3).map(tuple)
_INPUT_COEFFS = st.one_of(
    st.integers(min_value=-6, max_value=6), rationals, rationals.map(str), st.just(0)
)
_INPUT_TERMS = st.lists(st.tuples(_INPUT_MONOMIALS, _INPUT_COEFFS, st.booleans()), max_size=5)
_AS_TEXT = st.booleans()


@st.composite
def constructor_inputs(draw):
    """A mapping for RingElement(); a term flagged True gets a twin that
    cancels it, keyed by its pairs reversed and a zero exponent of u."""
    terms = {}
    for m, c, cancel in draw(_INPUT_TERMS):
        terms[m] = c
        if cancel:
            terms[m[::-1] + (("u", 0),)] = -Fraction(c)
    return terms


@st.composite
def json_inputs(draw):
    """A to_obj form: num and den as int or str, a negative den for a
    negated num, str exponents, and a term flagged True followed by one that
    cancels it."""
    terms = []
    for m, c, cancel in draw(_INPUT_TERMS):
        c = Fraction(c)
        num, den = (c.numerator, c.denominator) if draw(_AS_TEXT) else (-c.numerator, -c.denominator)
        exps = {n: str(e) if draw(_AS_TEXT) else e for n, e in m}
        num, den = (str(x) if draw(_AS_TEXT) else x for x in (num, den))
        terms.append({"num": num, "den": den, "exps": exps})
        if cancel:
            terms.append({"num": str(-int(num)), "den": den, "exps": dict(exps)})
    return {"terms": terms}


def _outcome(build, arg):
    """The storage, value and hash build(arg) gives, or its exception's
    type and message."""
    try:
        x = build(arg)
    except Exception as exc:  # the routes must fail alike
        return type(exc), str(exc)
    return x._terms, x._den, x, hash(x)


_BAD_TERMS = (
    ((("foo", 1),), 1),  # unknown generator
    ((("gamma", -1),), 1),  # negative exponent, not Laurent
    ((("t", 2**23),), 1),  # beyond the packing range
    ((("t", 2**22), ("t", 2**22)), 1),  # beyond it once merged
)


class TestConstructorsAgainstFractionFold:
    """RingElement() and from_obj sum integer numerators over one lcm; they
    must store, value and hash what the Fraction fold gives, and fail alike."""

    @example({(("t", 1), ("t", -1)): 2, (("gamma", 1),): "3/4", (("gamma", 1), ("u", 0)): -0.75})
    @example({(("gamma", 1),): 1, (("gamma", 1), ("delta", 0)): -1})
    @given(constructor_inputs())
    def test_constructor(self, terms):
        assert _outcome(R, terms) == _outcome(fraction_ring_element, terms)
        x = R(terms)
        assert_canonical(x)
        exponents = [abs(e) for m in x._terms for _, e in _unpack(m)]
        assert max(exponents, default=0) <= x._emax <= fraction_ring_element(terms)._emax

    @example({"terms": [{"num": "1", "den": "-2", "exps": {"t": 0}}, {"num": 1, "den": 2, "exps": {}}]})
    @example({"terms": [{"num": 3, "den": 4, "exps": {"foo": 1}}, {"num": -3, "den": 4, "exps": {"foo": 1}}]})
    @given(json_inputs())
    def test_from_obj(self, obj):
        assert _outcome(R.from_obj, obj) == _outcome(fraction_from_obj, obj)
        x = R.from_obj(obj)
        assert_canonical(x)
        assert max((abs(e) for m in x._terms for _, e in _unpack(m)), default=0) <= x._emax

    @pytest.mark.parametrize("m, c", [*_BAD_TERMS, ((("t", 1),), "1/0")])
    def test_constructor_errors_alike(self, m, c):
        for terms in ({m: c}, {(("t", 1),): 1, m: c}):
            new, old = _outcome(R, terms), _outcome(fraction_ring_element, terms)
            assert isinstance(new[0], type) and new == old

    @pytest.mark.parametrize("m, c", [*_BAD_TERMS[:3], ((("t", 1),), 0)])
    @pytest.mark.parametrize("num", [1, -7, 0])
    def test_from_obj_errors_alike(self, m, c, num):
        """A zero den is reported as Fraction(num, 0) reports it."""
        den = "1" if c else "0"
        obj = {"terms": [{"num": str(num), "den": den, "exps": dict(m)}]}
        new, old = _outcome(R.from_obj, obj), _outcome(fraction_from_obj, obj)
        if num or not c:
            assert isinstance(new[0], type)
        assert new == old

    @pytest.mark.parametrize("field", ["num", "den", "exps"])
    @pytest.mark.parametrize("bad", [1.0, 2.5, True, False])
    def test_from_obj_refuses_floats_and_bools(self, field, bad):
        """int would truncate a float and read a bool as 0 or 1; from_obj
        refuses both and names the field."""
        term = {"num": "1", "den": "2", "exps": {"t": 1}}
        term[field] = {"t": bad} if field == "exps" else bad
        what = "exponent" if field == "exps" else field
        with pytest.raises(TypeError, match=f"^{what} must be an int or a str, not {type(bad).__name__}$"):
            R.from_obj({"terms": [term]})

    @pytest.mark.parametrize("bad", [3.0, True])
    def test_series_from_obj_refuses_a_float_or_bool_order(self, bad):
        with pytest.raises(TypeError, match="^order must be an int or a str"):
            Series1.from_obj({"order": bad, "coeffs": []})


@given(ring_elements())
def test_hash_consistent_with_eq(a):
    b = R.from_json(a.to_json())
    assert hash(a) == hash(b)


@given(rationals)
def test_rational_element_hashes_like_its_fraction(q):
    a = R.from_rational(q)
    assert a == q and hash(a) == hash(q)
    assert len({q, a}) == 1
    assert len({1, R.from_rational(1)}) == 1 and len({0, R.zero()}) == 1


def test_bernoulli_concurrent_fill():
    """The memo table behaves as if computed once under concurrent access."""
    import subprocess
    import sys

    script = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from genusforge.ring import bernoulli\n"
        "with ThreadPoolExecutor(8) as pool:\n"
        "    results = list(pool.map(bernoulli, [120] * 8))\n"
        "assert len(set(results)) == 1\n"
        "assert bernoulli(12) == bernoulli(12)\n"
        "print(results[0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(bernoulli(120))


# Names through which code reaches the packed monomial: the key codec and the
# raw constructor, and the storage fields of an element.
_PACKED_NAMES = {"_pack", "_unpack", "_make"}
_PACKED_FIELDS = {"_terms", "_den", "_emax"}


def _packed_monomial_uses(tree):
    """(line, name) of each use in `tree` of a name in _PACKED_NAMES (as a
    name, an attribute or an import) or of an attribute in _PACKED_FIELDS,
    and of either as a string (getattr)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in _PACKED_NAMES or (name in _PACKED_FIELDS and not isinstance(node, ast.Name)):
            yield node.lineno, name


def test_only_the_ring_module_knows_the_packed_monomial():
    """Every other module works on elements through their public operations
    (split, dot, terms, ...), so the storage can change in ring.py alone."""
    offences = []
    for path in sorted(Path(ring.__file__).parent.glob("*.py")):
        if path.name != "ring.py":
            tree = ast.parse(path.read_text(), str(path))
            offences += [f"{path.name}:{line} {name}" for line, name in _packed_monomial_uses(tree)]
    assert offences == []


@pytest.mark.parametrize(
    "source, names",
    [
        ("from genusforge.ring import RingElement, _pack, _unpack as u", ["_pack", "_unpack"]),
        ("RingElement._make(t, d, e)\nring._unpack(k)", ["_make", "_unpack"]),
        ("x._terms.items()\ny = x._den * z._emax", ["_terms", "_den", "_emax"]),
        ("getattr(x, '_terms')", ["_terms"]),
        ("x.terms()\nx.split('c')\n_den = 1\nRingElement.dot(p)", []),
    ],
)
def test_the_packed_monomial_guard_sees_what_it_should(source, names):
    assert sorted(name for _, name in _packed_monomial_uses(ast.parse(source))) == sorted(names)
