import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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

from conftest import rationals, ring_elements
from oracles import bernoulli_akiyama_tanigawa

R = RingElement


def gen(name, exp=1, coeff=1):
    return R.gen(name, exp, coeff)


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

    def test_memo_stable(self):
        assert bernoulli(20) == bernoulli(20)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


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

    def test_unknown_names(self):
        for name in ("zeta1", "foo", "e0", "x0"):
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

    def test_inverse_monomial_unit(self):
        m = gen("t", 2, Fraction(3, 5))
        assert m * m.inverse() == R.one()
        assert gen("ipi2", -4).inverse() == gen("ipi2", 4)

    def test_inverse_rejects_nonunits(self):
        with pytest.raises(NonUnitError):
            (gen("gamma") + 1).inverse()
        with pytest.raises(ValueError):
            gen("gamma").inverse()  # gamma admits no negative exponents


class TestReduce:
    def test_even_zeta_rewrites(self):
        assert (gen("zeta2") * gen("ipi2", -2)).reduce() == R.from_rational(Fraction(-1, 24))
        unred = gen("gamma") * gen("zeta3") * gen("ipi2", -3)
        assert unred.reduce() == unred
        sq = gen("zeta2", 2) * gen("ipi2", -4)
        assert sq.reduce() == R.from_rational(Fraction(1, 576))

    def test_idempotent(self):
        x = gen("zeta4") * gen("zeta2") * gen("ipi2", -6) + gen("gamma") * gen("zeta2") * gen("ipi2", -3)
        assert x.reduce().reduce() == x.reduce()

    def test_balanced_fully_reduces(self):
        x = gen("zeta2", 2) * gen("zeta4") * gen("ipi2", -8)
        out = x.reduce()
        assert out == R.from_rational(zeta_tilde_even(1) ** 2 * zeta_tilde_even(2))

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
    def test_commutes_with_product_on_balanced(self, j, k):
        # elements whose ipi2 budget covers their even-zeta weight
        a = gen(f"zeta{2 * j}") * gen("ipi2", -2 * j) * gen("gamma")
        b = gen(f"zeta{2 * k}") * gen("ipi2", -2 * k) + 3
        assert (a * b).reduce() == (a.reduce() * b.reduce()).reduce()

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

    def test_nonunit_negative_power_rejected(self):
        x = gen("t", -1)
        with pytest.raises(NonUnitError):
            x.substitute({"t": gen("t") + 1})


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
