"""Exact coefficient ring: sparse Laurent polynomials over Q in named graded generators.

Every constant that appears in the genus computations lives here as a formal
generator: Euler's constant ``gamma``, zeta values ``zeta2, zeta3, ...``,
the invertible period ``ipi2`` (representing 2*pi*i), the deformation
parameters ``t`` and ``u`` (with t = u**2), the Jacobi-quartic parameters
``delta`` and ``epsilon``, the q-expansion variable ``q``, and the universal
generators ``e1, e2, ...``.  Arithmetic runs on integer numerators over one
common denominator; ``terms()`` and ``coefficient()`` return exact
``fractions.Fraction`` values, monomials ordered graded-lexicographically.

``RingElement.dot`` sums products of pairs into one numerator dict and reduces
once; a product is its one-pair case, and every sum of products in the series
and law layers goes through it.

An element is a value: the order of its stored terms means nothing.  All that
reads terms in order (``terms()``, ``to_obj``, ``str``, ``evaluate``) sorts them
by monomial first, so equal elements print and evaluate identically.
"""

from __future__ import annotations

import json
import math
import re
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Union

__all__ = [
    "Generator",
    "RingElement",
    "UnboundGeneratorError",
    "NonUnitError",
    "bernoulli",
    "euler_gamma",
    "generator_info",
    "zeta_fraction",
    "zeta_numeric",
    "zeta_tilde_even",
]

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "RingElement"]

# A monomial is a tuple of (generator name, nonzero exponent) pairs sorted by
# name; the empty tuple is the unit monomial.
Monomial = "tuple[tuple[str, int], ...]"


class UnboundGeneratorError(KeyError):
    """Numeric evaluation hit a generator with no default and no override."""


class NonUnitError(ArithmeticError):
    """Inversion of a ring element that is not a monomial unit."""


class NonLaurentInverseError(NonUnitError, ValueError):
    """Inversion of a generator that admits no negative exponents."""


class Generator:
    """A named symbolic generator with an integer weight.

    Only Laurent generators (``laurent=True``) admit negative exponents.
    """

    __slots__ = ("name", "weight", "laurent")

    def __init__(self, name: str, weight: int, laurent: bool = False):
        self.name = name
        self.weight = weight
        self.laurent = laurent

    def __repr__(self) -> str:
        return f"Generator({self.name!r}, weight={self.weight}, laurent={self.laurent})"


_REGISTRY: "dict[str, Generator]" = {
    g.name: g
    for g in (
        Generator("gamma", 1),
        Generator("ipi2", 1, laurent=True),
        Generator("t", 0, laurent=True),
        Generator("u", 0, laurent=True),
        Generator("delta", 2),
        Generator("epsilon", 4),
        Generator("q", 0),
    )
}

# Indexed families, resolved on demand: zeta values (index >= 2), elementary /
# complete / power-sum symmetric generators, Chern roots x_i, Chern classes
# c_k and Pontryagin classes p_k.
_FAMILIES = (
    (re.compile(r"^zeta([1-9]\d*)$"), lambda k: k),
    (re.compile(r"^e([1-9]\d*)$"), lambda k: k),
    (re.compile(r"^h([1-9]\d*)$"), lambda k: k),
    (re.compile(r"^s([1-9]\d*)$"), lambda k: k),
    (re.compile(r"^x([1-9]\d*)$"), lambda k: 1),
    (re.compile(r"^c([1-9]\d*)$"), lambda k: k),
    (re.compile(r"^p([1-9]\d*)$"), lambda k: 2 * k),
)


def generator_info(name: str) -> Generator:
    """Look up a generator, auto-registering members of the indexed families."""
    gen = _REGISTRY.get(name)
    if gen is not None:
        return gen
    for pattern, weight_of in _FAMILIES:
        m = pattern.match(name)
        if m:
            index = int(m.group(1))
            if name.startswith("zeta") and index < 2:
                break
            gen = Generator(name, weight_of(index))
            # Benign if two threads race: both compute the identical record.
            _REGISTRY[name] = gen
            return gen
    raise KeyError(f"unknown generator {name!r}")


@lru_cache(maxsize=1 << 18)
def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        r = exps.get(name, 0) + e
        if r:
            exps[name] = r
        else:
            del exps[name]
    return tuple(sorted(exps.items()))


@lru_cache(maxsize=1 << 16)
def _monomial_weight(m: Monomial) -> int:
    return sum(generator_info(name).weight * e for name, e in m)


def _monomial_key(m: Monomial):
    # Graded-lexicographic: total weight first, then the sorted name/exponent
    # tuple itself (a deterministic total order).
    return (_monomial_weight(m), m)


def _check_exponents(m: Monomial, error: type = ValueError) -> None:
    for name, e in m:
        laurent = generator_info(name).laurent  # unknown names raise KeyError
        if e < 0 and not laurent:
            raise error(f"generator {name!r} does not admit negative exponents")


class RingElement:
    """An exact element of the coefficient ring, immutable and hashable.

    Stored as integer numerators over one positive common denominator, in
    canonical form: no zero numerator, ``gcd(_den, *numerators) == 1``, and
    zero has ``_den == 1``.  Equal elements therefore have equal storage.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Optional[Mapping[Monomial, Rational]] = None):
        clean: "dict[Monomial, Fraction]" = {}
        for m, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            m = tuple(sorted((n, int(e)) for n, e in m if e))
            _check_exponents(m)
            clean[m] = clean.get(m, Fraction(0)) + c
        clean = {m: c for m, c in clean.items() if c}
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._terms = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._den = den

    @staticmethod
    def _make(terms: "dict[Monomial, int]", den: int) -> "RingElement":
        """The element terms / den, from nonzero numerators and den > 0."""
        if not terms:
            return _ZERO
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {m: c // g for m, c in terms.items()}
        out = object.__new__(RingElement)
        out._terms = terms
        out._den = den
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "RingElement":
        return _ZERO

    @staticmethod
    def one() -> "RingElement":
        return _ONE

    @staticmethod
    def from_rational(value: Rational) -> "RingElement":
        value = Fraction(value)
        if not value:
            return _ZERO
        return RingElement._make({(): value.numerator}, value.denominator)

    @staticmethod
    def gen(name: str, exp: int = 1, coeff: Rational = 1) -> "RingElement":
        """The monomial coeff * name**exp."""
        generator_info(name)
        coeff = Fraction(coeff)
        if not coeff:
            return _ZERO
        if exp == 0:
            return RingElement.from_rational(coeff)
        m = ((name, exp),)
        _check_exponents(m)
        return RingElement._make({m: coeff.numerator}, coeff.denominator)

    # -- inspection --------------------------------------------------------

    def terms(self) -> "list[tuple[Monomial, Fraction]]":
        """Terms in canonical (graded-lexicographic) order."""
        den = self._den
        return sorted(
            ((m, Fraction(c, den)) for m, c in self._terms.items()),
            key=lambda item: _monomial_key(item[0]),
        )

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._den == 1 and self._terms == {(): 1}

    def as_rational(self) -> Optional[Fraction]:
        """The value as a rational number, or None if any generator appears."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and () in self._terms:
            return Fraction(self._terms[()], self._den)
        return None

    def generators(self) -> "set[str]":
        return {name for m in self._terms for name, _ in m}

    def coefficient(self, m: Monomial) -> Fraction:
        return Fraction(self._terms.get(tuple(sorted(m)), 0), self._den)

    def weight(self) -> Optional[int]:
        """Common total weight of all monomials, or None if mixed.

        The zero element reports weight 0.
        """
        if not self._terms:
            return 0
        weights = {_monomial_weight(m) for m in self._terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def is_homogeneous(self, w: int) -> bool:
        """True if every monomial has weight w (vacuously true for zero)."""
        return all(_monomial_weight(m) == w for m in self._terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value: Scalar) -> "RingElement":
        if isinstance(value, RingElement):
            return value
        if isinstance(value, (int, Fraction)):
            return RingElement.from_rational(value)
        return NotImplemented  # type: ignore[return-value]

    def _plus(self, other: Scalar, sign: int = 1) -> "RingElement":
        """self + sign * other, term-wise, for sign = 1 or -1: a difference
        scales other's numerators by -1 and builds no negated copy of it."""
        other = RingElement._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other if sign == 1 else -other
        # Bring both numerators over lcm(den_a, den_b), then sum term-wise.
        da, db = self._den, other._den
        g = math.gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        out = dict(self._terms) if sa == 1 else {m: c * sa for m, c in self._terms.items()}
        for m, c in other._terms.items():
            if sb != 1:
                c *= sb
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc += c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
        return RingElement._make(out, da * sa)

    __add__ = __radd__ = _plus

    def __sub__(self, other: Scalar) -> "RingElement":
        return self._plus(other, -1)

    def __neg__(self) -> "RingElement":
        return RingElement._make({m: -c for m, c in self._terms.items()}, self._den)

    def __rsub__(self, other: Scalar) -> "RingElement":
        other = RingElement._coerce(other)
        return NotImplemented if other is NotImplemented else other._plus(self, -1)

    def __mul__(self, other: Scalar) -> "RingElement":
        other = RingElement._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement.dot(((self, other),))

    @staticmethod
    def dot(pairs: "Iterable[tuple[RingElement, RingElement]]") -> "RingElement":
        """sum(x * y for x, y in pairs), the one multiply-accumulate kernel.

        Term products go into one {monomial: int} dict over a running common
        denominator, grown to the lcm only when a pair's does not divide it,
        with one gcd pass at the end; a sum that reaches zero is dropped at once.
        """
        out: "dict[Monomial, int]" = {}
        get, mul, den = out.get, _mul_monomials, 1
        for x, y in pairs:
            a, b = x._terms, y._terms
            if not a or not b:
                continue
            if len(a) > len(b):
                a, b = b, a
            d = x._den * y._den
            if den % d:
                s = d // math.gcd(den, d)
                for m in out:
                    out[m] *= s
                den *= s
            scale = den // d
            for m1, c1 in a.items():
                c1 *= scale
                for m2, c2 in b.items():
                    m = mul(m1, m2)
                    acc = get(m, 0) + c1 * c2
                    if acc:
                        out[m] = acc
                    else:
                        del out[m]
        return RingElement._make(out, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "RingElement":
        """Inverse of a monomial unit (rational times Laurent generators)."""
        if len(self._terms) != 1:
            raise NonUnitError(f"not a monomial unit: {self}")
        (m, c), = self._terms.items()
        inv = tuple((name, -e) for name, e in m)
        _check_exponents(inv, NonLaurentInverseError)
        # (c / den)^-1 = den / c, already in lowest terms.
        return RingElement._make({inv: self._den if c > 0 else -self._den}, abs(c))

    def __truediv__(self, other: Scalar) -> "RingElement":
        other = RingElement._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RingElement.from_rational(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        # A rational element equals its Fraction, so it must hash like it.
        value = self.as_rational()
        if value is None:
            return hash((frozenset(self._terms.items()), self._den))
        return hash(value)

    # -- structural operations ---------------------------------------------

    def substitute(self, mapping: "Mapping[str, Scalar]") -> "RingElement":
        """Replace generators by ring elements (a ring homomorphism).

        Negative exponents require the replacement to be a monomial unit.
        """
        targets = {name: RingElement._coerce(v) for name, v in mapping.items()}
        out = _ZERO
        for m, c in self._terms.items():
            kept = tuple(pair for pair in m if pair[0] not in targets)
            term = RingElement._make({kept: c}, self._den)
            for name, e in m:
                tgt = targets.get(name)
                if tgt is None:
                    continue
                term = term * (tgt ** e)
            out = out + term
        return out

    def conjugate(self) -> "RingElement":
        """The ring involution ipi2 -> -ipi2 (all other generators fixed)."""
        out: "dict[Monomial, int]" = {}
        for m, c in self._terms.items():
            e = dict(m).get("ipi2", 0)
            out[m] = -c if e % 2 else c
        return RingElement._make(out, self._den)

    def reduce(self) -> "RingElement":
        """Rewrite every even-zeta period to its rational value.

        Each factor zeta(2k) * ipi2**(-2k) in a monomial is replaced by the
        exact rational -B_{2k} / (2 (2k)!).  Zeta factors are consumed in
        ascending k while the available ipi2**(-1) budget lasts; on elements
        whose monomials carry at least as many inverse powers of ipi2 as the
        total weight of their even zetas (the case arising from normalized
        series) every even zeta is eliminated.  Idempotent.
        """
        out = _ZERO
        changed = False
        for m, c in self._terms.items():
            exps = dict(m)
            a = exps.get("ipi2", 0)
            coeff = Fraction(c, self._den)
            if a < 0:
                zetas = sorted(
                    (int(name[4:]), name)
                    for name in exps
                    if name.startswith("zeta") and int(name[4:]) % 2 == 0
                )
                for k2, name in zetas:
                    while exps.get(name, 0) > 0 and a <= -k2:
                        exps[name] -= 1
                        if not exps[name]:
                            del exps[name]
                        a += k2
                        coeff *= zeta_tilde_even(k2 // 2)
                        changed = True
            if a:
                exps["ipi2"] = a
            elif "ipi2" in exps:
                del exps["ipi2"]
            m = tuple(sorted(exps.items()))
            out = out + RingElement._make({m: coeff.numerator}, coeff.denominator)
        return out if changed else self

    def truncate_gen(self, name: str, max_exp: int) -> "RingElement":
        """Drop every monomial where `name` appears with exponent > max_exp."""
        out = {m: c for m, c in self._terms.items() if dict(m).get(name, 0) <= max_exp}
        if len(out) == len(self._terms):
            return self
        return RingElement._make(out, self._den)

    # -- numerics ------------------------------------------------------------

    def evaluate(self, overrides: Optional[Mapping[str, complex]] = None) -> complex:
        """Evaluate numerically as a complex number, summing the terms in
        sorted monomial order so that equal elements give the same float.

        Defaults: gamma -> Euler-Mascheroni, zeta{k} -> zeta(k), ipi2 -> 2*pi*i.
        t, u, delta, epsilon, q, e_n and every auxiliary generator must be
        supplied through `overrides` (UnboundGeneratorError otherwise).
        """
        values: "dict[str, complex]" = {}
        if overrides:
            values.update({k: complex(v) for k, v in overrides.items()})
        missing = set()
        for name in self.generators():
            if name in values:
                continue
            if name == "gamma":
                values[name] = euler_gamma()
            elif name == "ipi2":
                values[name] = complex(0.0, math.tau)
            elif name.startswith("zeta") and name[4:].isdigit():
                values[name] = zeta_numeric(int(name[4:]))
            else:
                missing.add(name)
        if missing:
            raise UnboundGeneratorError(
                f"no value for generator(s): {', '.join(sorted(missing))}"
            )
        total = 0j
        for m, c in sorted(self._terms.items()):
            val = complex(c / self._den)
            for name, e in m:
                val *= values[name] ** e
            total += val
        return total

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "terms": [
                {
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                    "exps": {name: e for name, e in m},
                }
                for m, c in self.terms()
            ]
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "RingElement":
        terms: "dict[Monomial, Fraction]" = {}
        for term in obj["terms"]:
            c = Fraction(int(term["num"]), int(term["den"]))
            m = tuple(sorted((str(n), int(e)) for n, e in term["exps"].items()))
            terms[m] = terms.get(m, Fraction(0)) + c
        return RingElement(terms)

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "RingElement":
        return RingElement.from_obj(json.loads(text))

    def __repr__(self) -> str:
        return f"RingElement({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.terms():
            factors = []
            if not m or c != 1:
                factors.append(str(c) if not m or c != -1 else "-")
            for name, e in m:
                factors.append(name if e == 1 else f"{name}^{e}")
            text = "*".join(factors)
            if text.startswith("-*"):
                text = "-" + text[2:]
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


_ZERO = RingElement()
_ONE = RingElement({(): 1})


# -- named constants ---------------------------------------------------------

_BERNOULLI: "list[Fraction]" = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), exact and memoized."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < len(_BERNOULLI):  # entries are append-only, so this read is safe
        return _BERNOULLI[n]
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= n:
            m = len(_BERNOULLI)
            s = Fraction(0)
            for j in range(m):
                s += math.comb(m + 1, j) * _BERNOULLI[j]
            _BERNOULLI.append(-s / (m + 1))
    return _BERNOULLI[n]


@lru_cache(maxsize=None)
def zeta_tilde_even(k: int) -> Fraction:
    """The rational normalized zeta value zeta(2k)/(2*pi*i)**(2k) = -B_{2k}/(2(2k)!)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -bernoulli(2 * k) / (2 * math.factorial(2 * k))


@lru_cache(maxsize=None)
def zeta_fraction(k: int, precision: int = 15) -> Fraction:
    """Rational approximation to zeta(k) with |error| < 10**(-precision).

    Alternating-series (eta function) acceleration with exact rational
    arithmetic, following the Cohen-Rodriguez Villegas-Zagier scheme;
    zeta(k) = eta(k) / (1 - 2**(1-k)).  Reliable for precision <= 30.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if precision < 1 or precision > 30:
        raise ValueError("precision must be in 1..30")
    n = int(precision * 1.35) + 4
    # d_j = n * sum_{i<=j} (n+i-1)! 4^i / ((n-i)! (2i)!)
    d = []
    acc = 0
    for i in range(n + 1):
        acc += Fraction(
            math.factorial(n + i - 1) * 4**i,
            math.factorial(n - i) * math.factorial(2 * i),
        )
        d.append(n * acc)
    s = Fraction(0)
    for j in range(n):
        term = (d[j] - d[n]) / Fraction((j + 1) ** k)
        s += -term if j % 2 else term
    eta = -s / d[n]
    return eta / (1 - Fraction(2) ** (1 - k))


def zeta_numeric(k: int) -> float:
    """zeta(k) as a float (the exact engine is zeta_fraction)."""
    return float(zeta_fraction(k, 15))


@lru_cache(maxsize=None)
def euler_gamma() -> float:
    """Euler-Mascheroni constant via Euler-Maclaurin applied to H_N - log N.

    Exact harmonic/Bernoulli tail plus a double-precision log; accuracy is
    capped by the float log at ~1e-16, ample for the numeric cross-checks.
    """
    N, K = 25, 9
    h = sum(Fraction(1, j) for j in range(1, N + 1))
    tail = -Fraction(1, 2 * N)
    for k in range(1, K + 1):
        tail += bernoulli(2 * k) / (2 * k * Fraction(N) ** (2 * k))
    return float(h + tail) - math.log(N)
