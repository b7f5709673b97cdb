"""Exact coefficient ring: sparse Laurent polynomials over Q in named graded generators.

Every constant that appears in the genus computations lives here as a formal
generator: Euler's constant ``gamma``, zeta values ``zeta2, zeta3, ...``,
the invertible period ``ipi2`` (representing 2*pi*i), the deformation
parameters ``t`` and ``u`` (with t = u**2), the Jacobi-quartic parameters
``delta`` and ``epsilon``, the q-expansion variable ``q``, and the universal
generators ``e1, e2, ...``.  Arithmetic runs on integer numerators over one
common denominator; ``terms()`` and ``coefficient()`` return exact
``fractions.Fraction`` values, monomials ordered graded-lexicographically.

Each monomial is stored as one int, ``sum(e_k * 2**(24*k))`` with signed
digits ``e_k``: slot ``k`` belongs to the k-th generator ever packed.  A product
of monomials is then one integer addition, the unit monomial is ``0`` and an
inverse is ``-key``.  The packing is injective while every ``|e_k| < 2**23``;
each element carries a bound on its largest ``|exponent|``, and an input or a
product that could leave that range raises ``ValueError`` instead of wrapping.
One bounded cache decodes a key to its sorted (name, exponent) tuple, the form
in which monomials enter and leave the ring; ``evaluate`` decodes each key
of its element once, past that cache.  ``split`` and ``truncate_gen`` decode
none: with ``_LIMIT`` added to every digit (``_bias``) no digit borrows from
the next, so a mask reads the digits they need.

The constructors work the same way: ``RingElement(terms)`` and ``from_obj``
bring each term's integer numerator over the lcm of the denominators, sum by
packed key and reduce once by the gcd, with no Fraction per term.  Any other
scalar, from any module, is read by ``_fraction``, the one reader, which
refuses a str, or a Decimal read as its str, past the int digit limit at once.

``RingElement.dot`` sums products of pairs into one numerator dict and reduces
once; a product of two elements is its one-pair case, and every sum of
products in the series and law layers goes through it.  A rational scalar (an
int or a Fraction) is not made an element, nor an int a Fraction: a product
or a quotient by it, or a dot pair that has it as second factor, scales the
numerators and the denominator, as FLINT's fmpq_poly does, with one gcd pass.
``split(family)`` writes an element as a polynomial in one indexed family of
generators (``c1, c2, ...``) with coefficients free of it, so that no other
module reads the packed keys.  ``conjugate`` (``ipi2 -> -ipi2``) and ``reduce``
(each even ``zeta{2k} -> zeta~(2k) ipi2**(2k)``) are substitutions, ring maps
like any other.  ``_check_order`` is the one check of an order, size or index,
made before a memo answers (``bernoulli``'s and the zetas' are typed ``lru_cache``s).

An element is a value: the order of its stored terms means nothing.  All that
reads terms in order sorts them by monomial first (``terms()``, ``to_obj`` and
``str`` share one kept sort), so equal elements print and evaluate identically.
Nothing changes an element once built, so its hash, too, is computed once.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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
# name; the empty tuple is the unit monomial.  This is the form the API takes
# and returns; inside an element each monomial is a packed int key (_pack).
Monomial = "tuple[tuple[str, int], ...]"

# Packed keys: digit k of a key, _W bits wide and signed, is the exponent of
# the generator in slot k.  Digits stay apart while every |exponent| < _LIMIT.
_W = 24
_LIMIT = 1 << (_W - 1)
_MASK = (1 << _W) - 1


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
# c_k and Pontryagin classes p_k.  A member's weight is its index k, except
# 2k for p_k and 1 for a root x_i.
_FAMILY = re.compile(r"(zeta|[ehsxcp])([1-9][0-9]*)")


def generator_info(name: str) -> Generator:
    """Look up a generator, auto-registering members of the indexed families."""
    gen = _REGISTRY.get(name)
    if gen is not None:
        return gen
    m = _FAMILY.fullmatch(name)
    if m is None or m[0] == "zeta1":
        raise KeyError(f"unknown generator {name!r}")
    k = int(m[2])
    gen = Generator(name, {"x": 1, "p": 2 * k}.get(m[1], k))
    # Benign if two threads race: both compute the identical record.
    _REGISTRY[name] = gen
    return gen


_NAMES: "list[str]" = []  # slot -> generator name, append-only
_SLOTS: "dict[str, int]" = {}  # generator name -> slot
_SLOT_LOCK = threading.Lock()


def _slot(name: str) -> int:
    """The slot of a generator, assigned once, on its first use."""
    k = _SLOTS.get(name)
    if k is None:
        with _SLOT_LOCK:
            k = _SLOTS.get(name)
            if k is None:
                k = len(_NAMES)
                _NAMES.append(name)  # before _SLOTS, so a reader finds the name
                _SLOTS[name] = k
    return k


def _pack(m: "Iterable[tuple[str, int]]") -> int:
    """The key of the (name, exponent) pairs of a monomial whose exponents
    passed _check_exponents, in any order."""
    return sum(e << (_W * _slot(name)) for name, e in m)


def _monomials(keys: "Iterable[int]") -> "list[Monomial]":
    """The sorted (name, exponent) tuple of each packed key, in turn."""
    out = []
    for key in keys:
        m = []
        k = 0
        while key:
            # Step over the zero digits below the lowest set bit at once.
            skip = ((key & -key).bit_length() - 1) // _W
            key >>= _W * skip
            k += skip
            e = key & _MASK
            if e >= _LIMIT:
                e -= 1 << _W
            m.append((_NAMES[k], e))
            key = (key - e) >> _W
            k += 1
        m.sort()
        out.append(tuple(m))
    return out


@lru_cache(maxsize=1 << 16)
def _unpack(key: int) -> Monomial:
    """The sorted (name, exponent) tuple of a packed key."""
    return _monomials((key,))[0]


def _bias(n: int) -> int:
    """The key with digit _LIMIT in each of slots 0..n-1.  Added to a key of
    those slots it makes every digit nonnegative, so no digit borrows from the
    next and each reads off by a shift and a mask, minus _LIMIT."""
    return _LIMIT * ((1 << _W * n) - 1) // _MASK


@lru_cache(maxsize=1 << 16)
def _monomial_weight(m: Monomial) -> int:
    return sum(generator_info(name).weight * e for name, e in m)


def _monomial_key(m: Monomial):
    # Graded-lexicographic: total weight first, then the sorted name/exponent
    # tuple itself (a deterministic total order).
    return (_monomial_weight(m), m)


def _check_exponents(m: Monomial, error: type = ValueError) -> int:
    """Check that m is a monomial the ring can hold; return its largest
    |exponent|."""
    top = 0
    for name, e in m:
        laurent = generator_info(name).laurent  # unknown names raise KeyError
        if e < 0 and not laurent:
            raise error(f"generator {name!r} does not admit negative exponents")
        top = max(top, abs(e))
    if top >= _LIMIT:
        raise ValueError(f"exponent {top} out of range: |exponent| must be < {_LIMIT}")
    return top


def _fraction(value) -> Fraction:
    """Fraction(value), the one reader of a scalar from outside the ring: a str,
    or a Decimal read as its str, whose exponent exceeds the int digit limit is
    refused before Fraction computes 10**exponent, which for 1e10000000 takes
    seconds; int refuses one with more digits than the limit."""
    value = str(value) if isinstance(value, Decimal) else value
    exponent = isinstance(value, str) and re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z", value)
    if exponent and 0 < (limit := sys.get_int_max_str_digits()) < int(exponent[1]):
        raise ValueError(f"exponent in {value!r} exceeds the int digit limit {limit}")
    return Fraction(value)


def _ratios(terms: Mapping[Monomial, Rational]):
    """(monomial, numerator, denominator) of each term of a constructor's
    mapping, one term at a time; an int or a Fraction is read as it stands."""
    for m, c in terms.items():
        c = c if isinstance(c, (int, Fraction)) else _fraction(c)
        yield m, c.numerator, c.denominator


def _json_int(value, what: str) -> int:
    """int(value) for a field of a JSON form; a bool or a float, which int
    would truncate, is refused."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"{what} must be an int or a str, not {type(value).__name__}")
    return int(value)


def _check_order(value, least: int = 0, what: str = "order") -> None:
    """The one check of an order, size, dimension or index: an int, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, not {type(value).__name__}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, not {value}")


def _coerce_elem(value: Scalar) -> "RingElement":
    """value as an element, the one coercion of a scalar the API takes as one (a
    series coefficient, a law param, a substitution's value), by _fraction."""
    return value if isinstance(value, RingElement) else RingElement.from_rational(value)


def _decimal(q: Rational) -> str:
    """str(q) for an int or a Fraction, also past the interpreter's limit on
    int-to-str digits: an int that str refuses is split at a power of ten."""
    try:
        return str(q)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        if isinstance(q, Fraction):
            num = _decimal(q.numerator)
            return num if q.denominator == 1 else f"{num}/{_decimal(q.denominator)}"
        k = abs(q).bit_length() * 3 // 20  # under half the digits: log10(2) / 2 > 0.15
        hi, lo = divmod(abs(q), 10**k)
        return "-" * (q < 0) + _decimal(hi) + _decimal(lo).zfill(k)


class RingElement:
    """An exact element of the coefficient ring, immutable and hashable.

    Stored as integer numerators, keyed by packed monomial, over one positive
    common denominator, in canonical form: no zero numerator,
    ``gcd(_den, *numerators) == 1``, and zero has ``_den == 1``.  Equal
    elements therefore have equal storage.  ``_emax`` bounds the largest
    |exponent| of any stored monomial; it is not part of the value.  Storage
    never changes once built, so ``_hash`` and ``_order`` (the packed keys in
    canonical order) keep what their first use found (two threads would store
    one value), and ``to_obj`` reduces each stored numerator.
    """

    __slots__ = ("_terms", "_den", "_emax", "_hash", "_order")

    def __init__(self, terms: Optional[Mapping[Monomial, Rational]] = None):
        x = RingElement._sum(_ratios(terms or {}))
        self._terms, self._den, self._emax = x._terms, x._den, x._emax

    @staticmethod
    def _sum(terms: "Iterable[tuple[Iterable[tuple[str, int]], int, int]]") -> "RingElement":
        """sum(num / den * m) over (m, num, den) triples with den != 0.  Each
        term with num != 0 has its repeated names merged and its zero
        exponents dropped, then its monomial checked (generator, Laurent,
        range) in turn; the numerators are brought over the lcm of the
        denominators and summed by packed key, and _make reduces once."""
        keyed = []
        emax = 0
        for m, num, den in terms:
            if not num:
                continue
            exps: "dict[str, int]" = {}
            for n, e in m:
                exps[n] = exps.get(n, 0) + int(e)
            m = tuple(sorted((n, e) for n, e in exps.items() if e))
            emax = max(emax, _check_exponents(m))
            keyed.append((_pack(m), num, den))
        lcm = math.lcm(*[den for _, _, den in keyed])
        out: "dict[int, int]" = {}
        for key, num, den in keyed:
            acc = out.get(key, 0) + num * (lcm // den)
            if acc:
                out[key] = acc
            else:
                del out[key]
        return RingElement._make(out, lcm, emax)

    @staticmethod
    def _make(terms: "dict[int, int]", den: int, emax: int) -> "RingElement":
        """The element terms / den, from nonzero numerators keyed by packed
        monomial, den > 0, and a bound emax on every |exponent| in the keys."""
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
        out._emax = emax
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
        value = value if isinstance(value, (int, Fraction)) else _fraction(value)
        return RingElement._make({0: value.numerator} if value else {}, value.denominator, 0)

    @staticmethod
    def gen(name: str, exp: int = 1, coeff: Rational = 1) -> "RingElement":
        """The monomial coeff * name**exp."""
        generator_info(name)
        coeff = coeff if isinstance(coeff, (int, Fraction)) else _fraction(coeff)
        if not coeff:
            return _ZERO
        if exp == 0:
            return RingElement.from_rational(coeff)
        m = ((name, exp),)
        top = _check_exponents(m)
        return RingElement._make({_pack(m): coeff.numerator}, coeff.denominator, top)

    # -- inspection --------------------------------------------------------

    def _sorted_terms(self) -> "list[tuple[Monomial, int]]":
        """(monomial, numerator over _den) pairs in canonical order, read
        from the packed keys that _order keeps after the first sort."""
        try:
            order = self._order
        except AttributeError:
            order = self._order = tuple(sorted(self._terms, key=lambda m: _monomial_key(_unpack(m))))
        terms = self._terms
        return [(_unpack(m), terms[m]) for m in order]

    def terms(self) -> "list[tuple[Monomial, Fraction]]":
        """Terms in canonical (graded-lexicographic) order."""
        den = self._den
        return [(m, Fraction(c, den)) for m, c in self._sorted_terms()]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:  # False for zero alone, as bool(0) and bool(Fraction(0))
        return bool(self._terms)

    def is_one(self) -> bool:
        return self._den == 1 and self._terms == {0: 1}

    def as_rational(self) -> Optional[Fraction]:
        """The value as a rational number, or None if any generator appears."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return Fraction(self._terms[0], self._den)
        return None

    def generators(self) -> "set[str]":
        return {name for m in self._terms for name, _ in _unpack(m)}

    def coefficient(self, m: Monomial) -> Fraction:
        return dict(self.terms()).get(tuple(sorted(m)), Fraction(0))

    def weight(self) -> Optional[int]:
        """Common total weight of all monomials, or None if mixed.

        The zero element reports weight 0.
        """
        if not self._terms:
            return 0
        weights = {_monomial_weight(_unpack(m)) for m in self._terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def is_homogeneous(self, w: int) -> bool:
        """True if every monomial has weight w (vacuously true for zero)."""
        return all(_monomial_weight(_unpack(m)) == w for m in self._terms)

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
        ea, eb = self._emax, other._emax
        return RingElement._make(out, da * sa, ea if ea > eb else eb)

    __add__ = __radd__ = _plus

    def __sub__(self, other: Scalar) -> "RingElement":
        return self._plus(other, -1)

    def __neg__(self) -> "RingElement":
        return RingElement._make({m: -c for m, c in self._terms.items()}, self._den, self._emax)

    def __rsub__(self, other: Scalar) -> "RingElement":
        other = RingElement._coerce(other)
        return NotImplemented if other is NotImplemented else other._plus(self, -1)

    def __mul__(self, other: Scalar) -> "RingElement":
        """self * other: a product of elements is dot's one-pair case, and a
        rational (int or Fraction) scales the numerators and the denominator."""
        if isinstance(other, RingElement):
            return RingElement.dot(((self, other),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._scaled(other.numerator, other.denominator)

    def _scaled(self, num: int, den: int) -> "RingElement":
        """self * num / den for coprime ints num and den > 0: the numerators
        scale by num and the denominator by den, and _make reduces once."""
        if not num or not self._terms:
            return _ZERO
        g = math.gcd(num, self._den)
        if g != 1:
            num //= g
        den *= self._den // g
        return RingElement._make({m: c * num for m, c in self._terms.items()}, den, self._emax)

    @staticmethod
    def dot(pairs: "Iterable[tuple[RingElement, Scalar]]") -> "RingElement":
        """sum(x * y for x, y in pairs), the one multiply-accumulate kernel.

        Term products go into one {packed monomial: int} dict over a running
        common denominator, grown to the lcm only when a pair's does not divide
        it, with one gcd pass at the end; a sum that reaches zero is dropped at
        once.  A monomial product is the sum of the two keys, made only after
        the pair's exponent bounds show that no digit can leave its range.
        A pair's second factor may be a rational scalar (an int or a Fraction):
        as in __mul__ it is not made an element, and it scales x's numerators
        by its numerator and the pair's denominator by its own.
        """
        out: "dict[int, int]" = {}
        get, den, emax = out.get, 1, 0
        for x, y in pairs:
            if type(y) is RingElement:
                b, e, d = y._terms, y._emax, y._den
            elif isinstance(y, (int, Fraction)):  # one term, the unit monomial
                b, e, d = {0: y.numerator} if y else None, 0, y.denominator
            else:
                raise TypeError(f"a dot factor is an element or rational, not {type(y).__name__}")
            a = x._terms
            if not a or not b:
                continue
            e += x._emax
            if e > emax:
                if e >= _LIMIT:
                    raise ValueError(
                        f"exponent bound {e} out of range: |exponent| must be < {_LIMIT}"
                    )
                emax = e
            if len(a) > len(b):
                a, b = b, a
            d *= x._den
            if den % d:
                s = d // math.gcd(den, d)
                for m in out:
                    out[m] *= s
                den *= s
            scale = den // d
            for m1, c1 in a.items():
                c1 *= scale
                for m2, c2 in b.items():
                    m = m1 + m2
                    acc = get(m, 0) + c1 * c2
                    if acc:
                        out[m] = acc
                    else:
                        del out[m]
        return RingElement._make(out, den, emax)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElement":
        """self^n by repeated squaring.  The result starts as the power of n's
        lowest set bit, so no product has 1 as a factor; a negative n inverts
        a monomial unit first."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _ONE
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        while n > 1:
            n >>= 1
            base = base * base
            if n & 1:
                result = result * base
        return result

    def inverse(self) -> "RingElement":
        """Inverse of a monomial unit (rational times Laurent generators)."""
        if len(self._terms) != 1:
            raise NonUnitError(f"not a monomial unit: {self}")
        (m, c), = self._terms.items()
        _check_exponents(_unpack(-m), NonLaurentInverseError)
        # (c / den)^-1 = den / c, already in lowest terms.
        return RingElement._make({-m: self._den if c > 0 else -self._den}, abs(c), self._emax)

    def __truediv__(self, other: Scalar) -> "RingElement":
        """self / other: a rational divisor scales as __mul__ does, and an
        element divisor must be a monomial unit."""
        if isinstance(other, (int, Fraction)):
            num, den = other.denominator, other.numerator
            if not den:
                raise NonUnitError("not a monomial unit: 0")
            return self._scaled(num, den) if den > 0 else self._scaled(-num, -den)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RingElement.from_rational(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            # A rational element equals its Fraction, so it must hash like it.
            value = self.as_rational()
            if value is None:
                value = (frozenset(self._terms.items()), self._den)
            self._hash = hash(value)
            return self._hash

    def __reduce__(self):
        # Packed keys are slot numbers private to this process: carry monomials by name.
        return RingElement, (dict(self.terms()),)

    # -- structural operations ---------------------------------------------

    def substitute(self, mapping: "Mapping[str, Scalar]") -> "RingElement":
        """Replace generators by ring elements (a ring homomorphism).

        Every value goes through _coerce_elem, also one for a generator self
        lacks.  Negative exponents require the replacement to be a monomial unit.
        """
        targets = {name: _coerce_elem(v) for name, v in mapping.items()}
        images = []
        for m, c in self._terms.items():
            m = _unpack(m)
            kept = _pack(pair for pair in m if pair[0] not in targets)
            image = _ONE
            for name, e in m:
                if name in targets:
                    image = image * targets[name] ** e
            images.append((RingElement._make({kept: c}, self._den, self._emax), image))
        return RingElement.dot(images)

    def conjugate(self) -> "RingElement":
        """The ring involution ipi2 -> -ipi2 (all other generators fixed)."""
        return self.substitute({"ipi2": -RingElement.gen("ipi2")})

    def reduce(self) -> "RingElement":
        """Euler's zeta(2k) = zeta~(2k) (2 pi i)^(2k), zeta~(2k) = -B_2k / (2 (2k)!)
        rational, as one substitution: each even zeta zeta{2k} -> zeta~(2k) *
        ipi2**(2k).  A ring map like ``conjugate``, idempotent, leaving no even
        zeta; an element with none is returned as it is."""
        evens = {
            name: RingElement.gen("ipi2", k, zeta_tilde_even(k // 2))
            for name in self.generators()
            if name.startswith("zeta") and (k := int(name[4:])) % 2 == 0
        }
        return self.substitute(evens) if evens else self

    def split(self, family: str) -> "dict[Monomial, RingElement]":
        """{monomial in the generators family1, family2, ... of an indexed
        family (zeta, e, h, s, x, c or p): its coefficient, free of them}.
        The sum of their products is self, and zero splits into {}."""
        bias = _bias(len(_NAMES))
        used = 0  # the nonzero digits of any key
        for key in self._terms:
            used |= (key + bias) ^ bias
        mask = 0  # the digits of the family's slots among them
        while used:
            k = ((used & -used).bit_length() - 1) // _W
            digit = _MASK << _W * k
            f = _FAMILY.fullmatch(_NAMES[k])
            if f and f[1] == family:
                mask |= digit
            used &= ~digit
        low = bias & mask
        parts: "dict[int, dict[int, int]]" = {}
        for key, c in self._terms.items():
            inner = ((key + bias) & mask) - low  # the family's digits of key
            parts.setdefault(inner, {})[key - inner] = c
        return {_unpack(m): RingElement._make(t, self._den, self._emax) for m, t in parts.items()}

    def truncate_gen(self, name: str, max_exp: int) -> "RingElement":
        """Drop every monomial where `name` appears with exponent > max_exp."""
        k = _SLOTS.get(name)
        if k is None:  # no key has a digit for name: its exponent is 0 in each
            return self if max_exp >= 0 else _ZERO
        bias, shift, top = _bias(k + 1), _W * k, max_exp + _LIMIT  # top: max_exp, biased
        out = {m: c for m, c in self._terms.items() if ((m + bias) >> shift & _MASK) <= top}
        if len(out) == len(self._terms):
            return self
        return RingElement._make(out, self._den, self._emax)

    # -- numerics ------------------------------------------------------------

    def evaluate(self, overrides: Optional[Mapping[str, complex]] = None) -> complex:
        """Evaluate numerically as a complex number, summing the terms in
        sorted monomial order so that equal elements give the same float.

        Defaults: gamma -> Euler-Mascheroni, zeta{k} -> zeta(k), ipi2 -> 2*pi*i.
        t, u, delta, epsilon, q, e_n and every auxiliary generator must be
        supplied through `overrides` (UnboundGeneratorError otherwise).
        """
        terms = sorted(zip(_monomials(self._terms), self._terms.values()))
        factors = {factor for m, _ in terms for factor in m}
        values = {k: complex(v) for k, v in (overrides or {}).items()}
        names = {name for name, _ in factors}
        for name in names - values.keys():
            if name == "gamma":
                values[name] = euler_gamma()
            elif name == "ipi2":
                values[name] = complex(0.0, math.tau)
            elif name.startswith("zeta") and name[4:].isdigit():
                values[name] = zeta_numeric(int(name[4:]))
        missing = names - values.keys()
        if missing:
            raise UnboundGeneratorError(f"no value for generator(s): {', '.join(sorted(missing))}")
        powers = {(name, e): values[name] ** e for name, e in factors}
        total = 0j
        for m, c in terms:
            val = complex(c / self._den)
            for factor in m:
                val *= powers[factor]
            total += val
        return total

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        den, gcd = self._den, math.gcd
        terms = []
        for m, c in self._sorted_terms():
            g = gcd(c, den)
            terms.append({"num": _decimal(c // g), "den": _decimal(den // g), "exps": dict(m)})
        return {"terms": terms}

    @staticmethod
    def from_obj(obj: Mapping) -> "RingElement":
        """The element of a to_obj form.  Every num, den and exponent is an int
        or a str that int reads; terms with equal exps are summed first."""
        terms: "dict[Monomial, tuple[Monomial, int, int]]" = {}
        for term in obj["terms"]:
            num = _json_int(term["num"], "num")
            den = _json_int(term["den"], "den")
            if not den:
                raise ZeroDivisionError(f"Fraction({num}, 0)")
            exps = term["exps"].items()
            m = tuple(sorted((str(n), _json_int(e, "exponent")) for n, e in exps))
            if m in terms:
                _, n0, d0 = terms[m]
                num, den = n0 * den + num * d0, d0 * den
            terms[m] = m, num, den
        return RingElement._sum(terms.values())

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
                factors.append(_decimal(c) if not m or c != -1 else "-")
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


_ZERO = object.__new__(RingElement)  # what _make returns for no terms
_ZERO._terms, _ZERO._den, _ZERO._emax = {}, 1, 0
_ONE = RingElement({(): 1})


# -- named constants ---------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), exact and memoized:
    B_n = -sum_{j<n} C(n+1, j) B_j / (n+1), summed in integers over the lcm
    of the denominators of B_0 .. B_{n-1}.  It reads them in increasing
    order, so a cold call recurses two frames deep, however large n is."""
    _check_order(n, 0, "n")
    if n == 0:
        return Fraction(1)
    b = [bernoulli(j) for j in range(n)]
    den = math.lcm(*[x.denominator for x in b])
    total = sum(math.comb(n + 1, j) * x.numerator * (den // x.denominator) for j, x in enumerate(b))
    return Fraction(-total, den * (n + 1))


@lru_cache(maxsize=None, typed=True)
def zeta_tilde_even(k: int) -> Fraction:
    """The rational normalized zeta value zeta(2k)/(2*pi*i)**(2k) = -B_{2k}/(2(2k)!)."""
    _check_order(k, 1, "k")
    return -bernoulli(2 * k) / (2 * math.factorial(2 * k))


@lru_cache(maxsize=None, typed=True)
def zeta_fraction(k: int, precision: int = 15) -> Fraction:
    """Rational approximation to zeta(k) with |error| < 10**(-precision).

    Alternating-series (eta function) acceleration, following the Cohen-Rodriguez
    Villegas-Zagier scheme, summed exactly over one common denominator L;
    zeta(k) = eta(k) / (1 - 2**(1-k)).  Reliable for precision <= 30.
    """
    _check_order(k, 2, "k")
    if precision < 1 or precision > 30:
        raise ValueError("precision must be in 1..30")
    n = int(precision * 1.35) + 4
    d = _eta_weights(n)
    L = math.lcm(*range(1, n + 1)) ** k
    s = sum((d[n] - d[j] if j % 2 else d[j] - d[n]) * (L // (j + 1) ** k) for j in range(n))
    return Fraction(-s * 2 ** (k - 1), L * d[n] * (2 ** (k - 1) - 1))


@lru_cache(maxsize=None)
def _eta_weights(n: int) -> "tuple[int, ...]":
    """The integers d_j = n * sum_{i<=j} (n+i-1)! 4^i / ((n-i)! (2i)!), j = 0..n, for every k."""
    f = math.factorial
    terms = (Fraction(f(n + i - 1) * 4**i, f(n - i) * f(2 * i)) for i in range(n + 1))
    return tuple(int(n * acc) for acc in accumulate(terms))


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
    # H_N - 1/(2N) + sum_k B_2k / (2k N^2k) as (numerator, denominator) pairs
    parts = [(1, j) for j in range(1, N + 1)] + [(-1, 2 * N)]
    for k in range(1, K + 1):
        b = bernoulli(2 * k)
        parts.append((b.numerator, b.denominator * 2 * k * N ** (2 * k)))
    den = math.lcm(*[d for _, d in parts])
    # int / int rounds correctly, as float() of the reduced Fraction does
    return sum(a * (den // d) for a, d in parts) / den - math.log(N)
