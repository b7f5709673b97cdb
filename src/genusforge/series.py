"""Truncated power series over the exact coefficient ring.

Series1 is a dense univariate series c_0 + c_1 z + ... + c_N z^N; Series2 is
a bivariate series truncated by total degree.  All operations truncate to the
order of their inputs and never consult coefficients beyond it, so
truncate_M(op(a, b)) == op(truncate_M(a), truncate_M(b)) for M <= N.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Mapping, MutableMapping, Optional, TypeVar, Union

from genusforge.ring import RingElement

__all__ = [
    "Series1",
    "Series2",
    "BadConstantTermError",
    "NonUnitDivisionError",
    "NotRevertibleError",
    "bivariate_from_exp",
    "build_once",
    "compose1_2",
    "exp_series",
    "log_series",
    "powers",
    "sqrt_series",
]

Scalar = Union[int, Fraction, RingElement]
S = TypeVar("S", bound="_Series")

_ZERO = RingElement.zero()
_ONE = RingElement.one()


class NonUnitDivisionError(ArithmeticError):
    """Division by a series whose constant term is not invertible."""


class NotRevertibleError(ArithmeticError):
    """Reversion of a series without invertible linear part (or f(0) != 0)."""


class BadConstantTermError(ArithmeticError):
    """exp/log/sqrt/compose input has the wrong constant term."""


def _coerce_elem(value: Scalar) -> RingElement:
    if isinstance(value, RingElement):
        return value
    return RingElement.from_rational(value)


class _Series:
    """The coefficient-wise core of Series1 and Series2.

    A subclass stores its coefficients by key (degree n, or bidegree (i, j))
    and supplies _ORIGIN, the key of the constant term, _keyed(), its (key,
    coefficient) pairs, a constructor that takes a {key: coefficient} dict
    and an order, _divide for the series quotient, and to_obj/from_obj.
    Everything here acts on each coefficient alone, so it is written once
    for both kinds and builds only type(self).
    """

    __slots__ = ("order", "_coeffs")
    _ORIGIN: object

    @classmethod
    def zeros(cls: "type[S]", order: int) -> S:
        return cls({}, order)

    @classmethod
    def constant(cls: "type[S]", value: Scalar, order: int) -> S:
        return cls({cls._ORIGIN: value}, order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for _, c in self._keyed())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def truncate(self: S, order: int) -> S:
        """self to a lower order; each constructor drops what lies beyond it."""
        if order >= self.order:
            return self
        return type(self)(self._coeffs, order)

    def map_coefficients(self: S, fn: Callable[[RingElement], RingElement]) -> S:
        """fn on each coefficient; fn(0) must be 0, as Series2 stores no zeros."""
        return type(self)({k: fn(c) for k, c in self._keyed()}, self.order)

    def _match(self, other: "_Series") -> int:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return self.order

    def _plus(self: S, other, sign: int = 1) -> S:
        """self + sign * other, for sign = 1 or -1 and other a series of the
        same kind and order or a scalar (which lands on the constant term).
        Each coefficient goes through RingElement._plus, so a difference
        builds no negated copy of other."""
        if isinstance(other, type(self)):
            self._match(other)
            pairs = other._keyed()
        else:
            pairs = ((self._ORIGIN, _coerce_elem(other)),)
        out = dict(self._keyed())
        for k, c in pairs:
            out[k] = out.get(k, _ZERO)._plus(c, sign)
        return type(self)(out, self.order)

    __add__ = __radd__ = _plus

    def __sub__(self: S, other) -> S:
        return self._plus(other, -1)

    def __rsub__(self: S, other) -> S:
        return self.constant(other, self.order)._plus(self, -1)

    def __neg__(self: S) -> S:
        return self.map_coefficients(RingElement.__neg__)

    def _scaled(self: S, k: Scalar) -> S:
        """self * k for a scalar k."""
        k = _coerce_elem(k)
        return self.map_coefficients(lambda c: c * k)

    def __truediv__(self: S, other) -> S:
        if isinstance(other, type(self)):
            return self._divide(other)
        return self * _coerce_elem(other).inverse()

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls: "type[S]", text: str) -> S:
        return cls.from_obj(json.loads(text))


class Series1(_Series):
    """Univariate truncated power series with RingElement coefficients."""

    __slots__ = ()
    _ORIGIN = 0

    def __init__(self, coeffs, order: Optional[int] = None):
        if isinstance(coeffs, dict):  # {degree: coefficient}, from _Series
            coeffs = [coeffs.get(n, _ZERO) for n in range(order + 1)]
        coeffs = [_coerce_elem(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs += [_ZERO] * (order + 1 - len(coeffs))
        self.order = order
        self._coeffs = tuple(coeffs)

    @staticmethod
    def x(order: int) -> "Series1":
        """The identity series z."""
        return Series1([0, 1], order)

    # -- inspection ----------------------------------------------------------

    def __getitem__(self, n: int) -> RingElement:
        if 0 <= n <= self.order:
            return self._coeffs[n]
        return _ZERO

    def coefficients(self) -> "tuple[RingElement, ...]":
        return self._coeffs

    def _keyed(self):
        return enumerate(self._coeffs)

    def items(self) -> "list[tuple[int, RingElement]]":
        """(degree, coefficient) for the nonzero coefficients, as Series2.items."""
        return [(n, c) for n, c in enumerate(self._coeffs) if not c.is_zero()]

    def __hash__(self) -> int:
        return hash((self.order, self._coeffs))

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other) -> "Series1":
        if not isinstance(other, Series1):
            return self._scaled(other)
        n = self._match(other)
        a, b, dot = self._coeffs, other._coeffs, RingElement.dot
        return Series1([dot((a[i], b[k - i]) for i in range(k + 1)) for k in range(n + 1)], n)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series1":
        if k < 0:
            raise ValueError("negative series powers are not supported")
        result = Series1.constant(1, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _divide(self, other: "Series1") -> "Series1":
        n = self._match(other)
        try:
            inv0 = other._coeffs[0].inverse()
        except ArithmeticError as exc:
            raise NonUnitDivisionError(
                "division requires an invertible constant term"
            ) from exc
        b, dot = other._coeffs, RingElement.dot
        out: "list[RingElement]" = []
        for k in range(n + 1):
            out.append((self._coeffs[k] - dot((out[j], b[k - j]) for j in range(k))) * inv0)
        return Series1(out, n)

    # -- calculus ------------------------------------------------------------

    def differentiate(self) -> "Series1":
        """Formal derivative; the result has order one less."""
        if self.order == 0:
            return Series1.zeros(0)
        return Series1(
            [(n + 1) * self._coeffs[n + 1] for n in range(self.order)],
            self.order - 1,
        )

    def integrate(self) -> "Series1":
        """Formal antiderivative with zero constant; order one more."""
        out = [_ZERO]
        for n, c in enumerate(self._coeffs):
            out.append(c * Fraction(1, n + 1))
        return Series1(out, self.order + 1)

    # -- composition ---------------------------------------------------------

    def compose(self, inner: "Series1") -> "Series1":
        """self(inner(z)); inner must have zero constant term (see _horner)."""
        if not inner._coeffs[0].is_zero():
            raise BadConstantTermError("inner series must have zero constant term")
        return _horner(self, inner)

    def revert(self) -> "Series1":
        """Compositional inverse g, by the Lagrange inversion formula
        [z^i] g = (1/i) [w^(i-1)] (w/f(w))^i (Brent & Kung, J. ACM 25(4), 1978).

        Requires f(0) = 0 and an invertible linear coefficient.
        """
        if not self._coeffs[0].is_zero():
            raise NotRevertibleError("series must vanish at 0")
        if self.order == 0:
            return self
        try:
            self._coeffs[1].inverse()
        except ArithmeticError as exc:
            raise NotRevertibleError("linear coefficient must be invertible") from exc
        return Series1(_inverse_powers(self)[1], self.order)

    # -- numerics / io ---------------------------------------------------------

    def evaluate(self, z0, overrides=None) -> complex:
        """Numeric value of the truncated polynomial at z0 (Horner)."""
        total = 0j
        for c in reversed(self._coeffs):
            total = total * complex(z0) + c.evaluate(overrides)
        return total

    def to_obj(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_obj() for c in self._coeffs]}

    @staticmethod
    def from_obj(obj: Mapping) -> "Series1":
        return Series1([RingElement.from_obj(c) for c in obj["coeffs"]], int(obj["order"]))

    def __repr__(self) -> str:
        parts = [f"({c})*z^{n}" if n else f"({c})" for n, c in self.items()]
        body = " + ".join(parts) if parts else "0"
        return f"Series1[{body} + O(z^{self.order + 1})]"


class Series2(_Series):
    """Bivariate series truncated by total degree, sparse triangular storage."""

    __slots__ = ()
    _ORIGIN = (0, 0)

    def __init__(self, coeffs: Mapping["tuple[int, int]", Scalar], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        clean: "dict[tuple[int, int], RingElement]" = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0 or i + j > order:
                continue
            c = _coerce_elem(c)
            if not c.is_zero():
                clean[(i, j)] = c
        self._coeffs = clean

    @staticmethod
    def from_series1(f: Series1, variable: int, order: Optional[int] = None) -> "Series2":
        """Lift a univariate series into variable 0 or 1."""
        if order is None:
            order = f.order
        if variable == 0:
            return Series2({(n, 0): f[n] for n in range(order + 1)}, order)
        return Series2({(0, n): f[n] for n in range(order + 1)}, order)

    # -- inspection ------------------------------------------------------------

    def __getitem__(self, ij: "tuple[int, int]") -> RingElement:
        return self._coeffs.get(ij, _ZERO)

    def _keyed(self):
        return self._coeffs.items()

    def items(self):
        return sorted(self._coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def is_symmetric(self) -> bool:
        return all(self[(j, i)] == c for (i, j), c in self._coeffs.items())

    def _top(self, variable: int) -> int:
        """The highest exponent of variable 0 or 1 that occurs in self."""
        return max((ij[variable] for ij in self._coeffs), default=0)

    def swap(self) -> "Series2":
        return Series2({(j, i): c for (i, j), c in self._coeffs.items()}, self.order)

    def __hash__(self) -> int:
        return hash((self.order, frozenset(self._coeffs.items())))

    # -- arithmetic --------------------------------------------------------------

    def __mul__(self, other) -> "Series2":
        if not isinstance(other, Series2):
            return self._scaled(other)
        n = self._match(other)
        pairs: "dict[tuple[int, int], list]" = {}
        for (i1, j1), c1 in self._coeffs.items():
            d1 = i1 + j1
            for (i2, j2), c2 in other._coeffs.items():
                if d1 + i2 + j2 <= n:
                    pairs.setdefault((i1 + i2, j1 + j2), []).append((c1, c2))
        return Series2({ij: RingElement.dot(ps) for ij, ps in pairs.items()}, n)

    __rmul__ = __mul__

    def inverse(self) -> "Series2":
        """Inverse of a series with invertible constant term (Newton)."""
        c0 = self[(0, 0)]
        try:
            inv0 = c0.inverse()
        except ArithmeticError as exc:
            raise NonUnitDivisionError(
                "inversion requires an invertible constant term"
            ) from exc
        g = Series2.constant(inv0, self.order)
        prec = 1
        while prec <= self.order:
            g = g * (2 - self * g)
            prec *= 2
        return g

    def _divide(self, other: "Series2") -> "Series2":
        return self * other.inverse()

    def compose(self, f: Series1, g: Series1) -> "Series2":
        """self(f(z0), g(z1)) at the least of the three orders, for inner
        series with zero constant term."""
        if not f[0].is_zero() or not g[0].is_zero():
            raise BadConstantTermError("inner series must have zero constant term")
        n = min(self.order, f.order, g.order)
        F = self.truncate(n)
        fp = [p.coefficients() for p in powers(f.truncate(n), F._top(0))]
        gp = [p.coefficients() for p in powers(g.truncate(n), F._top(1))]
        pairs: "dict[tuple[int, int], list]" = {}
        for (i, j), c in F._coeffs.items():
            fi, gj = fp[i], gp[j]
            for p in range(i, n + 1 - j):
                a = fi[p]
                if a.is_zero():
                    continue
                ca = c * a
                for q in range(j, n + 1 - p):
                    if not gj[q].is_zero():
                        pairs.setdefault((p, q), []).append((ca, gj[q]))
        return Series2({ij: RingElement.dot(ps) for ij, ps in pairs.items()}, n)

    def eval_at(self, a: Series1, b: Series1) -> Series1:
        """self(a(z), b(z)) as a univariate series (both inner in the same z):
        z0 = z1 = z sends z0^p z1^q to z^(p+q), so this is the total-degree
        diagonal of self.compose(a, b)."""
        c = self.compose(a, b)
        diagonal: "list[list]" = [[] for _ in range(c.order + 1)]
        for (p, q), v in c._coeffs.items():
            diagonal[p + q].append((v, _ONE))
        return Series1([RingElement.dot(ps) for ps in diagonal], c.order)

    # -- io ------------------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "order": self.order,
            "coeffs": {f"{i},{j}": c.to_obj() for (i, j), c in self.items()},
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "Series2":
        coeffs = {}
        for key, c in obj["coeffs"].items():
            i, j = key.split(",")
            coeffs[(int(i), int(j))] = RingElement.from_obj(c)
        return Series2(coeffs, int(obj["order"]))

    def __repr__(self) -> str:
        parts = [f"({c})*z0^{i}*z1^{j}" for (i, j), c in self.items()]
        body = " + ".join(parts) if parts else "0"
        return f"Series2[{body} + O(deg {self.order + 1})]"


def powers(f: S, top: int) -> "list[S]":
    """f^0 .. f^top at f's order, for a Series1 or Series2 f.  A composition
    needs f^i only up to the top exponent its outer series uses (<= its
    order, as f of valuation >= 1 has f^i = O(z^i))."""
    out = [type(f).constant(1, f.order)]
    for _ in range(top):
        out.append(out[-1] * f)
    return out


def _horner(outer: Series1, inner: S) -> S:
    """outer(inner) at the lesser order, for a Series1 or Series2 inner with
    zero constant term, by graded Horner: the step adding outer[n - m] is
    multiplied n - m more times by inner, of valuation >= 1, so it is needed,
    and computed, only to (total) order m."""
    kind, n = type(inner), min(outer.order, inner.order)
    result = kind.constant(outer[n], 0)
    for m in range(1, n + 1):
        result = kind(result._coeffs, m) * inner.truncate(m) + outer[n - m]
    return result


# -- analytic primitives ------------------------------------------------------


def exp_series(f: Series1) -> "Series1":
    """exp of a series with zero constant term."""
    if not f[0].is_zero():
        raise BadConstantTermError("exp needs f(0) = 0")
    n = f.order
    out = [_ONE] + [_ZERO] * n
    for m in range(1, n + 1):
        out[m] = RingElement.dot((k * f[k], out[m - k]) for k in range(1, m + 1)) * Fraction(1, m)
    return Series1(out, n)


def log_series(f: Series1) -> "Series1":
    """log of a series with constant term exactly 1."""
    if not f[0].is_one():
        raise BadConstantTermError("log needs f(0) = 1")
    if f.order == 0:
        return Series1.zeros(0)
    d = f.differentiate() / Series1(f.coefficients(), f.order - 1)
    return d.integrate()


def sqrt_series(f: Series1) -> "Series1":
    """Square root of a series with constant term exactly 1."""
    if not f[0].is_one():
        raise BadConstantTermError("sqrt needs f(0) = 1")
    n = f.order
    out = [_ONE] + [_ZERO] * n
    for m in range(1, n + 1):
        out[m] = (f[m] - RingElement.dot((out[k], out[m - k]) for k in range(1, m))) / 2
    return Series1(out, n)


def compose1_2(outer: Series1, inner: Series2) -> Series2:
    """outer(inner(z0, z1)) for an inner series with zero constant term (see
    _horner)."""
    if not inner[(0, 0)].is_zero():
        raise BadConstantTermError("inner series must have zero constant term")
    return _horner(outer, inner)


def _inverse_powers(f: Series1) -> "list[list[RingElement]]":
    """Coefficient lists of g^0 .. g^n for g the compositional inverse of f.

    Lagrange-Buermann: [z^i] g^a = (a/i) [w^(i-a)] (w/f(w))^i for 1 <= a <= i,
    so one division and n powers of w/f give every row without reverting f.
    """
    n = f.order
    rows = [[_ONE] + [_ZERO] * n] + [[_ZERO] * (n + 1) for _ in range(n)]
    base = Series1.constant(1, n - 1) / Series1(f.coefficients()[1:], n - 1)
    for i, power in enumerate(powers(base, n)):
        for a in range(1, i + 1):
            rows[a][i] = power[i - a] * Fraction(a, i)
    return rows


def bivariate_from_exp(exp: Series1) -> Series2:
    """The group law exp(log(z0) + log(z1)) with log the reversion of exp.

    Expanding exp(L0 + L1) = sum_m e_m (L0 + L1)^m binomially gives the
    bilinear form F[i,j] = sum_{a<=i, b<=j} C(a+b, a) e_{a+b} P_a[i] P_b[j]
    with P_a = log^a.  The powers P_a come straight from exp by
    Lagrange-Buermann (Brent & Kung, J. ACM 25(4), 1978), so nothing is
    reverted.
    """
    if not exp[0].is_zero() or not exp[1].is_one():
        raise NotRevertibleError("exponential must be z + O(z^2)")
    n, dot = exp.order, RingElement.dot
    P = _inverse_powers(exp)
    # G[a][j] = sum_{b<=j} C(a+b, a) e_{a+b} P_b[j], so F[i,j] = sum_{a<=i} P_a[i] G[a][j]
    G = []
    for a in range(n + 1):
        e = [exp[a + b] * math.comb(a + b, a) for b in range(n + 1 - a)]
        G.append([dot((e[b], P[b][j]) for b in range(j + 1)) for j in range(n + 1 - a)])
    out: "dict[tuple[int, int], RingElement]" = {}
    for i in range(n + 1):
        for j in range(i, n + 1 - i):  # F is symmetric: fill both halves at once
            out[(i, j)] = out[(j, i)] = dot((P[a][i], G[a][j]) for a in range(i + 1))
    return Series2(out, n)


# -- build once per process ----------------------------------------------------

_Built = TypeVar("_Built")


def build_once(
    cache: "MutableMapping[object, _Built]",
    key: object,
    order: int,
    build: "Callable[[int], _Built]",
) -> _Built:
    """build(order), served from one build per key held in cache.

    The cache keeps the build at the highest order asked for so far, and a
    lower order is that build's truncate(order); this is exact because
    truncation is functorial (see the module docstring).  A build must have
    .order == order and a truncate method.
    """
    top = cache.get(key)
    if top is None or top.order < order:
        top = cache[key] = build(order)
    return top.truncate(order)
