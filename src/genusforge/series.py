"""Truncated power series over the exact coefficient ring.

Series1 is a dense univariate series c_0 + c_1 z + ... + c_N z^N; Series2 is
a bivariate series truncated by total degree.  All operations truncate to the
order of their inputs and never consult coefficients beyond it, so
truncate_M(op(a, b)) == op(truncate_M(a), truncate_M(b)) for M <= N.
A constructor's order goes through ring._check_order; truncate, called only
with orders of values already checked, does not check again.  A scalar
coefficient goes through _coerce_elem, and so through ring._fraction.
Each univariate function is one recurrence (Knuth, TAOCP vol. 2, sec. 4.7):
exp, log, sqrt and the quotient a / b solve E' = f' E, f L' = f', P^2 = f and
b Q = a with one dot per coefficient; the power B^a (_unit_power) takes two.

Every bivariate product and composition lists the coefficient pairs of
each index and passes _dotted one verdict, that the result is symmetric;
_dotted alone then sums the (i, j) with i <= j and gives each (i, j) with
i > j the sum at (j, i).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, MutableMapping, Optional, TypeVar, Union

from genusforge.ring import RingElement, Scalar, _check_order, _coerce_elem, _json_int

__all__ = [
    "Series1",
    "Series2",
    "BadConstantTermError",
    "InsufficientOrderError",
    "NonUnitDivisionError",
    "NotRevertibleError",
    "bivariate_from_exp",
    "build_once",
    "compose1_2",
    "exp_series",
    "log_series",
    "sqrt_series",
]

S = TypeVar("S", bound="_Series")

_ZERO = RingElement.zero()
_ONE = RingElement.one()


class NonUnitDivisionError(ArithmeticError):
    """Division by a series whose constant term is not invertible."""


class NotRevertibleError(ArithmeticError):
    """Reversion of a series without invertible linear part (or f(0) != 0)."""


class BadConstantTermError(ArithmeticError):
    """exp/log/sqrt/compose input has the wrong constant term."""


class InsufficientOrderError(ValueError):
    """The series order is too small for the requested evaluation."""


class _Series:
    """The coefficient-wise core of Series1 and Series2.

    A subclass stores its coefficients by key (degree n, or bidegree (i, j))
    and supplies _ORIGIN, the key of the constant term, _keyed(), its (key,
    coefficient) pairs, a constructor that takes a {key: coefficient} dict
    and an order, _divide for the series quotient, and to_obj/from_obj.
    Everything here acts on each coefficient alone, so it is written once
    for both kinds and builds only type(self).  A scalar in a sum or a
    difference is the series constant(scalar, order).
    """

    __slots__ = ("order", "_coeffs")
    _ORIGIN: object

    @classmethod
    def zeros(cls: "type[S]", order: int) -> S:
        return cls({}, order)

    @classmethod
    def constant(cls: "type[S]", value: Scalar, order: int) -> S:
        return cls({cls._ORIGIN: value}, order)

    @classmethod
    def _raw(cls: "type[S]", coeffs, order: int) -> S:
        """A series from coefficients already in stored form."""
        out = object.__new__(cls)
        out.order = order
        out._coeffs = coeffs
        return out

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
        same kind and order or a scalar, the series constant(other, order).
        Each coefficient goes through RingElement._plus, so a difference
        builds no negated copy of other."""
        if not isinstance(other, type(self)):
            other = self.constant(other, self.order)
        self._match(other)
        out = dict(self._keyed())
        for k, c in other._keyed():
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
        """self * k for a scalar k; an int or Fraction k stays rational, so each
        coefficient is scaled, not multiplied by an element."""
        if not isinstance(k, (int, Fraction)):
            k = _coerce_elem(k)
        return self.map_coefficients(lambda c: c * k)

    def __truediv__(self: S, other) -> S:
        if isinstance(other, type(self)):
            return self._divide(other)
        if isinstance(other, (int, Fraction)) and other:
            return self.map_coefficients(lambda c: c / other)
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
        _check_order(order)
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

    def __iter__(self):
        """The order + 1 stored coefficients, so Series1(s) copies s."""
        return iter(self._coeffs)

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
            out.append(c / (n + 1))
        return Series1(out, self.order + 1)

    # -- composition ---------------------------------------------------------

    def compose(self, inner: "Series1") -> "Series1":
        """self(inner(z)) = sum_k self[k] inner^k at the lesser order, for
        inner(0) = 0: one dot per coefficient over the power table of inner,
        whose rows stop at self's highest nonzero index."""
        if not inner._coeffs[0].is_zero():
            raise BadConstantTermError("inner series must have zero constant term")
        n = min(self.order, inner.order)
        outer, top, dot = self._coeffs, _degree(self._coeffs[: n + 1]), RingElement.dot
        T = _power_table(list(inner._coeffs[: n + 1]), top, n)
        out = [dot((outer[k], T[k][m]) for k in range(min(m, top) + 1)) for m in range(n + 1)]
        return Series1._raw(tuple(out), n)

    def revert(self) -> "Series1":
        """Compositional inverse g, found while _power_table fills the table
        of its powers; requires f(0) = 0 and an invertible f_1."""
        if not self._coeffs[0].is_zero():
            raise NotRevertibleError("series must vanish at 0")
        if self.order == 0:
            return self
        try:
            g = [_ZERO, self._coeffs[1].inverse()] + [_ZERO] * (self.order - 1)
        except ArithmeticError as exc:
            raise NotRevertibleError("linear coefficient must be invertible") from exc
        _power_table(g, _degree(self._coeffs), self.order, self)
        return Series1._raw(tuple(g), self.order)

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
        coeffs = [RingElement.from_obj(c) for c in obj["coeffs"]]
        return Series1(coeffs, _json_int(obj["order"], "order"))

    def __repr__(self) -> str:
        parts = [f"({c})*z^{n}" if n else f"({c})" for n, c in self.items()]
        body = " + ".join(parts) if parts else "0"
        return f"Series1[{body} + O(z^{self.order + 1})]"


class Series2(_Series):
    """Bivariate series truncated by total degree, sparse triangular storage."""

    __slots__ = ("_symmetric",)
    _ORIGIN = (0, 0)

    def __init__(self, coeffs: Mapping["tuple[int, int]", Scalar], order: int):
        _check_order(order)
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
        """Lift a univariate series into variable 0 or 1, at f's order or a
        lower one: f knows nothing beyond its own."""
        if order is None:
            order = f.order
        if variable not in (0, 1):
            raise ValueError(f"variable must be 0 or 1, not {variable!r}")
        if order > f.order:
            raise ValueError(f"order {order} exceeds the series' order {f.order}")
        return Series2({(0, n) if variable else (n, 0): f[n] for n in range(order + 1)}, order)

    # -- inspection ------------------------------------------------------------

    def __getitem__(self, ij: "tuple[int, int]") -> RingElement:
        return self._coeffs.get(ij, _ZERO)

    __iter__ = None  # not iterable: __getitem__ alone would iterate forever

    def _keyed(self):
        return self._coeffs.items()

    def items(self):
        return sorted(self._coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def is_symmetric(self) -> bool:
        """self[(i, j)] == self[(j, i)] for all i, j.  A value never changes, so
        _symmetric keeps the verdict of one scan, or of the half sum (_dotted)."""
        if not hasattr(self, "_symmetric"):
            self._symmetric = all(i == j or self[(j, i)] == c for (i, j), c in self._coeffs.items())
        return self._symmetric

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
        # For each d, other's terms of total degree <= d, made once: a term of
        # self visits only the partners that stay within n, in stored order,
        # so the result keeps the index order of the all-pairs loop.
        terms = [(i2 + j2, i2, j2, c2) for (i2, j2), c2 in other._coeffs.items()]
        within: "dict[int, list]" = {}
        pairs: "dict[tuple[int, int], list]" = {}
        for (i1, j1), c1 in self._coeffs.items():
            d = n - i1 - j1
            row = within.get(d)
            if row is None:
                row = within[d] = [(i2, j2, c2) for e, i2, j2, c2 in terms if e <= d]
            for i2, j2, c2 in row:
                pairs.setdefault((i1 + i2, j1 + j2), []).append((c1, c2))
        # A product of symmetric series is symmetric.
        return _dotted(pairs, n, self.is_symmetric() and other.is_symmetric())

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
        series with zero constant term.  When f == g one list of powers
        serves both variables, and if self is also symmetric, so is the
        result."""
        if not f[0].is_zero() or not g[0].is_zero():
            raise BadConstantTermError("inner series must have zero constant term")
        n = min(self.order, f.order, g.order)
        F, f, g = self.truncate(n), f.truncate(n), g.truncate(n)
        if f == g:
            fp = gp = _power_table(list(f._coeffs), max(F._top(0), F._top(1)), n)
        else:
            fp = _power_table(list(f._coeffs), F._top(0), n)
            gp = _power_table(list(g._coeffs), F._top(1), n)
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
        return _dotted(pairs, n, fp is gp and F.is_symmetric())

    def eval_at(self, a: Series1, b: Series1) -> Series1:
        """self(a(z), b(z)) as a univariate series (both inner in the same z):
        z0 = z1 = z sends z0^p z1^q to z^(p+q), so this is the total-degree
        diagonal of self.compose(a, b)."""
        c = self.compose(a, b)
        diagonal: "list[list]" = [[] for _ in range(c.order + 1)]
        for (p, q), v in c._coeffs.items():
            diagonal[p + q].append((v, 1))
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
        return Series2(coeffs, _json_int(obj["order"], "order"))

    def __repr__(self) -> str:
        parts = [f"({c})*z0^{i}*z1^{j}" for (i, j), c in self.items()]
        body = " + ".join(parts) if parts else "0"
        return f"Series2[{body} + O(deg {self.order + 1})]"


@lru_cache(maxsize=16)
def _law_powers(F: Series2) -> "tuple[Series2, ...]":
    """F^0 .. F^n at F's order n, kept for the 16 most recent F by value:
    _compose1_2 reads F^k to any lower degree from this one entry, so every
    column of a law that check_axioms composes into it, and every compose1_2
    into an equal law, share it.  The bound is small because an entry grows
    quickly with the order."""
    out = [Series2.constant(1, F.order)]
    for _ in range(F.order):
        out.append(out[-1] * F)
    return tuple(out)


def _dotted(pairs: "dict[tuple[int, int], list]", order: int, symmetric: bool) -> Series2:
    """The Series2 with dot(pairs[ij]) at each nonzero sum, in the order of
    pairs, stored as dot built it.  The one place that sums half: when the
    caller knows the result is symmetric, only the (i, j) with i <= j are
    summed, each (i, j) with i > j takes the sum at (j, i), and the result
    records its verdict."""
    dot = RingElement.dot
    sums = {ij: dot(ps) for ij, ps in pairs.items() if not symmetric or ij[0] <= ij[1]}
    out = {ij: sums[ij if ij in sums else ij[::-1]] for ij in pairs}
    result = Series2._raw({ij: c for ij, c in out.items() if not c.is_zero()}, order)
    if symmetric:
        result._symmetric = True
    return result


# -- analytic primitives ------------------------------------------------------


def exp_series(f: Series1) -> "Series1":
    """exp of a series with zero constant term."""
    if not f[0].is_zero():
        raise BadConstantTermError("exp needs f(0) = 0")
    n = f.order
    kf = [k * f[k] for k in range(n + 1)]
    out = [_ONE] + [_ZERO] * n
    for m in range(1, n + 1):
        out[m] = RingElement.dot((kf[k], out[m - k]) for k in range(1, m + 1)) / m
    return Series1(out, n)


def log_series(f: Series1) -> "Series1":
    """log L of a series with constant term exactly 1, by f L' = f': one dot
    per coefficient, m L_m = m f_m - sum_{k<m} k L_k f_{m-k}."""
    if not f[0].is_one():
        raise BadConstantTermError("log needs f(0) = 1")
    n = f.order
    kL = [_ZERO] * (n + 1)
    for m in range(1, n + 1):
        kL[m] = m * f[m] - RingElement.dot((kL[k], f[m - k]) for k in range(1, m))
    return Series1([_ZERO] + [kL[m] / m for m in range(1, n + 1)], n)


def sqrt_series(f: Series1) -> "Series1":
    """Square root of a series with constant term exactly 1, by P^2 = f: one dot per
    coefficient, where _unit_power at a = 1/2 takes three and ran about 1.8x slower."""
    if not f[0].is_one():
        raise BadConstantTermError("sqrt needs f(0) = 1")
    n = f.order
    out = [_ONE] + [_ZERO] * n
    for m in range(1, n + 1):
        out[m] = (f[m] - RingElement.dot((out[k], out[m - k]) for k in range(1, m))) / 2
    return Series1(out, n)


def compose1_2(outer: Series1, inner: Series2) -> Series2:
    """outer(inner(z0, z1)) = sum_k outer[k] inner^k at the lesser order, for
    an inner series with zero constant term (see _compose1_2)."""
    if not inner[(0, 0)].is_zero():
        raise BadConstantTermError("inner series must have zero constant term")
    return _compose1_2(outer, inner)


def _compose1_2(outer: Series1, inner: Series2) -> Series2:
    """sum_k outer[k] inner^k over k <= n = min(outer.order, inner.order),
    kept to total degree n: one dot per coefficient, over the powers of the
    whole inner from the _law_powers memo, read only to degree n.  So every
    series composed into one law, at any order, reads one entry: check_axioms
    composes each column of a law into it.  With a constant term in inner
    the sum stops at k = n all the same, as check_axioms's expansion of
    F(F(x, y), z) does.  When inner is symmetric (its own verdict, kept in
    the value), so is the result."""
    n = min(outer.order, inner.order)
    pairs: "dict[tuple[int, int], list]" = {}
    for a, Pk in zip(outer._coeffs, _law_powers(inner)):
        if a.is_zero():
            continue
        for (i, j), v in Pk._coeffs.items():
            if i + j <= n:
                pairs.setdefault((i, j), []).append((a, v))
    return _dotted(pairs, n, inner.is_symmetric())


def _unit_power(b, a: Union[int, Fraction], top: int) -> "list[RingElement]":
    """[z^0..z^top] B^a for B = b_0 + b_1 z + ... with b_0 = 1 and a rational,
    reading b_1..b_top only, by J.C.P. Miller's power recurrence (Knuth,
    TAOCP vol. 2, sec. 4.7), k P_k = sum_{j=1..k} ((a + 1) j - k) b_j P_{k-j},
    as P_k = (a + 1)/k * S1 - S0 with S1 = sum_j j b_j P_{k-j} and
    S0 = sum_j b_j P_{k-j}.  genus_cpn reads [z^n] H^(n+1) from it.
    """
    dot = RingElement.dot
    jb = [j * b[j] for j in range(top + 1)]
    P = [_ONE]
    for k in range(1, top + 1):
        s1 = dot((jb[j], P[k - j]) for j in range(1, k + 1))
        s0 = dot((b[j], P[k - j]) for j in range(1, k + 1))
        P.append(s1 * Fraction(a + 1, k) - s0)
    return P


def _degree(coeffs) -> int:
    """The highest index of a nonzero coefficient, 0 for none."""
    return max((k for k, c in enumerate(coeffs) if not c.is_zero()), default=0)


def _power_table(g: list, top: int, n: int, inverse_of: Optional[Series1] = None) -> list:
    """T[k][m] = [z^m] g^k for 0 <= k <= top and 0 <= m <= n, for g_0 = 0,
    filled column by column with one dot per entry k <= m (Knuth, TAOCP
    vol. 2, sec. 4.7; Brent & Kung, J. ACM 25(4), 1978):
    T[k][m] = sum_{l=1..m-k+1} g_l T[k-1][m-l], and 0 for m < k.  Row 0 is
    the unit and row 1 the list g itself.

    An entry of column m with k >= 2 reads g only below degree m.  So with
    inverse_of = f, zero above degree top, and g = [0, 1/f_1], g is f's
    compositional inverse, solved for while the table fills: from
    [z^m] f(g) = 0, g_m = -g_1 sum_{j=2..min(m, top)} f_j T[j][m].
    """
    dot = RingElement.dot
    T = [[_ONE] + [_ZERO] * n, g] + [[_ZERO] * (n + 1) for _ in range(2, top + 1)]
    if inverse_of is not None:
        f, ninv = inverse_of._coeffs, -g[1]
    for m in range(2, n + 1):
        for k in range(2, min(m, top) + 1):
            prev = T[k - 1]
            T[k][m] = dot((g[l], prev[m - l]) for l in range(1, m - k + 2))
        if inverse_of is not None:
            g[m] = dot((f[j], T[j][m]) for j in range(2, min(m, top) + 1)) * ninv
    return T


def bivariate_from_exp(exp: Series1) -> Series2:
    """The group law exp(log(z0) + log(z1)) with log the reversion of exp.

    Expanding exp(L0 + L1) = sum_m e_m (L0 + L1)^m binomially gives the
    bilinear form F[i,j] = sum_{a<=i, b<=j} C(a+b, a) e_{a+b} P_a[i] P_b[j]
    with P_a = log^a, the rows of the table that reverting exp builds."""
    if not exp[0].is_zero() or not exp[1].is_one():
        raise NotRevertibleError("exponential must be z + O(z^2)")
    n, dot = exp.order, RingElement.dot
    P = _power_table([_ZERO, _ONE] + [_ZERO] * (n - 1), n, n, exp)
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
