"""Formal group laws: catalog, axiom checking, logarithms and isomorphisms.

The catalog covers the additive and multiplicative laws, the one-parameter
multiplicative deformation, the Moebius-type deformation with its two
construction routes, the hyperbolic law, the Jacobi-quartic law, the
Gamma-function law in raw and normalized presentations, the rescaled
quantum-integer law, and the universal additive-type law over Z[e_n].
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Union

from genusforge.check import CheckResult, Record, first_defect, replace
from genusforge.ring import NonUnitError, RingElement, _check_order
from genusforge.series import (
    Series1,
    Series2,
    _compose1_2,
    bivariate_from_exp,
    build_once,
    compose1_2,
    exp_series,
    log_series,
    sqrt_series,
)

__all__ = [
    "AxiomReport",
    "FormalGroupLaw",
    "MobiusTrial",
    "UnknownLawError",
    "CATALOG",
    "EXPONENTIALS",
    "canonical_strict_iso",
    "catalog",
    "check_axioms",
    "gamma_exponential",
    "gaussian_bracket",
    "grading_check",
    "kontsevich_germ_law",
    "logarithm",
    "mobius_sweep",
    "n_series",
    "negation_series",
    "sinh_exponential",
    "verify_iso",
]

_ZERO = RingElement.zero()
_ONE = RingElement.one()


class UnknownLawError(KeyError):
    """Requested a law that is not in the catalog."""


class FormalGroupLaw(Record):
    """A bivariate law F(z0, z1) with catalog provenance.

    The unit axiom F(z, 0) = F(0, z) = z is enforced at construction; the
    other axioms are the business of check_axioms.
    """

    F: Series2
    name: str
    params: "tuple[tuple[str, RingElement], ...]" = ()  # sorted by name
    construction: str = "closed-form"
    exp: Optional[Series1] = None

    def __post_init__(self):
        F = self.F
        for n in range(F.order + 1):
            want = _ONE if n == 1 else _ZERO
            if F[(n, 0)] != want or F[(0, n)] != want:
                raise ValueError(f"unit axiom fails at degree {n} for {self.name!r}")

    @property
    def order(self) -> int:
        return self.F.order

    def truncate(self, order: int) -> "FormalGroupLaw":
        if order >= self.order:
            return self
        exp = self.exp.truncate(order) if self.exp is not None else None
        return replace(self, F=self.F.truncate(order), exp=exp)

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "params": {k: v.to_obj() for k, v in self.params},
            "order": self.order,
            "F": self.F.to_obj(),
        }


class AxiomReport(Record):
    unit: CheckResult
    commutativity: CheckResult
    associativity: CheckResult

    @property
    def passed(self) -> bool:
        return all(part.passed for part in vars(self).values())

    def as_check(self) -> CheckResult:
        """One result: the degree and coefficient of the first failing part,
        named in `detail`, with the whole report as the `report` extra."""
        for name, part in vars(self).items():
            if not part.passed:
                return CheckResult.fail(part.degree, part.coefficient, name, report=self)
        return CheckResult.ok(report=self)

    def to_obj(self) -> dict:
        return {name: "PASS" if part.passed else part.to_obj() for name, part in vars(self).items()}


# -- catalog ------------------------------------------------------------------

CATALOG = (
    "additive",
    "multiplicative",
    "multiplicative_t",
    "kontsevich",
    "hyperbolic",
    "jacobi",
    "gamma_raw",
    "gamma_normalized",
    "chi_rescaled",
    "universal_additive",
)

# Extra demonstration entry: passes the unit axiom, fails associativity.
DEMO_LAWS = ("broken_demo",)

# The generators each law's coefficients are drawn from, at every order; a
# param must name one of them.  The other laws are rational.  gamma_raw
# carries zeta(k) for k >= 2, gamma_normalized only the odd ones (its even
# zetas reduce to rationals), and universal_additive e_n for n >= 1; an index
# is written in ASCII digits without leading zeros.
_LAW_GENERATORS = {
    "multiplicative_t": "t",
    "kontsevich": "t",
    "jacobi": "delta|epsilon",
    "gamma_raw": "gamma|zeta([2-9]|[1-9][0-9]+)",
    "gamma_normalized": "gamma|ipi2|zeta([3579]|[1-9][0-9]*[13579])",
    "chi_rescaled": "u",
    "universal_additive": "e[1-9][0-9]*",
}


def gamma_exponential(order: int, normalized: bool = False) -> Series1:
    """The reciprocal-Gamma exponential z*exp(gamma*z - sum zeta(k)(-z)^k / k).

    With normalized=True the variable is rescaled by the inverse period
    (z = x / ipi2) and even zeta values are reduced to rationals.  Both act on
    the argument of exp: reduce is a ring map, so reducing the argument
    reduces every expanded coefficient.
    """
    arg = [_ZERO, RingElement.gen("gamma")]
    for k in range(2, order):
        arg.append(RingElement.gen(f"zeta{k}", coeff=Fraction((-1) ** (k + 1), k)))
    if normalized:
        arg = [(c * RingElement.gen("ipi2", -k)).reduce() for k, c in enumerate(arg)]
    return Series1([_ZERO, *exp_series(Series1(arg, order - 1)).coefficients()], order)


def gaussian_bracket(n: int) -> RingElement:
    """The quantum integer (t^(n/2) - t^(-n/2)) / (t^(1/2) - t^(-1/2)) in u = t^(1/2)."""
    _check_order(n, 1, "n")
    return RingElement.dot((RingElement.gen("u", n - 1 - 2 * j), 1) for j in range(n))


def kontsevich_germ_law(order: int) -> Series2:
    """The deformation law built from the germ u,v -> uv / (1 - t(u-1)(v-1)).

    Uses the coordinate z = u - 1 at the fixed point, so the law is
    G(1 + z0, 1 + z1) - 1 computed in truncated bivariate arithmetic.
    """
    t = RingElement.gen("t")
    uv = Series2({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, order)
    den = Series2({(0, 0): 1, (1, 1): -t}, order)
    return uv * den.inverse() - 1


def sinh_exponential(order: int) -> Series1:
    """The hyperbolic exponential 2 sinh(z/2)."""
    return Series1(
        [Fraction(1, 4 ** (n // 2) * math.factorial(n)) if n % 2 else 0 for n in range(order + 1)],
        order,
    )


def _chi_rescaled_exponential(order: int) -> Series1:
    """The reversion of the logarithm sum_n [n](u) z^n / n."""
    log = Series1(
        [0] + [gaussian_bracket(n) / n for n in range(1, order + 1)], order
    )
    return log.revert()


# The laws built from their exponential: name -> (order -> exponential).
EXPONENTIALS = {
    "hyperbolic": sinh_exponential,
    "gamma_raw": gamma_exponential,
    "gamma_normalized": lambda order: gamma_exponential(order, normalized=True),
    "chi_rescaled": _chi_rescaled_exponential,
    "universal_additive": lambda order: Series1(
        [0, 1] + [RingElement.gen(f"e{n}") for n in range(1, order)], order
    ),
}


def _build(name: str, order: int) -> FormalGroupLaw:
    if name in EXPONENTIALS:
        exp = EXPONENTIALS[name](order)
        return FormalGroupLaw(bivariate_from_exp(exp), name, construction="from-exponential", exp=exp)
    t = RingElement.gen("t")
    if name == "additive":
        return FormalGroupLaw(Series2({(1, 0): 1, (0, 1): 1}, order), name, exp=Series1.x(order))
    if name == "multiplicative":
        exp = exp_series(Series1.x(order)) - 1
        return FormalGroupLaw(Series2({(1, 0): 1, (0, 1): 1, (1, 1): 1}, order), name, exp=exp)
    if name == "multiplicative_t":
        return FormalGroupLaw(Series2({(1, 0): 1, (0, 1): 1, (1, 1): t}, order), name)
    if name == "kontsevich":
        num = Series2({(1, 0): 1, (0, 1): 1, (1, 1): 1 + t}, order)
        den = Series2({(0, 0): 1, (1, 1): -t}, order)
        return FormalGroupLaw(num * den.inverse(), name)
    if name == "jacobi":
        delta = RingElement.gen("delta")
        eps = RingElement.gen("epsilon")
        quartic = Series1([1, 0, -2 * delta, 0, eps], order)
        half = Series2({(1, 0): 1}, order) * Series2.from_series1(sqrt_series(quartic), 1)
        num = half + half.swap()  # z0 R(z1) + z1 R(z0), R the square root of the quartic
        den = Series2({(0, 0): 1, (2, 2): -eps}, order)
        return FormalGroupLaw(num * den.inverse(), name)
    if name == "broken_demo":
        return FormalGroupLaw(Series2({(1, 0): 1, (0, 1): 1, (2, 1): 1}, order), name)
    raise UnknownLawError(name)


_BUILT: "dict[str, FormalGroupLaw]" = {}


def catalog(
    name: str,
    order: int,
    params: Optional[Mapping[str, Union[int, Fraction, RingElement]]] = None,
) -> FormalGroupLaw:
    """Construct a catalog law to the given truncation order.

    Each law is built once per process, at the highest order asked for so
    far; lower orders are served by truncating that build, which is exact
    because truncation is functorial (see genusforge.series).  Params are
    substituted into the truncated law, so _BUILT holds only unbound laws,
    and a request is memoised by its name, order and sorted params (_law,
    the 128 most recent).  A param that names no generator of the law, or
    that is not invertible where the law has negative powers of it, is a
    ValueError, raised on every call and not kept.
    """
    name = name.replace("-", "_")
    if name not in CATALOG and name not in DEMO_LAWS:
        raise UnknownLawError(name)
    _check_order(order, 2)
    for key in params or ():
        if not re.fullmatch(_LAW_GENERATORS.get(name, "(?!)"), key):
            raise ValueError(f"param {key!r} names no generator of law {name!r}")
    bound = sorted(
        (k, v if isinstance(v, RingElement) else RingElement.from_rational(v))
        for k, v in (params or {}).items()
    )
    return _law(name, order, tuple(bound))


@lru_cache(maxsize=128)
def _law(name: str, order: int, params: "tuple[tuple[str, RingElement], ...]") -> FormalGroupLaw:
    """catalog(name, order, dict(params)) for a checked request."""
    law = build_once(_BUILT, name, order, lambda n: _build(name, n))
    if not params:
        return law
    bound, F, exp = dict(params), law.F, law.exp
    try:
        F = F.map_coefficients(lambda c: c.substitute(bound))
        if exp is not None:
            exp = exp.map_coefficients(lambda c: c.substitute(bound))
    except NonUnitError:
        negative = {g for _, c in F.items() for m, _ in c.terms() for g, e in m if e < 0}
        bad = ", ".join(repr(k) for k in sorted(bound) if k in negative)
        raise ValueError(
            f"param {bad} must be invertible: law {name!r} has negative powers of it"
        ) from None
    return replace(law, F=F, params=params, exp=exp)


# -- axioms ---------------------------------------------------------------------


def _law_series(law: Union[FormalGroupLaw, Series2]) -> Series2:
    return law.F if isinstance(law, FormalGroupLaw) else law


def check_axioms(law: Union[FormalGroupLaw, Series2]) -> AxiomReport:
    """Check unit, commutativity and associativity by direct expansion.

    F(F(x, y), z) = sum_j L_j(x, y) z^j, where L_j = sum_i F[i, j] F^i is
    column j of F composed into F at order n - j.  F(x, F(y, z)) at
    (a, b, c) is L_a[c, b] for G = F.swap(), and G == F when the
    commutativity check passes: then the difference is antisymmetric under
    a <-> c, at one degree, so its first defect has a < c and only those
    triples are compared.  F's cached symmetry only halves each L_j's sum;
    the report is read off the values.  A constant term is reported, not raised.
    """
    F = _law_series(law)
    n = F.order

    unit = first_defect(
        (k, F[ij] - _ONE if k == 1 else F[ij])
        for k in range(n + 1)
        for ij in ((k, 0), (0, k))
    )
    commutativity = first_defect((F - F.swap()).items())
    commutative = commutativity.passed

    def columns(G: Series2) -> "list[Series2]":
        cols = [Series1([G[(i, j)] for i in range(n + 1 - j)], n - j) for j in range(n + 1)]
        return [_compose1_2(col, G) for col in cols]

    left = columns(F)
    right = left if commutative else columns(F.swap())
    associativity = first_defect(
        ((a, b, c), left[c][(a, b)] - right[a][(c, b)])
        for a in range(n + 1)
        for c in range(a + 1 if commutative else 0, n + 1 - a)
        for b in range(n + 1 - a - c)
    )
    return AxiomReport(unit, commutativity, associativity)


def grading_check(law: FormalGroupLaw) -> CheckResult:
    """Check that the coefficient of z0^i z1^j is homogeneous of weight i+j-1;
    a failure names the first coefficient that is not."""
    return first_defect(
        ((i, j), c) for (i, j), c in law.F.items() if not c.is_homogeneous(i + j - 1)
    )


# -- logarithm, inverse, n-series ------------------------------------------------


@lru_cache(maxsize=32)
def logarithm(law: Union[FormalGroupLaw, Series2]) -> Series1:
    """The logarithm, from the invariant differential dL = dz / F_2(z, 0),
    kept for the 32 most recent laws by value."""
    F = _law_series(law)
    n = F.order
    dlog = Series1([F[(i, 1)] for i in range(n)], n - 1)
    return (Series1.constant(1, n - 1) / dlog).integrate()


def exponential(law: Union[FormalGroupLaw, Series2]) -> Series1:
    """The exponential: stored construction data if present, else revert(log)."""
    if isinstance(law, FormalGroupLaw) and law.exp is not None:
        return law.exp
    return logarithm(law).revert()


def n_series(law: Union[FormalGroupLaw, Series2], n: int) -> Series1:
    """The n-series [n](z) = exp(n log z), for every integer n.

    Over a Q-algebra a law is F(z0, z1) = exp(log z0 + log z1), so this is the
    n-fold sum z +_F ... +_F z, and [-1] is the inverse.  For a Series2 that is
    not a law the two routes part: [n] need not be F(z, [n-1]).
    """
    return exponential(law).compose(logarithm(law) * n)


def negation_series(law: Union[FormalGroupLaw, Series2]) -> Series1:
    """The inverse series i(z) = [-1](z) = exp(-log z); F(z, i(z)) = 0 when F
    is a law, and verify reports the first degree where it is not."""
    return n_series(law, -1)


# -- strict isomorphisms ----------------------------------------------------------


@lru_cache(maxsize=16)
def canonical_strict_iso(
    source: Union[FormalGroupLaw, Series2], target: Union[FormalGroupLaw, Series2]
) -> Series1:
    """The unique strict isomorphism exp_target o log_source, kept for the
    16 most recent (source, target) by value."""
    return exponential(target).compose(logarithm(source))


@lru_cache(maxsize=16)
def verify_iso(
    phi: Series1,
    source: Union[FormalGroupLaw, Series2],
    target: Union[FormalGroupLaw, Series2],
) -> CheckResult:
    """Check phi(F(z0,z1)) == G(phi(z0), phi(z1)) to the common order; the
    verdict is kept for the 16 most recent (phi, source, target) by value,
    so equal requests share one CheckResult."""
    F = _law_series(source)
    G = _law_series(target)
    phi = phi.truncate(min(F.order, G.order, phi.order))
    lhs = compose1_2(phi, F)
    rhs = G.compose(phi, phi)
    return first_defect((lhs - rhs).items())


_MOBIUS_CONVENTIONS = {
    # w(z) = (a z + b) / (c z + d) for the matrix [[t, 1], [-1, 1]] read four ways
    "row_matrix": ("t", 1, -1, 1),
    "row_inverse": (1, -1, 1, "t"),
    "col_matrix": ("t", -1, 1, 1),
    "col_inverse": (1, 1, -1, "t"),
}

_MOBIUS_TARGETS = {
    "additive": 0,
    "multiplicative": 1,
    "multiplicative_t": "t",
}


class MobiusTrial(Record):
    """One reading of the candidate coordinate change tried onto one target."""

    convention: str
    target: str
    normalized_unit: bool
    strict_linear_term: bool
    status: str
    fail_degree: Optional[int]

    def to_obj(self) -> dict:
        return dict(vars(self))


def mobius_sweep(order: int = 12) -> "tuple[MobiusTrial, ...]":
    """Adjudicate the candidate coordinate change for the deformation law.

    For each reading of the fractional-linear action (row/column, matrix or
    its inverse) the candidate phi(z) = (1+t)^{-1} log w(z) is tested as a
    strict isomorphism from the deformation law onto each of three targets, one
    MobiusTrial each.  The scale (1+t)^{-1} is handled by clearing denominators:
    for a target y0 + y1 + m*y0*y1 the identity is (1+t) L(F) == (1+t)(L0 + L1)
    + m L0 L1, with L = log of the (unit-normalized) Moebius image.  Each trial also
    notes whether the Moebius image needed normalizing (w(0) != 1) and
    whether phi is strict (phi'(0) == 1, i.e. L'(0) == 1+t).
    """
    t = RingElement.gen("t")
    c_scale = 1 + t
    F = catalog("kontsevich", order).F
    out = []
    for conv_name, (a, b, c, d) in _MOBIUS_CONVENTIONS.items():
        lift = lambda v: RingElement.gen("t") if v == "t" else RingElement.from_rational(v)
        num = Series1([lift(b), lift(a)], order)
        den = Series1([lift(d), lift(c)], order)
        w = num / den
        w0 = w[0]
        normalized = not w0.is_one()
        wn = w * w0.inverse() if normalized else w
        L = log_series(wn)
        strict = L[1] == c_scale
        L0 = Series2.from_series1(L, 0, order)
        L1 = Series2.from_series1(L, 1, order)
        lhs = compose1_2(L, F) * c_scale
        base = (L0 + L1) * c_scale
        cross = L0 * L1
        for target_name, m in _MOBIUS_TARGETS.items():
            m_elem = RingElement.gen("t") if m == "t" else RingElement.from_rational(m)
            rhs = base + cross * m_elem
            defect = first_defect((lhs - rhs).items())
            trial = (conv_name, target_name, normalized, strict, defect.status, defect.degree)
            out.append(MobiusTrial(*trial))
    return tuple(out)
