"""Formal group laws: catalog, axiom checking, logarithms and isomorphisms.

The catalog covers the additive and multiplicative laws, the one-parameter
multiplicative deformation, the Moebius-type deformation with its two
construction routes, the hyperbolic law, the Jacobi-quartic law, the
Gamma-function law in raw and normalized presentations, the rescaled
quantum-integer law, and the universal additive-type law over Z[e_n].
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import re
from fractions import Fraction
from typing import Mapping, Optional, Union

from genusforge.ring import RingElement
from genusforge.series import (
    Series1,
    Series2,
    bivariate_from_exp,
    compose1_2,
    exp_series,
    log_series,
    sqrt_series,
)

__all__ = [
    "AxiomReport",
    "CheckResult",
    "FormalGroupLaw",
    "UnknownLawError",
    "CATALOG",
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
    "verify_iso",
]

_ZERO = RingElement.zero()
_ONE = RingElement.one()


class UnknownLawError(KeyError):
    """Requested a law that is not in the catalog."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact identity check."""

    status: str  # "PASS" | "FAIL"
    degree: Optional[int] = None
    coefficient: Optional[RingElement] = None
    detail: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_obj(self) -> dict:
        if self.passed:
            obj: dict = {"status": "PASS"}
        else:
            obj = {"status": "FAIL"}
            if self.degree is not None:
                obj["degree"] = self.degree
            if self.coefficient is not None:
                obj["coefficient"] = self.coefficient.to_obj()
        if self.detail:
            obj["detail"] = self.detail
        return obj

    @staticmethod
    def ok(detail: Optional[str] = None) -> "CheckResult":
        return CheckResult("PASS", detail=detail)

    @staticmethod
    def fail(degree=None, coefficient=None, detail=None) -> "CheckResult":
        return CheckResult("FAIL", degree, coefficient, detail)


def _first_defect2(diff: Series2) -> "Optional[tuple[int, RingElement]]":
    if diff.is_zero():
        return None
    items = diff.items()
    degree = min(i + j for (i, j), _ in items)
    for (i, j), c in items:
        if i + j == degree:
            return degree, c
    return None


def _first_defect_tri(diff: "dict[tuple[int, int, int], RingElement]"):
    keys = [k for k, c in diff.items() if not c.is_zero()]
    if not keys:
        return None
    degree = min(sum(k) for k in keys)
    key = min(k for k in keys if sum(k) == degree)
    return degree, diff[key]


@dataclass(frozen=True)
class FormalGroupLaw:
    """A bivariate law F(z0, z1) with catalog provenance.

    The unit axiom F(z, 0) = F(0, z) = z is enforced at construction; the
    other axioms are the business of check_axioms.
    """

    F: Series2
    name: str
    params: "Mapping[str, RingElement]" = field(default_factory=dict)
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

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "params": {k: v.to_obj() for k, v in sorted(self.params.items())},
            "order": self.order,
            "F": self.F.to_obj(),
        }


@dataclass(frozen=True)
class AxiomReport:
    unit: CheckResult
    commutativity: CheckResult
    associativity: CheckResult

    @property
    def passed(self) -> bool:
        return self.unit.passed and self.commutativity.passed and self.associativity.passed

    def to_obj(self) -> dict:
        return {
            "unit": "PASS" if self.unit.passed else self.unit.to_obj(),
            "commutativity": "PASS"
            if self.commutativity.passed
            else self.commutativity.to_obj(),
            "associativity": "PASS"
            if self.associativity.passed
            else self.associativity.to_obj(),
        }


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
# param must name one of them.  The other laws are rational.
_LAW_GENERATORS = {
    "multiplicative_t": "t",
    "kontsevich": "t",
    "jacobi": "delta|epsilon",
    "gamma_raw": r"gamma|zeta\d+",
    "gamma_normalized": r"gamma|ipi2|zeta\d+",
    "chi_rescaled": "u",
    "universal_additive": r"e\d+",
}


def gamma_exponential(order: int, normalized: bool = False) -> Series1:
    """The reciprocal-Gamma exponential z*exp(gamma*z - sum zeta(k)(-z)^k / k).

    With normalized=True the variable is rescaled by the inverse period
    (z = x / ipi2) and even zeta values are reduced to rationals.
    """
    arg = [_ZERO, RingElement.gen("gamma")]
    for k in range(2, order):
        arg.append(RingElement.gen(f"zeta{k}", coeff=Fraction((-1) ** (k + 1), k)))
    body = exp_series(Series1(arg, order - 1))
    coeffs = [_ZERO] + list(body.coefficients())
    exp = Series1(coeffs, order)
    if normalized:
        exp = Series1(
            [
                (c * RingElement.gen("ipi2", 1 - k)).reduce() if not c.is_zero() else c
                for k, c in enumerate(exp.coefficients())
            ],
            order,
        )
    return exp


def gaussian_bracket(n: int) -> RingElement:
    """The quantum integer (t^(n/2) - t^(-n/2)) / (t^(1/2) - t^(-1/2)) in u = t^(1/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = _ZERO
    for j in range(n):
        e = n - 1 - 2 * j
        out = out + (RingElement.gen("u", e) if e else _ONE)
    return out


def kontsevich_germ_law(order: int) -> Series2:
    """The deformation law built from the germ u,v -> uv / (1 - t(u-1)(v-1)).

    Uses the coordinate z = u - 1 at the fixed point, so the law is
    G(1 + z0, 1 + z1) - 1 computed in truncated bivariate arithmetic.
    """
    t = RingElement.gen("t")
    uv = Series2({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, order)
    den = Series2({(0, 0): 1, (1, 1): -t}, order)
    return uv * den.inverse() - 1


def _build(name: str, order: int) -> "tuple[Series2, str, Optional[Series1]]":
    t = RingElement.gen("t")
    if name == "additive":
        return Series2({(1, 0): 1, (0, 1): 1}, order), "closed-form", Series1.x(order)
    if name == "multiplicative":
        return (
            Series2({(1, 0): 1, (0, 1): 1, (1, 1): 1}, order),
            "closed-form",
            exp_series(Series1.x(order)) - 1,
        )
    if name == "multiplicative_t":
        return Series2({(1, 0): 1, (0, 1): 1, (1, 1): t}, order), "closed-form", None
    if name == "kontsevich":
        num = Series2({(1, 0): 1, (0, 1): 1, (1, 1): 1 + t}, order)
        den = Series2({(0, 0): 1, (1, 1): -t}, order)
        closed = num * den.inverse()
        germ = kontsevich_germ_law(order)
        if closed != germ:
            raise AssertionError("kontsevich germ and closed-form routes disagree")
        return closed, "closed-form", None
    if name == "hyperbolic":
        exp = Series1(
            [
                Fraction(1, 4 ** (n // 2) * math.factorial(n)) if n % 2 else 0
                for n in range(order + 1)
            ],
            order,
        )
        return bivariate_from_exp(exp), "from-exponential", exp
    if name == "jacobi":
        delta = RingElement.gen("delta")
        eps = RingElement.gen("epsilon")
        quartic = Series1([1, 0, -2 * delta, 0, eps], order)
        R = sqrt_series(quartic)
        zR: "dict[tuple[int, int], RingElement]" = {}
        for k in range(order):
            c = R[k]
            if not c.is_zero():
                zR[(1, k)] = zR.get((1, k), _ZERO) + c
                zR[(k, 1)] = zR.get((k, 1), _ZERO) + c
        num = Series2(zR, order)
        den = Series2({(0, 0): 1, (2, 2): -eps}, order)
        return num * den.inverse(), "closed-form", None
    if name == "gamma_raw":
        exp = gamma_exponential(order)
        return bivariate_from_exp(exp), "from-exponential", exp
    if name == "gamma_normalized":
        exp = gamma_exponential(order, normalized=True)
        return bivariate_from_exp(exp), "from-exponential", exp
    if name == "chi_rescaled":
        log = Series1(
            [0] + [gaussian_bracket(n) * Fraction(1, n) for n in range(1, order + 1)],
            order,
        )
        exp = log.revert()
        return bivariate_from_exp(exp, log), "from-exponential", exp
    if name == "universal_additive":
        exp = Series1(
            [0, 1] + [RingElement.gen(f"e{n}") for n in range(1, order)], order
        )
        return bivariate_from_exp(exp), "from-exponential", exp
    if name == "broken_demo":
        return (
            Series2({(1, 0): 1, (0, 1): 1, (2, 1): 1}, order),
            "closed-form",
            None,
        )
    raise UnknownLawError(name)


_BUILT: "dict[str, tuple[Series2, str, Optional[Series1]]]" = {}


def catalog(
    name: str,
    order: int,
    params: Optional[Mapping[str, Union[int, Fraction, RingElement]]] = None,
) -> FormalGroupLaw:
    """Construct a catalog law to the given truncation order.

    Each law is built once per process, at the highest order asked for so
    far; lower orders are served by truncating that build, which is exact
    because truncation is functorial (see genusforge.series).  Params are
    substituted into the truncated law, so the cache holds only unbound laws;
    a param that names no generator of the law is a ValueError.
    """
    name = name.replace("-", "_")
    if name not in CATALOG and name not in DEMO_LAWS:
        raise UnknownLawError(name)
    if order < 2:
        raise ValueError("order must be >= 2")
    for key in params or ():
        if not re.fullmatch(_LAW_GENERATORS.get(name, "(?!)"), key):
            raise ValueError(f"param {key!r} names no generator of law {name!r}")
    built = _BUILT.get(name)
    if built is None or built[0].order < order:
        built = _BUILT[name] = _build(name, order)
    F, construction, exp = built
    F = F.truncate(order)
    exp = exp.truncate(order) if exp is not None else None
    bound: "dict[str, RingElement]" = {}
    if params:
        bound = {
            k: v if isinstance(v, RingElement) else RingElement.from_rational(v)
            for k, v in params.items()
        }
        F = F.map_coefficients(lambda c: c.substitute(bound))
        if exp is not None:
            exp = exp.map_coefficients(lambda c: c.substitute(bound))
    return FormalGroupLaw(F=F, name=name, params=bound, construction=construction, exp=exp)


# -- axioms ---------------------------------------------------------------------


def _law_series(law: Union[FormalGroupLaw, Series2]) -> Series2:
    return law.F if isinstance(law, FormalGroupLaw) else law


def check_axioms(law: Union[FormalGroupLaw, Series2]) -> AxiomReport:
    """Check unit, commutativity and associativity by direct expansion."""
    F = _law_series(law)
    n = F.order

    unit = CheckResult.ok()
    for k in range(n + 1):
        want = _ONE if k == 1 else _ZERO
        for c, deg in ((F[(k, 0)], k), (F[(0, k)], k)):
            if c != want:
                unit = CheckResult.fail(deg, c - want)
                break
        if not unit.passed:
            break

    comm_defect = _first_defect2(F - F.swap())
    commutativity = (
        CheckResult.ok()
        if comm_defect is None
        else CheckResult.fail(*comm_defect)
    )

    powers = [Series2.constant(1, n)]
    for _ in range(n):
        powers.append(powers[-1] * F)
    left: "dict[tuple[int, int, int], RingElement]" = {}
    right: "dict[tuple[int, int, int], RingElement]" = {}
    for (i, j), c in F.items():
        for (p, q), v in powers[i].items():
            if p + q + j <= n:
                key = (p, q, j)
                acc = left.get(key)
                prod = c * v
                left[key] = prod if acc is None else acc + prod
        for (p, q), v in powers[j].items():
            if i + p + q <= n:
                key = (i, p, q)
                acc = right.get(key)
                prod = c * v
                right[key] = prod if acc is None else acc + prod
    diff = dict(left)
    for key, c in right.items():
        diff[key] = diff.get(key, _ZERO) - c
    assoc_defect = _first_defect_tri(diff)
    associativity = (
        CheckResult.ok()
        if assoc_defect is None
        else CheckResult.fail(*assoc_defect)
    )
    return AxiomReport(unit, commutativity, associativity)


def grading_check(law: FormalGroupLaw, weight_shift: int = -1) -> CheckResult:
    """Check that the coefficient of z0^i z1^j is homogeneous of weight i+j-1."""
    for (i, j), c in law.F.items():
        if not c.is_homogeneous(i + j + weight_shift):
            return CheckResult.fail(i + j, c, detail=f"coefficient ({i},{j})")
    return CheckResult.ok()


# -- logarithm, inverse, n-series ------------------------------------------------


def logarithm(law: Union[FormalGroupLaw, Series2]) -> Series1:
    """The logarithm, from the invariant differential dL = dz / F_2(z, 0)."""
    F = _law_series(law)
    n = F.order
    dlog = Series1([F[(i, 1)] for i in range(n)], n - 1)
    return (Series1.constant(1, n - 1) / dlog).integrate()


def exponential(law: Union[FormalGroupLaw, Series2]) -> Series1:
    """The exponential: stored construction data if present, else revert(log)."""
    if isinstance(law, FormalGroupLaw) and law.exp is not None:
        return law.exp
    return logarithm(law).revert()


def negation_series(law: Union[FormalGroupLaw, Series2]) -> Series1:
    """The inverse series i(z) with F(z, i(z)) = 0, solved degree by degree."""
    F = _law_series(law)
    n = F.order
    z = Series1.x(n)
    coeffs = [_ZERO, -_ONE] + [_ZERO] * (n - 1)
    for m in range(2, n + 1):
        val = F.eval_at(z, Series1(coeffs, n))[m]
        coeffs[m] = coeffs[m] - val
    return Series1(coeffs, n)


def n_series(law: Union[FormalGroupLaw, Series2], n: int) -> Series1:
    """The iterated series [n](z): [0] = 0, [n] = F(z, [n-1]), [-n] = [n] o [-1]."""
    F = _law_series(law)
    order = F.order
    if n < 0:
        return n_series(law, -n).compose(negation_series(law))
    out = Series1.zeros(order)
    z = Series1.x(order)
    for _ in range(n):
        out = F.eval_at(z, out)
    return out


# -- strict isomorphisms ----------------------------------------------------------


def canonical_strict_iso(
    source: Union[FormalGroupLaw, Series2], target: Union[FormalGroupLaw, Series2]
) -> Series1:
    """The unique strict isomorphism exp_target o log_source."""
    log_s = logarithm(source)
    exp_t = logarithm(target).revert()
    return exp_t.compose(log_s)


def verify_iso(
    phi: Series1,
    source: Union[FormalGroupLaw, Series2],
    target: Union[FormalGroupLaw, Series2],
) -> CheckResult:
    """Check phi(F(z0,z1)) == G(phi(z0), phi(z1)) to the common order."""
    F = _law_series(source)
    G = _law_series(target)
    n = min(F.order, G.order, phi.order)
    F = F.truncate(n)
    G = G.truncate(n)
    phi = phi.truncate(n)
    lhs = compose1_2(phi, F)
    rhs = G.compose(phi, phi)
    defect = _first_defect2(lhs - rhs)
    return CheckResult.ok() if defect is None else CheckResult.fail(*defect)


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


def mobius_sweep(order: int = 12) -> "list[dict]":
    """Adjudicate the candidate coordinate change for the deformation law.

    For each reading of the fractional-linear action (row/column, matrix or
    its inverse) the candidate phi(z) = (1+t)^{-1} log w(z) is tested as a
    strict isomorphism from the deformation law onto each of three targets.
    The scale (1+t)^{-1} is handled by clearing denominators: for a target
    y0 + y1 + m*y0*y1 the identity is (1+t) L(F) == (1+t)(L0 + L1) + m L0 L1,
    with L = log of the (unit-normalized) Moebius image.  Each record also
    notes whether the Moebius image needed normalizing (w(0) != 1) and
    whether phi is strict (phi'(0) == 1, i.e. L'(0) == 1+t).
    """
    t = RingElement.gen("t")
    c_scale = 1 + t
    F = catalog("kontsevich", order).F
    records = []
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
            defect = _first_defect2(lhs - rhs)
            records.append(
                {
                    "convention": conv_name,
                    "target": target_name,
                    "normalized_unit": normalized,
                    "strict_linear_term": strict,
                    "status": "PASS" if defect is None else "FAIL",
                    "fail_degree": None if defect is None else defect[0],
                }
            )
    return records
