"""Hirzebruch genera: characteristic series, projective-space evaluation,
the reciprocal-Gamma genus in both presentations, the quaternionic agreement
with the A-hat genus, the Witten q-deformation, and the universal lift over
the elementary symmetric generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from genusforge.check import CheckResult, first_defect
from genusforge.fgl import (
    CATALOG,
    EXPONENTIALS,
    catalog,
    exponential,
    gamma_exponential,
    gaussian_bracket,
    logarithm,
    sinh_exponential,
)
from genusforge.ring import (
    RingElement,
    bernoulli,
    euler_gamma,
    zeta_numeric,
    zeta_tilde_even,
)
from genusforge.series import Series1, exp_series, log_series, sqrt_series
from genusforge.symfun import (
    SymPoly,
    convert,
    multiplicative_sequence,
    power_sum_over,
    series_product_over_alphabet,
    zeta_specialize,
)

__all__ = [
    "GENUS_SERIES",
    "GenusSeries",
    "IncompleteChernTableError",
    "InsufficientOrderError",
    "ManifoldDescriptor",
    "WittenSeries",
    "ahat_pontryagin_identity",
    "chi_rescaled_check",
    "conjugation_equivariance_check",
    "cpn_chern_numbers",
    "gamma_series",
    "genus_cpn",
    "genus_of",
    "genus_series",
    "genus_table",
    "hodge_chi_check",
    "mishchenko_check",
    "msp_agreement_check",
    "normalized_gamma_report",
    "numeric_gamma_validation",
    "partitions",
    "universal_gamma",
    "witten_series",
    "zeta_map_report",
]

_ZERO = RingElement.zero()
_ONE = RingElement.one()


class InsufficientOrderError(ValueError):
    """The series order is too small for the requested evaluation."""


class IncompleteChernTableError(ValueError):
    """A Chern-number table does not cover exactly the partitions of d."""


@dataclass(frozen=True)
class GenusSeries:
    """A multiplicative characteristic series H with its exponential.

    Invariant: H(z) * exp(z) == z to the common order (checked on build).
    """

    H: Series1
    exp: Series1
    name: str
    presentation: str = "raw"

    def __post_init__(self):
        n = self.H.order
        if not self.H[0].is_one():
            raise ValueError("characteristic series must start at 1")
        if (self.H * self.exp.truncate(n)) != Series1.x(n):
            raise ValueError(f"H * exp != z for genus series {self.name!r}")

    @property
    def order(self) -> int:
        return self.H.order


def _series_from_exponential(
    exp_full: Series1, order: int, name: str, presentation: str = "raw"
) -> GenusSeries:
    """Build H = z / exp from an exponential known to order `order + 1`."""
    if exp_full.order < order + 1:
        raise InsufficientOrderError(
            f"need exponential to order {order + 1}, have {exp_full.order}"
        )
    shifted = Series1(exp_full.coefficients()[1:], order)
    H = Series1.constant(1, order) / shifted
    return GenusSeries(H=H, exp=exp_full.truncate(order), name=name, presentation=presentation)


GENUS_SERIES = ("todd", "ahat") + CATALOG


def half_sinh_ratio(order: int) -> Series1:
    """The rational series (z/2) / sinh(z/2)."""
    return genus_series("ahat", order).H


def genus_series(name: str, order: int, presentation: Optional[str] = None) -> GenusSeries:
    """Catalog of characteristic series: todd, ahat, gamma (raw/normalized),
    or any formal-group-law name (series derived from its exponential).

    The exponential of a law in fgl.EXPONENTIALS is read from that table, so
    no bivariate law is built; only the closed-form laws go through catalog.
    Every name in GENUS_SERIES takes every order >= 0.  A presentation, if
    given, selects the gamma series ('raw' or 'normalized'); for every other
    name it must be that series' own ('normalized' for gamma_normalized,
    'raw' for the rest).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    name = name.replace("-", "_")
    if name == "gamma":
        name = "gamma_normalized" if presentation == "normalized" else "gamma_raw"
    if name not in GENUS_SERIES:
        raise ValueError(f"unknown genus series {name!r}")
    pres = "normalized" if name.endswith("normalized") else "raw"
    if presentation not in (None, pres):
        raise ValueError(f"genus series {name!r} has no {presentation!r} presentation")
    if name == "todd":
        exp_full = Series1(
            [Fraction((-1) ** (k + 1), math.factorial(k)) if k else 0 for k in range(order + 2)],
            order + 1,
        )
    elif name == "ahat":
        exp_full = sinh_exponential(order + 1)
    elif name in EXPONENTIALS:
        exp_full = EXPONENTIALS[name](order + 1)
    else:
        exp_full = exponential(catalog(name, max(order + 1, 2)))
    return _series_from_exponential(exp_full, order, name, pres)


def gamma_series(order: int, presentation: str = "raw") -> GenusSeries:
    """The reciprocal-Gamma characteristic series; H(z) is the expansion of
    Gamma(1+z) in the raw presentation, and its period-rescaled, even-zeta
    reduced form in the normalized one."""
    return genus_series("gamma", order, presentation)


# -- genus evaluation -----------------------------------------------------------


def genus_cpn(g: GenusSeries, n: int) -> RingElement:
    """The genus of CP^n: the z^n coefficient of H(z)^(n+1).

    CP^n has tangent Chern roots equal to n+1 copies of the hyperplane
    class, and pairing with the fundamental class extracts z^n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if g.H.order < n:
        raise InsufficientOrderError(f"series order {g.H.order} < n = {n}")
    return (g.H.truncate(n) ** (n + 1))[n]


def mishchenko_check(g: GenusSeries, N: Optional[int] = None) -> CheckResult:
    """log(v) == sum_{n>=1} genus(CP^{n-1}) v^n / n, coefficientwise."""
    if N is None:
        N = g.order
    if g.order < N:
        raise InsufficientOrderError(f"series order {g.order} < N = {N}")
    log = g.exp.truncate(N).revert()
    return first_defect(
        (n, log[n] - genus_cpn(g, n - 1) * Fraction(1, n)) for n in range(1, N + 1)
    )


def partitions(d: int) -> "list[tuple[int, ...]]":
    """All partitions of d as non-increasing tuples ((), for d = 0)."""
    if d == 0:
        return [()]
    out = []

    def rec(remaining: int, biggest: int, prefix: "tuple[int, ...]"):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, biggest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(d, d, ())
    return out


def _partition_count(d: int) -> int:
    """p(d) by the recurrence over the largest part, without listing partitions."""
    p = [1] + [0] * d
    for part in range(1, d + 1):
        for m in range(part, d + 1):
            p[m] += p[m - part]
    return p[d]


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Either a product of complex projective spaces or a Chern-number table."""

    projective: "Optional[tuple[int, ...]]" = None
    chern_dim: Optional[int] = None
    chern: "Optional[Mapping[tuple[int, ...], Fraction]]" = None

    def __post_init__(self):
        if self.chern is not None and self.chern_dim is not None:
            _check_chern_table(self.chern_dim, set(self.chern))

    @staticmethod
    def projective_product(dims: Sequence[int]) -> "ManifoldDescriptor":
        return ManifoldDescriptor(projective=tuple(int(n) for n in dims))

    @staticmethod
    def from_chern(d: int, table: "Mapping[tuple[int, ...], Union[int, Fraction]]") -> "ManifoldDescriptor":
        clean = {
            tuple(sorted((int(k) for k in key), reverse=True)): Fraction(v)
            for key, v in table.items()
        }
        return ManifoldDescriptor(chern_dim=int(d), chern=clean)


def _check_chern_table(d: int, keys: "set[tuple[int, ...]]") -> None:
    """Reject keys that are not exactly the partitions of d: weights and the
    count p(d) first, so a bad table is rejected before listing partitions."""
    if (
        any(sum(key) != d for key in keys)
        or len(keys) != _partition_count(d)
        or keys != set(partitions(d))
    ):
        raise IncompleteChernTableError(
            f"chern table keys {sorted(keys)} != partitions of {d}"
        )


def cpn_chern_numbers(n: int) -> "dict[tuple[int, ...], Fraction]":
    """Chern numbers of CP^n from c(T) = (1 + x)^(n+1): c_lambda = prod C(n+1, l_i)."""
    out = {}
    for lam in partitions(n):
        val = 1
        for part in lam:
            val *= math.comb(n + 1, part)
        out[lam] = Fraction(val)
    return out


def _split_chern(mono) -> "tuple[tuple[int, ...], tuple]":
    """A monomial's Chern classes as a partition, and its other factors."""
    parts: "list[int]" = []
    rest = []
    for name, e in mono:
        if name[0] == "c" and name[1:].isdigit():
            parts.extend([int(name[1:])] * e)
        else:
            rest.append((name, e))
    return tuple(sorted(parts, reverse=True)), tuple(rest)


def genus_of(g: GenusSeries, M: ManifoldDescriptor) -> RingElement:
    """Evaluate the genus on a manifold descriptor.

    Projective products use multiplicativity; Chern tables pair the weight-d
    Hirzebruch polynomial K_d with the supplied Chern numbers.
    """
    if M.projective is not None:
        out = _ONE
        for n in M.projective:
            out = out * genus_cpn(g, n)
        return out
    if M.chern_dim is None or M.chern is None:
        raise ValueError("descriptor carries neither projective nor chern data")
    d = M.chern_dim
    if d == 0:  # K_0 = 1 pairs with the point count c_()
        return RingElement.from_rational(M.chern[()])
    if g.H.order < d:
        raise InsufficientOrderError(f"series order {g.H.order} < dim = {d}")
    K = multiplicative_sequence(g.H, d)[d - 1]
    total = _ZERO
    for mono, coeff in K.poly.terms():
        lam, rest = _split_chern(mono)
        total = total + RingElement({rest: coeff}) * M.chern[lam]
    return total


def genus_table(
    name: str, max_n: int, presentation: Optional[str] = None
) -> "dict[str, object]":
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    g = genus_series(name, max_n, presentation)
    rows = [{"n": n, "value": genus_cpn(g, n).to_obj()} for n in range(1, max_n + 1)]
    return {"series": g.name, "rows": rows}


# -- the reciprocal-Gamma genus ----------------------------------------------------


def normalized_gamma_report(order: int = 10) -> CheckResult:
    """Structural checks for the normalized presentation.

    Verifies the linear term is -gamma/ipi2, that the even part of H is the
    square root of (x/2)/sinh(x/2), and records which sign of the odd
    zeta sum matches the direct expansion (the classical closed form carries
    a plus sign; the expansion of Gamma(1+z) under z -> x/ipi2 gives minus).
    """
    g = gamma_series(order, "normalized")
    H = g.H
    lin_expected = RingElement.gen("gamma", coeff=-1) * RingElement.gen("ipi2", -1)
    linear = CheckResult.from_flag(H[1] == lin_expected)

    # The "even part" of the sqrt-times-exponential factorization is exp(even part of
    # log H), not the even-coefficient slice of H itself.
    logH = log_series(H)
    log_even = Series1([logH[k] if k % 2 == 0 else _ZERO for k in range(order + 1)], order)
    log_odd = logH - log_even
    even_factor = exp_series(log_even)
    sqrt_target = sqrt_series(half_sinh_ratio(order))
    even = CheckResult.from_flag(even_factor == sqrt_target)

    plus_display = Series1(
        [
            RingElement.gen(f"zeta{k}", coeff=Fraction(1, k)) * RingElement.gen("ipi2", -k)
            if (k % 2 == 1 and k >= 3)
            else _ZERO
            for k in range(order + 1)
        ],
        order,
    )
    gamma_term = Series1.x(order) * lin_expected
    if log_odd == gamma_term + plus_display:
        odd_sign = "plus-sign convention matches expansion"
    elif log_odd == gamma_term - plus_display:
        odd_sign = "expansion carries minus; the plus-sign convention does not match"
    else:
        odd_sign = "neither sign matches"
    return CheckResult.from_flag(
        linear.passed and even.passed and "neither" not in odd_sign,
        linear_term=linear.status,
        even_part_is_sqrt_sinh=even.status,
        odd_sum_sign=odd_sign,
    )


def _roots_pm(m: int) -> "list[RingElement]":
    out = []
    for i in range(1, m + 1):
        r = RingElement.gen(f"x{i}")
        out.extend([r, -r])
    return out


def _even_zeta_exponential(order: int) -> Series1:
    """exp(sum_j zeta(2j) x^(2j) / j): the raw even-zeta expansion of
    Gamma(1+x)Gamma(1-x)."""
    arg = [_ZERO] * (order + 1)
    for j in range(1, order // 2 + 1):
        arg[2 * j] = RingElement.gen(f"zeta{2 * j}", coeff=Fraction(1, j))
    return exp_series(Series1(arg, order))


def msp_agreement_check(order: int, m: int, mutant: bool = False) -> CheckResult:
    """Conjugated product of Gamma series against the A-hat series.

    Layer 1 (raw): Pi H(x_i) H(-x_i) equals the even-zeta exponential per
    root: gamma and odd zeta content cancels identically.  Layer 2
    (normalized): the same product with reduced coefficients equals
    Pi (x_i/2)/sinh(x_i/2) exactly.  The mutant variant squares H instead of
    conjugating and must fail at weight 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    g_raw = gamma_series(order, "raw")
    roots = [RingElement.gen(f"x{i}") for i in range(1, m + 1)]
    if mutant:
        alphabet = [r for r in roots for _ in range(2)]
    else:
        alphabet = _roots_pm(m)
    lhs = series_product_over_alphabet(g_raw.H, alphabet, order)
    target = _even_zeta_exponential(order)
    raw = lhs - series_product_over_alphabet(target, roots, order)
    defect = first_defect(raw.items(), "raw layer")
    if not defect.passed:
        return defect

    stray = sorted(
        name
        for name in set().union(*(c.generators() for c in lhs.coefficients()))
        if name == "gamma" or (name.startswith("zeta") and int(name[4:]) % 2 == 1)
    )
    if stray:
        return CheckResult.fail(detail=f"gamma/odd-zeta content survived: {stray}")

    g_norm = gamma_series(order, "normalized")
    lhs_norm = series_product_over_alphabet(g_norm.H, alphabet, order)
    rhs_norm = series_product_over_alphabet(half_sinh_ratio(order), roots, order)
    normalized = (lhs_norm - rhs_norm).map_coefficients(RingElement.reduce)
    return first_defect(normalized.items(), "normalized layer")


def ahat_pontryagin_identity(order: int, m: int) -> CheckResult:
    """Pi (x_i/2)/sinh(x_i/2) == exp(-sum_k B_2k/(2k)! s^SO_2k/(4k)) with
    s^SO_2k the power sums of the doubled alphabet {x_i, -x_i}; also pins the
    k=1 exponent coefficient to zeta~(2)/2 = -1/48.  The exponent is graded
    by root degree, s^SO_2k at index 2k."""
    if m < 1:
        raise ValueError("m must be >= 1")
    roots = [RingElement.gen(f"x{i}") for i in range(1, m + 1)]
    lhs = series_product_over_alphabet(half_sinh_ratio(order), roots, order)
    arg = [_ZERO] * (order + 1)
    for k in range(1, order // 2 + 1):
        s_so = power_sum_over(roots, 2 * k) * 2
        arg[2 * k] = s_so * (-bernoulli(2 * k) / (math.factorial(2 * k) * 4 * k))
    diff = lhs - exp_series(Series1(arg, order))
    defect = first_defect(diff.items(), "pontryagin identity")
    if not defect.passed:
        return defect
    k1 = -bernoulli(2) / (math.factorial(2) * 4)
    if k1 != zeta_tilde_even(1) / 2 or k1 != Fraction(-1, 48):
        return CheckResult.fail(detail=f"k=1 coefficient {k1} != -1/48")
    return CheckResult.ok()


# -- the Witten q-deformation ---------------------------------------------------------


def _sigma(j: int, n: int) -> int:
    return sum(d**j for d in range(1, n + 1) if n % d == 0)


def _qtrunc(f: RingElement, q_order: int) -> RingElement:
    return f.truncate_gen("q", q_order)


@dataclass(frozen=True)
class WittenSeries:
    """The q-deformed A-hat series, with its logarithm from the divisor sums.

    H is the defining infinite product; log_H is assembled independently
    from the explicit expansion of -log(1 - q^n e^(+-x)); exp(log_H) == H is
    checked on construction, tying the two routes together.
    """

    x_order: int
    q_order: int
    H: Series1
    log_H: Series1

    @staticmethod
    def _q_slice(elem: RingElement, q_pow: int) -> Fraction:
        for mono, c in elem.terms():
            if dict(mono).get("q", 0) == q_pow and all(n == "q" for n, _ in mono):
                return c
        return Fraction(0)

    def coefficient(self, x_pow: int, q_pow: int) -> Fraction:
        """The rational [x^a q^b] coefficient of the series."""
        return self._q_slice(self.H[x_pow], q_pow)

    def log_coefficient(self, x_pow: int, q_pow: int) -> Fraction:
        """The rational [x^a q^b] coefficient of log H."""
        return self._q_slice(self.log_H[x_pow], q_pow)

    def evenness_check(self) -> CheckResult:
        return first_defect((k, self.H[k]) for k in range(1, self.x_order + 1, 2))

    def q0_check(self) -> CheckResult:
        """The q = 0 slice is the rational A-hat characteristic series."""
        target = half_sinh_ratio(self.x_order)
        slice0 = self.H.map_coefficients(lambda c: c.truncate_gen("q", 0))
        return (
            CheckResult.ok()
            if slice0 == target
            else CheckResult.fail(detail="q=0 slice differs from A-hat series")
        )

    def eisenstein_coefficient(self, k: int) -> RingElement:
        """G_2k(q) normalized by the period: 2k times the x^2k log coefficient."""
        if k < 1 or 2 * k > self.x_order:
            raise ValueError("need 1 <= k and 2k <= x_order")
        return 2 * k * self.log_H[2 * k]

    def divisor_check(self, k: int) -> CheckResult:
        """G_2k(q) == 2 zeta~(2k) + (4k/(2k)!) sum sigma_{2k-1}(n) q^n.

        The constant term comes from the sinh factor of the product, which
        contributes zeta~(2k)/k at x^2k.
        """
        got = self.eisenstein_coefficient(k)
        expected = RingElement.from_rational(2 * zeta_tilde_even(k))
        scale = Fraction(4 * k, math.factorial(2 * k))
        for n in range(1, self.q_order + 1):
            expected = expected + RingElement.gen("q", n, coeff=scale * _sigma(2 * k - 1, n))
        return (
            CheckResult.ok()
            if got == expected
            else CheckResult.fail(2 * k, got - expected)
        )


def witten_series(x_order: int, q_order: int) -> WittenSeries:
    """The series (x/2)/sinh(x/2) * Pi_n [(1-q^n e^x)(1-q^n e^-x)]^(-1)
    truncated at the given x and q orders."""
    if x_order < 2 or q_order < 2:
        raise ValueError("x_order and q_order must be >= 2")
    H = half_sinh_ratio(x_order)
    q = RingElement.gen("q")
    exp_x = {j: exp_series(Series1.x(x_order) * Fraction(j)) for j in range(q_order + 1)}
    exp_mx = {j: exp_series(Series1.x(x_order) * Fraction(-j)) for j in range(q_order + 1)}
    for n in range(1, q_order + 1):
        for table in (exp_x, exp_mx):
            factor = Series1.constant(1, x_order)
            j = 1
            while n * j <= q_order:
                factor = factor + table[j] * RingElement.gen("q", n * j)
                j += 1
            H = (H * factor).map_coefficients(lambda c: _qtrunc(c, q_order))

    log_H = log_series(half_sinh_ratio(x_order))
    extra = [_ZERO] * (x_order + 1)
    for mtot in range(1, q_order + 1):
        for j in range(1, mtot + 1):
            if mtot % j:
                continue
            qc = RingElement.gen("q", mtot, coeff=Fraction(1, j))
            for k in range(0, x_order + 1, 2):
                # (e^{jx} + e^{-jx}) x^k coefficient: 2 j^k / k!
                if k == 0:
                    extra[0] = extra[0] + 2 * qc
                else:
                    extra[k] = extra[k] + qc * Fraction(2 * j**k, math.factorial(k))
    log_H = log_H + Series1(extra, x_order)

    w = WittenSeries(x_order=x_order, q_order=q_order, H=H, log_H=log_H)
    recon = _exp_mixed(log_H, q_order)
    if recon != H:
        raise AssertionError("product route and Eisenstein route disagree")
    return w


def _exp_mixed(L: Series1, q_order: int) -> Series1:
    """exp of a series vanishing at (x, q) = (0, 0), with q truncation."""
    n = L.order
    out = Series1.constant(1, n)
    term = Series1.constant(1, n)
    for j in range(1, n + q_order + 2):
        term = (term * L).map_coefficients(lambda c: _qtrunc(c, q_order)) * Fraction(1, j)
        if term.is_zero():
            break
        out = out + term
    return out


# -- the universal lift -----------------------------------------------------------------


def universal_gamma(order: int) -> "dict[str, CheckResult]":
    """The lift over Z[e_n]: H coefficients are the complete symmetric
    functions, the law is integral, and the zeta specialization recovers the
    reciprocal-Gamma data."""
    g = genus_series("universal_additive", order)
    report: "dict[str, CheckResult]" = {}

    # g.H[k] (-1)^k is the coefficient of (-z)^k
    report["h_in_e"] = first_defect(
        (k, g.H[k] * Fraction((-1) ** k) - convert(SymPoly.h(k), "E").poly)
        for k in range(1, order + 1)
    )

    gamma_exp = gamma_exponential(order)
    specialized = [
        zeta_specialize(SymPoly("E", c), "raw") if not c.is_zero() else _ZERO
        for c in g.exp.coefficients()
    ]
    report["specializes_to_gamma"] = first_defect(
        (k, s - gamma_exp[k]) for k, s in enumerate(specialized)
    )

    law_order = min(order, 8)
    law = catalog("universal_additive", law_order)
    integral: CheckResult = CheckResult.ok()
    for (i, j), c in law.F.items():
        for mono, coeff in c.terms():
            bad_gen = any(not (n[0] == "e" and n[1:].isdigit()) for n, _ in mono)
            if coeff.denominator != 1 or bad_gen:
                integral = CheckResult.fail(i + j, c, detail=f"coefficient ({i},{j})")
                break
        if not integral.passed:
            break
    report["law_integral"] = integral
    return report


# -- rescaled quantum-integer law ----------------------------------------------------------


def chi_rescaled_check(order: int) -> CheckResult:
    """Logarithm coefficients are [n](t)/n, the law is u <-> 1/u invariant,
    and the sign of the mixed term relative to the +(u + 1/u) presentation
    is recorded."""
    law = catalog("chi_rescaled", order)
    L = logarithm(law)
    log_check = first_defect(
        (n, L[n] - gaussian_bracket(n) * Fraction(1, n)) for n in range(1, order + 1)
    )
    inv = law.F.map_coefficients(
        lambda c: c.substitute({"u": RingElement.gen("u", -1)})
    )
    inv_check = CheckResult.ok() if inv == law.F else CheckResult.fail(detail="u -> 1/u")
    mixed = law.F[(1, 1)]
    plus_form = RingElement.gen("u") + RingElement.gen("u", -1)
    if mixed == plus_form:
        sign_note = "law mixed term matches +(u + 1/u)"
    elif mixed == -plus_form:
        sign_note = (
            "law mixed term is -(u + 1/u): the Mishchenko-positive logarithm "
            "forces the sign opposite to the +(u + 1/u) presentation (u -> -u image)"
        )
    else:
        sign_note = f"unexpected mixed term {mixed}"
    return CheckResult.from_flag(
        log_check.passed and inv_check.passed,
        logarithm=log_check,
        involution=inv_check,
        mixed_term_sign=sign_note,
    )


# -- conjugation equivariance ------------------------------------------------------------


def conjugation_equivariance_check(n_max: int) -> CheckResult:
    """conjugate(genus(CP^n)) equals the genus from the conjugated
    orientation exponential -exp(-x), for the normalized presentation."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    g = gamma_series(n_max, "normalized")
    exp_full = gamma_exponential(n_max + 1, normalized=True)
    conj_exp = Series1(
        [exp_full[k] * Fraction((-1) ** (k + 1)) for k in range(n_max + 2)], n_max + 1
    )
    g_conj = _series_from_exponential(conj_exp, n_max, "gamma_conjugate", "normalized")
    return first_defect(
        (n, genus_cpn(g, n).conjugate().reduce() - genus_cpn(g_conj, n).reduce())
        for n in range(1, n_max + 1)
    )


# -- numeric validation ----------------------------------------------------------------------


def numeric_gamma_validation(
    z0: Union[Fraction, float],
    order: int = 20,
    tolerance: float = 1e-10,
) -> CheckResult:
    """Truncated exponential of the reciprocal Gamma function against the
    stdlib Gamma as an independent oracle."""
    if order < 10:
        raise ValueError("order must be >= 10")
    z0 = Fraction(z0)
    if abs(z0) > Fraction(1, 2):
        raise ValueError("|z0| must be <= 1/2")
    series = gamma_exponential(order)
    value = series.evaluate(complex(float(z0)))
    target = 0.0 if z0 == 0 else 1.0 / math.gamma(float(z0))
    residual = abs(value - target)
    return CheckResult.from_flag(
        residual < tolerance, z0=str(z0), order=order, tolerance=tolerance, residual=residual
    )


# -- Hodge comparison for the deformation law --------------------------------------------------


def hodge_chi_minus_t(n: int) -> RingElement:
    """The Hodge-theoretic chi_{-t} of CP^n: sum_{q<=n} t^q (h^{p,q} = delta_pq)."""
    out = _ONE
    for qq in range(1, n + 1):
        out = out + RingElement.gen("t", qq)
    return out


def hodge_chi_check(n_max: int) -> CheckResult:
    """Deformation-law genus of CP^n against Hodge chi_{-t}, recording the
    empirical (-1)^n orientation sign."""
    g = genus_series("kontsevich", n_max)
    return first_defect(
        ((n, genus_cpn(g, n) - hodge_chi_minus_t(n) * ((-1) ** n)) for n in range(n_max + 1)),
        sign_convention="genus(CP^n) = (-1)^n * (1 + t + ... + t^n)",
    )


# -- section 3.2 sign bookkeeping --------------------------------------------------------------


def zeta_map_report(k_max: int = 3) -> CheckResult:
    """Record how the even/odd zeta-value displays compare with the exponent
    coefficients derived from direct expansion.

    The true exponent coefficient of the doubled-alphabet power sum s^SO_2k
    in Pi (x/2)/sinh(x/2) is zeta~(2k)/(2k) = -B_2k/(4k (2k)!); the even map
    +B_2k/(4k(2k)!) is its negative.  The odd map
    (-1)^(k+1) (2 pi)^(-2k-1) zeta(2k+1) i agrees with zeta~(2k+1) exactly,
    checked numerically to 12 digits.
    """
    report: "dict[str, str]" = {}
    even_match = all(
        zeta_tilde_even(k) / (2 * k) == -bernoulli(2 * k) / (4 * k * math.factorial(2 * k))
        for k in range(1, k_max + 1)
    )
    report["exponent_coefficient"] = (
        "zeta~(2k)/(2k) = -B_2k/(4k(2k)!)" if even_match else "MISMATCH"
    )
    report["even_map_sign"] = "opposite sign to the exponent coefficient"
    odd_ok = True
    for k in range(1, k_max + 1):
        lhs = (
            RingElement.gen(f"zeta{2 * k + 1}") * RingElement.gen("ipi2", -(2 * k + 1))
        ).evaluate()
        rhs = (
            (-1) ** (k + 1)
            * math.tau ** (-(2 * k + 1))
            * zeta_numeric(2 * k + 1)
            * 1j
        )
        if abs(lhs - rhs) > 1e-12:
            odd_ok = False
    report["odd_map_sign"] = (
        "matches zeta~(2k+1) to 12 digits" if odd_ok else "MISMATCH"
    )
    s1 = (RingElement.gen("gamma") * RingElement.gen("ipi2", -1)).evaluate()
    s1_display = -(euler_gamma() / math.tau) * 1j
    report["s1_map_sign"] = (
        "matches -gamma i / (2 pi)" if abs(s1 - s1_display) < 1e-12 else "MISMATCH"
    )
    return CheckResult.from_flag(even_match and odd_ok, **report)
