"""Symmetric functions in the elementary / complete / power-sum bases.

One engine, exp_of_power_sums, serves every product over an alphabet: with
log H(t) = sum_k b_k t^k and s_k the alphabet's power sums, Pi_a H(a t) =
exp(sum_k b_k s_k t^k) (Hirzebruch, Topological Methods in Algebraic
Geometry, sec. 1).  Basis conversions are its instances H = 1 + t and
H = 1 / (1 - t), with the duality between them:

    sum_k e_k z^k = exp(sum_n (-1)^(n+1) s_n z^n / n),
    sum_k h_k z^k = exp(sum_n s_n z^n / n),
    (sum_k h_k z^k) * (sum_k e_k (-z)^k) = 1,

and so are products over explicit roots and Hirzebruch multiplicative
sequences (s_k in the Chern classes by Newton's identity).  Root expansions
over x_1..x_m, the independent oracle for all of it, live in the test
oracles; the root polynomials kept here serve the symplectic check and the
e-basis rewriting below.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from genusforge.check import CheckResult, first_defect
from genusforge.ring import RingElement, _monomial_weight
from genusforge.series import InsufficientOrderError, Series1, exp_series, log_series

__all__ = [
    "OddContentError",
    "NotSymmetricError",
    "convert",
    "exp_of_power_sums",
    "multiplicative_sequence",
    "pontryagin_from_chern",
    "power_sum_over",
    "series_product_over_alphabet",
    "symmetric_in_elementary",
    "symplectic_power_sum_check",
    "truncate_roots",
    "zeta_specialize",
]

_ZERO = RingElement.zero()
_ONE = RingElement.one()

_BASIS_PREFIX = {"E": "e", "H": "h", "P": "s"}


class OddContentError(ValueError):
    """An odd power sum survived where only even content is allowed."""


class NotSymmetricError(ValueError):
    """A root polynomial fed to the basis converter is not symmetric."""


# -- basis conversion tables ----------------------------------------------------


def _gen_series(prefix: str, degree: int, sign: int = 1) -> Series1:
    """1 + sum_k sign^k g_k z^k for the generators g_k = prefix + k."""
    gens = [RingElement.gen(f"{prefix}{k}", coeff=sign**k) for k in range(1, degree + 1)]
    return Series1([_ONE] + gens, degree)


def _conversion_table(src: str, dst: str, degree: int) -> "dict[str, RingElement]":
    """Express src-basis generators up to `degree` in the dst basis (src != dst)."""
    if degree < 1:
        return {}
    names = [f"{_BASIS_PREFIX[src]}{k}" for k in range(1, degree + 1)]
    if dst == "P":
        # E(z) = exp(sum (-1)^(n+1) s_n z^n / n), H(z) = exp(sum s_n z^n / n)
        b = [0] + [Fraction((-1) ** (n + 1) if src == "E" else 1, n) for n in range(1, degree + 1)]
        sums = [RingElement.gen(f"s{n}") for n in range(1, degree + 1)]
        series = exp_of_power_sums(b, sums, degree)
        return {name: series[k] for k, name in enumerate(names, 1)}
    if src == "P":
        # the inverse: s_k = k [z^k] log H(z) = (-1)^(k+1) k [z^k] log E(z)
        lg = log_series(_gen_series(_BASIS_PREFIX[dst], degree))
        signs = [(-1) ** (k + 1) if dst == "E" else 1 for k in range(degree + 1)]
        return {name: lg[k] * (signs[k] * k) for k, name in enumerate(names, 1)}
    # E(z) * H(-z) = 1, so each of E, H is the reciprocal of the other at -z
    inv = Series1.constant(1, degree) / _gen_series(_BASIS_PREFIX[dst], degree, -1)
    return {name: inv[k] for k, name in enumerate(names, 1)}


def _basis(x: RingElement) -> "tuple[str, int]":
    """The first of the bases E, H, P in whose generators x is a rational
    polynomial (a rational is in each), and the degree of x, its largest
    monomial weight.  ValueError if there is none: e and h mixed, or another
    generator such as zeta3 or epsilon."""
    for basis, prefix in _BASIS_PREFIX.items():
        parts = x.split(prefix)
        if all(c.as_rational() is not None for c in parts.values()):
            return basis, max(map(_monomial_weight, parts), default=0)
    raise ValueError(f"{x} mixes bases or has a generator outside e_k, h_k and s_k")


def convert(x: RingElement, target: str) -> RingElement:
    """Rewrite x, a rational polynomial in e_k, h_k or s_k, in the target
    basis E, H or P; mutually inverse across all pairs."""
    target = target.upper()
    if target not in _BASIS_PREFIX:
        raise ValueError(f"unknown basis {target!r}")
    basis, degree = _basis(x)
    if target == basis:
        return x
    return x.substitute(_conversion_table(basis, target, degree))


# -- root polynomials ------------------------------------------------------------


def _roots(m: int) -> "list[RingElement]":
    return [RingElement.gen(f"x{i}") for i in range(1, m + 1)]


def elementary_in_roots(k: int, m: int) -> RingElement:
    """e_k(x_1..x_m), the z^k coefficient of Pi (1 + x_i z)."""
    return series_product_over_alphabet(Series1([1, 1], k), _roots(m), k)[k]


def power_sum_over(alphabet: Sequence[RingElement], k: int) -> RingElement:
    """The power sum of an explicit alphabet of ring elements."""
    return RingElement.dot((a**k, 1) for a in alphabet)


# -- symmetric root polynomials back to the e-basis --------------------------------


def _split_roots(f: RingElement, m: int):
    """Split into {root exponent vector: coefficient free of roots}."""
    table: "dict[tuple[int, ...], RingElement]" = {}
    for mono, c in f.split("x").items():
        exps = [0] * m
        for name, e in mono:
            i = int(name[1:])
            if i > m:
                raise ValueError(f"root {name} outside x1..x{m}")
            exps[i - 1] = e
        table[tuple(exps)] = c
    return table


def truncate_roots(f: RingElement, cap: int) -> RingElement:
    """Drop monomials of root degree greater than cap.

    The library no longer calls this (an alphabet product is an exponential
    of power sums, exp_of_power_sums); it is kept because the benchmark
    tracer wraps it by name, and the test oracle for alphabet products uses it.
    """
    parts = f.split("x").items()
    return RingElement.dot((RingElement({m: 1}), c) for m, c in parts if sum(e for _, e in m) <= cap)


def symmetric_in_elementary(f: RingElement, m: int, out_prefix: str = "e") -> RingElement:
    """Rewrite a symmetric polynomial in x_1..x_m as a polynomial in e_k.

    Classical leading-term elimination: subtract coeff * e_1^(a1-a2) *
    e_2^(a2-a3) * ... for the lex-leading exponent a, which strictly
    decreases the leading term.  Coefficients may involve other generators;
    when they themselves contain e-generators (the universal coefficient
    ring), pass a different out_prefix to keep the alphabets apart.
    Raises NotSymmetricError when the leading exponent is not sorted.

    The library no longer calls this (pontryagin_from_chern takes input in
    e_k, h_k or s_k only); it is kept because the benchmark tracer wraps it by name,
    and the test oracle for multiplicative sequences uses it.
    """
    remaining = _split_roots(f, m)
    result = _ZERO
    expanded_cache: "dict[tuple[int, ...], dict[tuple[int, ...], RingElement]]" = {}
    while remaining:
        lead = max(remaining)
        coeff = remaining[lead]
        if any(lead[i] < lead[i + 1] for i in range(m - 1)):
            raise NotSymmetricError(f"leading exponent {lead} is not dominant")
        lam = tuple(
            lead[i] - (lead[i + 1] if i + 1 < m else 0) for i in range(m)
        )
        emono = _ONE
        for i, a in enumerate(lam):
            if a:
                emono = emono * RingElement.gen(f"{out_prefix}{i + 1}", a)
        if lam not in expanded_cache:
            expansion = _ONE
            for i, a in enumerate(lam):
                if a:
                    expansion = expansion * elementary_in_roots(i + 1, m) ** a
            expanded_cache[lam] = _split_roots(expansion, m)
        for key, v in expanded_cache[lam].items():
            remaining[key] = remaining.get(key, _ZERO) - coeff * v
            if remaining[key].is_zero():
                del remaining[key]
        result = result + coeff * emono
    return result


# -- zeta specialization ------------------------------------------------------------


def zeta_specialize(x: RingElement, presentation: str = "raw") -> RingElement:
    """Send s_1 to gamma and s_k to zeta(k); normalized variant divides by
    the k-th power of the period and reduces even zetas to rationals."""
    if presentation not in ("raw", "normalized"):
        raise ValueError("presentation must be 'raw' or 'normalized'")
    p = convert(x, "P")
    table: "dict[str, RingElement]" = {}
    for name in p.generators():
        k = int(name[1:])
        if k == 1:
            value = RingElement.gen("gamma")
        else:
            value = RingElement.gen(f"zeta{k}")
        if presentation == "normalized":
            value = value * RingElement.gen("ipi2", -k)
        table[name] = value
    out = p.substitute(table)
    return out.reduce() if presentation == "normalized" else out


# -- Pontryagin rewriting --------------------------------------------------------------


def pontryagin_from_chern(f: RingElement) -> RingElement:
    """Rewrite an even symmetric expression as a polynomial in p_k = e_k(x_i^2).

    Power sums become the squared-alphabet power sums s_{2k} -> s_k,
    the generic converter turns those into elementary symmetric functions,
    and the result is read off in Pontryagin generators.  Raises
    OddContentError when an odd power sum survives.
    """
    p = convert(f, "P")
    squared: "dict[str, RingElement]" = {}
    for name in p.generators():
        k = int(name[1:])
        if k % 2:
            raise OddContentError(f"odd power sum s{k} present")
        squared[name] = RingElement.gen(f"s{k // 2}")
    in_e = convert(p.substitute(squared), "E")
    rename = {name: RingElement.gen(f"p{name[1:]}") for name in in_e.generators()}
    return in_e.substitute(rename)


def symplectic_power_sum_check(m: int, k: int) -> CheckResult:
    """Power sums of the doubled alphabet {x_i, -x_i}: even ones double,
    odd ones cancel."""
    roots = _roots(m)
    doubled = roots + [-r for r in roots]
    even = power_sum_over(doubled, 2 * k) - 2 * power_sum_over(roots, 2 * k)
    return first_defect([(2 * k, even), (2 * k + 1, power_sum_over(doubled, 2 * k + 1))])


# -- products over an alphabet ------------------------------------------------------------


def exp_of_power_sums(b, sums: Sequence[RingElement], n: int) -> Series1:
    """exp(sum_{k<=n} b_k s_k t^k) for b_k = b[k], rational or a ring
    element, and s_k = sums[k - 1]: Pi_a H(a t) to t^n over an alphabet with
    power sums s_k, for log H = sum_k b_k t^k (see the module docstring)."""
    return exp_series(Series1([_ZERO] + [sums[k - 1] * b[k] for k in range(1, n + 1)], n))


@lru_cache(maxsize=32)
def _characteristic_log(H: Series1, n: int) -> Series1:
    """log H to order n: the engine's entry check for a caller holding H.
    H must start at 1 (else ValueError) and be known to order n (else
    InsufficientOrderError: no product reads an unknown coefficient as 0).
    Kept for the 32 most recent (H, n) by value."""
    if not H[0].is_one():
        raise ValueError("characteristic series must have constant term 1")
    if H.order < n:
        raise InsufficientOrderError(f"series order {H.order} < n = {n}")
    return log_series(H.truncate(n))


def series_product_over_alphabet(H: Series1, alphabet: Sequence[RingElement], cap: int) -> Series1:
    """Pi_a H(a t) to t^cap, in a grading variable t, for H(0) = 1 and H known
    to order cap: exp(sum_k b_k p_k(alphabet) t^k) for log H = sum_k b_k t^k.
    Over roots +-x_i, the t^k coefficient is the root-degree-k part."""
    b = _characteristic_log(H, cap)
    return exp_of_power_sums(b, [power_sum_over(alphabet, k) for k in range(1, cap + 1)], cap)


def multiplicative_sequence(H: Series1, n: int) -> "list[RingElement]":
    """The Hirzebruch sequence K_1..K_n of a characteristic series H (H(0)=1)
    known to order n: K_j is the graded coefficient j of the product over the
    Chern roots, exp(sum_k b_k s_k) with log H(x) = sum_k b_k x^k, each power
    sum s_k written in c_1..c_k by Newton's identity.  No roots are introduced.
    """
    K = exp_of_power_sums(_characteristic_log(H, n), _chern_power_sums(n), n)
    return [K[j] for j in range(1, n + 1)]


@lru_cache(maxsize=64)
def _chern_power_sums(n: int) -> "tuple[RingElement, ...]":
    """s_1..s_n in c_1..c_n by Newton's identity, renamed from e_k before any
    product with H, whose coefficients may carry e_k (the universal ring)."""
    chern = {f"e{k}": RingElement.gen(f"c{k}") for k in range(1, n + 1)}
    newton = _conversion_table("P", "E", n)
    return tuple(newton[f"s{k}"].substitute(chern) for k in range(1, n + 1))
