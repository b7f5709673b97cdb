"""Independent oracles used to freeze expected values.

Each oracle deliberately avoids the code path it checks: Bernoulli numbers
via Akiyama-Tanigawa instead of the binomial recurrence, series reversion
by Newton iteration instead of the Lagrange formula, group laws from an
exponential by Horner composition instead of the bilinear form, products
over an alphabet of Chern roots by full root polynomials truncated by root
degree instead of a graded series, multiplicative sequences from that root
product instead of power sums, elementary symmetric polynomials by
brute-force subset enumeration, and CP^n Chern numbers by literal polynomial
expansion of (1 + x)^(n+1).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from genusforge.ring import RingElement
from genusforge.series import Series1, Series2, compose1_2
from genusforge.symfun import symmetric_in_elementary, truncate_roots


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa triangle (adjusted to B_1 = -1/2)."""
    A = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
    value = A[0]  # the triangle yields the B_1 = +1/2 convention
    if n == 1:
        value = -value
    return value


def newton_revert(f: Series1) -> Series1:
    """Compositional inverse by order-doubling Newton iteration
    g <- g - (f(g) - z) / f'(g); needs f(0) = 0 and an invertible f'(0)."""
    n = f.order
    g = Series1([0, f[1].inverse()], 1)
    prec = 1
    deriv = f.differentiate()
    while prec < n:
        prec = min(2 * prec, n)
        g = Series1(g.coefficients(), prec)
        err = f.truncate(prec).compose(g) - Series1.x(prec)
        dg = Series1(deriv.truncate(prec - 1).coefficients(), prec).compose(g)
        g = g - err / dg
    return Series1(g.coefficients(), n)


def horner_bivariate_from_exp(exp: Series1) -> Series2:
    """exp(log(z0) + log(z1)) by a Horner loop of Series2 products, with log
    the Newton reversion of exp."""
    log = newton_revert(exp)
    n = exp.order
    inner = Series2.from_series1(log, 0, n) + Series2.from_series1(log, 1, n)
    return compose1_2(exp, inner)


def root_product(H: Series1, alphabet, cap: int) -> RingElement:
    """Pi_a H(a) as a root polynomial, truncated to root degree <= cap after
    every factor."""
    result = RingElement.one()
    for a in alphabet:
        factor = RingElement.zero()
        apow = RingElement.one()
        for k in range(cap + 1):
            factor = factor + H[k] * apow
            apow = apow * a
        result = truncate_roots(result * factor, cap)
    return result


def exp_root_poly(f: RingElement, cap: int) -> RingElement:
    """exp of a root polynomial with zero constant term, truncated by root degree."""
    out = RingElement.one()
    term = RingElement.one()
    for j in range(1, cap + 1):
        term = truncate_roots(term * f, cap) * Fraction(1, j)
        out = out + term
    return out


def root_degree_part(f: RingElement, k: int) -> RingElement:
    """The monomials of f of root degree exactly k."""
    low = truncate_roots(f, k - 1) if k else RingElement.zero()
    return truncate_roots(f, k) - low


def root_multiplicative_sequence(H: Series1, n: int) -> "list[RingElement]":
    """K_1..K_n as the root-degree parts of Pi_{i<=n} H(x_i), rewritten in
    c_k = e_k(x_1..x_n) by leading-term elimination."""
    prod = root_product(H, [RingElement.gen(f"x{i}") for i in range(1, n + 1)], n)
    return [
        symmetric_in_elementary(root_degree_part(prod, j), n, out_prefix="c")
        for j in range(1, n + 1)
    ]


def elementary_bruteforce(k: int, roots) -> RingElement:
    """e_k over an explicit alphabet by subset enumeration."""
    total = RingElement.zero()
    for combo in itertools.combinations(list(roots), k):
        term = RingElement.one()
        for r in combo:
            term = term * r
        total = total + term
    return total


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cpn_chern_numbers_oracle(n: int) -> "dict[tuple[int, ...], Fraction]":
    """Chern numbers of CP^n by expanding the actual polynomials c_i = C(n+1, i) x^i."""
    from genusforge.genus import partitions

    out = {}
    for lam in partitions(n):
        poly = [Fraction(1)]
        for part in lam:
            c_part = [Fraction(0)] * part + [Fraction(math.comb(n + 1, part))]
            poly = _poly_mul(poly, c_part)
        out[lam] = poly[n] if len(poly) > n else Fraction(0)
    return out


def divisor_sigma(j: int, n: int) -> int:
    return sum(d**j for d in range(1, n + 1) if n % d == 0)


def euler_product_inv_sq(q_order: int) -> "list[Fraction]":
    """Coefficients of Pi_{n>=1} (1 - q^n)^(-2) up to q^q_order."""
    coeffs = [Fraction(1)] + [Fraction(0)] * q_order
    for n in range(1, q_order + 1):
        for _ in range(2):  # two factors of 1/(1-q^n)
            for k in range(n, q_order + 1):
                coeffs[k] += coeffs[k - n]
    return coeffs
