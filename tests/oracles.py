"""Independent oracles used to freeze expected values.

Each oracle deliberately avoids the code path it checks: ring arithmetic on
dicts of Fraction coefficients instead of integer numerators over a common
denominator, sums of products by adding one canonical product at a time
instead of one fused accumulator, Bernoulli numbers via Akiyama-Tanigawa instead of the binomial
recurrence, series reversion by Newton iteration instead of the Lagrange
formula, group laws from an exponential by Horner composition instead of the
bilinear form, compositions by Horner loops at the full order instead of
graded ones, the negation series by a full-order evaluation per degree, products over an alphabet of Chern roots by full root
polynomials truncated by root degree instead of a graded series,
multiplicative sequences from that root product instead of power sums,
symmetric functions by substituting root polynomials for their basis
generators instead of the generating-function conversions, elementary
symmetric polynomials by brute-force subset enumeration, CP^n
Chern numbers by literal polynomial expansion of (1 + x)^(n+1), the Witten
product from two geometric factors per n built on exp_series tables instead of
one closed-form pair factor, Chern pairings by one Fraction product per term of
K_d instead of integer rows, genera of CP^n from H^(n+1) built by repeated
products instead of the power recurrence, the mixed exp of the Witten
cross-check by summing powers of L instead of the exp recurrence, and genera
of Milnor hypersurfaces from their Chern roots by bivariate products instead
of the Chern pairing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from genusforge.check import first_defect
from genusforge.fgl import AxiomReport
from genusforge.ring import NonUnitError, RingElement, generator_info, zeta_tilde_even
from genusforge.series import Series1, Series2, exp_series
from genusforge.symfun import (
    SymPoly,
    _roots,
    elementary_in_roots,
    power_sum_over,
    symmetric_in_elementary,
    truncate_roots,
)


class FractionRing:
    """Ring arithmetic on plain ``{monomial: Fraction}`` dicts with no zero
    values: every coefficient sum and product pays its own Fraction gcd."""

    @staticmethod
    def of(a: RingElement) -> "dict":
        return dict(a.terms())

    @staticmethod
    def _mono_mul(m1, m2):
        exps = dict(m1)
        for name, e in m2:
            exps[name] = exps.get(name, 0) + e
        return tuple(sorted((n, e) for n, e in exps.items() if e))

    @staticmethod
    def add(a: dict, b: dict) -> dict:
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, Fraction(0)) + c
        return {m: c for m, c in out.items() if c}

    @staticmethod
    def neg(a: dict) -> dict:
        return {m: -c for m, c in a.items()}

    @staticmethod
    def mul(a: dict, b: dict) -> dict:
        out: "dict" = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = FractionRing._mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return {m: c for m, c in out.items() if c}

    @staticmethod
    def inverse(a: dict) -> dict:
        if len(a) != 1:
            raise NonUnitError("not a monomial unit")
        (m, c), = a.items()
        if any(e > 0 and not generator_info(name).laurent for name, e in m):
            raise NonUnitError("generator admits no negative exponents")
        return {tuple((name, -e) for name, e in m): 1 / c}

    @staticmethod
    def pow(a: dict, n: int) -> dict:
        if n < 0:
            return FractionRing.pow(FractionRing.inverse(a), -n)
        out = {(): Fraction(1)}
        for _ in range(n):
            out = FractionRing.mul(out, a)
        return out

    @staticmethod
    def substitute(a: dict, mapping: "dict[str, dict]") -> dict:
        out: "dict" = {}
        for m, c in a.items():
            term = {tuple(p for p in m if p[0] not in mapping): c}
            for name, e in m:
                if name in mapping:
                    term = FractionRing.mul(term, FractionRing.pow(mapping[name], e))
            out = FractionRing.add(out, term)
        return out

    @staticmethod
    def conjugate(a: dict) -> dict:
        return {m: -c if dict(m).get("ipi2", 0) % 2 else c for m, c in a.items()}

    @staticmethod
    def reduce(a: dict) -> dict:
        """Each zeta(2k) * ipi2^(-2k) -> zeta~(2k), smallest k first, while
        the ipi2^(-1) budget lasts."""
        out: "dict" = {}
        for m, c in a.items():
            exps = dict(m)
            for name in sorted((n for n in exps if n.startswith("zeta")), key=lambda n: int(n[4:])):
                k2 = int(name[4:])
                while k2 % 2 == 0 and exps[name] and exps.get("ipi2", 0) <= -k2:
                    exps[name] -= 1
                    exps["ipi2"] += k2
                    c *= zeta_tilde_even(k2 // 2)
            m = tuple(sorted((n, e) for n, e in exps.items() if e))
            out = FractionRing.add(out, {m: c})
        return out


def pairwise_dot(pairs) -> RingElement:
    """sum(x * y for x, y in pairs), adding one canonical product at a time."""
    acc = RingElement.zero()
    for x, y in pairs:
        if not x.is_zero() and not y.is_zero():
            acc = acc + x * y
    return acc


def _accumulate(out: dict, key, prod: RingElement) -> None:
    acc = out.get(key)
    out[key] = prod if acc is None else acc + prod


def pairwise_series1_mul(a: Series1, b: Series1) -> Series1:
    n = a.order
    return Series1([pairwise_dot((a[i], b[k - i]) for i in range(k + 1)) for k in range(n + 1)], n)


def pairwise_series2_mul(a: Series2, b: Series2) -> Series2:
    n = a.order
    out: "dict" = {}
    for (i1, j1), c1 in a._coeffs.items():
        for (i2, j2), c2 in b._coeffs.items():
            if i1 + j1 + i2 + j2 <= n:
                _accumulate(out, (i1 + i2, j1 + j2), c1 * c2)
    return Series2(out, n)


def _pairwise_powers(f: Series1, order: int) -> "list[Series1]":
    out = [Series1.constant(1, order)]
    for _ in range(order):
        out.append(pairwise_series1_mul(out[-1], f))
    return out


def pairwise_eval_at(F: Series2, a: Series1, b: Series1) -> Series1:
    """F(a(z), b(z)), adding each c * (a^i b^j)[k] into its target in turn."""
    n = min(F.order, a.order, b.order)
    ap, bp = _pairwise_powers(a.truncate(n), n), _pairwise_powers(b.truncate(n), n)
    out = [RingElement.zero()] * (n + 1)
    for (i, j), c in F._coeffs.items():
        if i + j <= n:
            prod = pairwise_series1_mul(ap[i], bp[j])
            for k in range(i + j, n + 1):
                if not prod[k].is_zero():
                    out[k] = out[k] + c * prod[k]
    return Series1(out, n)


def pairwise_compose(F: Series2, f: Series1, g: Series1) -> Series2:
    """F(f(z0), g(z1)), adding each c * f^i[p] * g^j[q] into its target in turn."""
    n = F.order
    fp, gp = _pairwise_powers(f.truncate(n), n), _pairwise_powers(g.truncate(n), n)
    out: "dict" = {}
    for (i, j), c in F._coeffs.items():
        for p in range(i, n + 1 - j):
            if fp[i][p].is_zero():
                continue
            ca = c * fp[i][p]
            for q in range(j, n + 1 - p):
                if not gp[j][q].is_zero():
                    _accumulate(out, (p, q), ca * gp[j][q])
    return Series2(out, n)


def pairwise_check_axioms(F: Series2) -> AxiomReport:
    """Unit, commutativity and associativity by expanding both F(F(x,y),z)
    and F(x,F(y,z)), each product added into its coefficient in turn."""
    n = F.order
    unit = first_defect(
        (k, F[ij] - 1 if k == 1 else F[ij]) for k in range(n + 1) for ij in ((k, 0), (0, k))
    )
    commutativity = first_defect((F - F.swap()).items())
    powers = [Series2.constant(1, n)]
    for _ in range(n):
        powers.append(pairwise_series2_mul(powers[-1], F))
    left: "dict" = {}
    right: "dict" = {}
    for (i, j), c in F.items():
        for (p, q), v in powers[i].items():
            if p + q + j <= n:
                _accumulate(left, (p, q, j), c * v)
        for (p, q), v in powers[j].items():
            if i + p + q <= n:
                _accumulate(right, (i, p, q), c * v)
    diff = dict(left)
    for key, c in right.items():
        diff[key] = diff.get(key, RingElement.zero()) - c
    return AxiomReport(unit, commutativity, first_defect(diff.items()))


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


def horner_compose(outer: Series1, inner: Series1) -> Series1:
    """outer(inner(z)) by Horner's rule, every step at the full order."""
    n = min(outer.order, inner.order)
    outer, inner = outer.truncate(n), inner.truncate(n)
    result = Series1.constant(outer[n], n)
    for k in range(n - 1, -1, -1):
        result = result * inner + outer[k]
    return result


def horner_compose1_2(outer: Series1, inner: Series2) -> Series2:
    """outer(inner(z0, z1)) by Horner's rule, every step at the full order."""
    n = min(outer.order, inner.order)
    outer, inner = outer.truncate(n), inner.truncate(n)
    result = Series2.constant(outer[n], n)
    for k in range(n - 1, -1, -1):
        result = result * inner + outer[k]
    return result


def full_order_negation_series(F: Series2) -> Series1:
    """i(z) with F(z, i(z)) = 0, each degree read off a full-order F(z, i)."""
    n = F.order
    z = Series1.x(n)
    coeffs = [RingElement.zero(), -RingElement.one()] + [RingElement.zero()] * (n - 1)
    for m in range(2, n + 1):
        coeffs[m] = coeffs[m] - pairwise_eval_at(F, z, Series1(coeffs, n))[m]
    return Series1(coeffs, n)


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
        err = horner_compose(f.truncate(prec), g) - Series1.x(prec)
        dg = horner_compose(Series1(deriv.truncate(prec - 1).coefficients(), prec), g)
        g = g - err / dg
    return Series1(g.coefficients(), n)


def horner_bivariate_from_exp(exp: Series1) -> Series2:
    """exp(log(z0) + log(z1)) by a Horner loop of Series2 products, with log
    the Newton reversion of exp."""
    log = newton_revert(exp)
    n = exp.order
    inner = Series2.from_series1(log, 0, n) + Series2.from_series1(log, 1, n)
    return horner_compose1_2(exp, inner)


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


def complete_in_roots(k: int, m: int) -> RingElement:
    """h_k(x_1..x_m) via 1 / Pi (1 - x_i z)."""
    prod = Series1.constant(1, k)
    for r in _roots(m):
        prod = prod * Series1([RingElement.one(), -r], k)
    return (Series1.constant(1, k) / prod)[k]


def expand_in_roots(x: SymPoly, m: int) -> RingElement:
    """Substitute explicit root polynomials for the basis generators."""
    table: "dict[str, RingElement]" = {}
    prefix = {"E": "e", "H": "h", "P": "s"}[x.basis]
    for k in range(1, x.degree + 1):
        name = f"{prefix}{k}"
        if x.basis == "E":
            table[name] = elementary_in_roots(k, m)
        elif x.basis == "H":
            table[name] = complete_in_roots(k, m)
        else:
            table[name] = power_sum_over(_roots(m), k)
    return x.poly.substitute(table)


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


def geometric_factor(sign: int, n: int, x_order: int, q_order: int) -> Series1:
    """(1 - q^n e^(sign x))^(-1) = Sum_j q^(nj) e^(sign j x), with each e^(sign j x)
    from the general exp_series recurrence, truncated at the given x and q orders."""
    factor = Series1.constant(1, x_order)
    for j in range(1, q_order // n + 1):
        exp_jx = exp_series(Series1.x(x_order) * Fraction(sign * j))
        factor = factor + exp_jx * RingElement.gen("q", n * j)
    return factor


def witten_product_oracle(x_order: int, q_order: int) -> Series1:
    """(x/2)/sinh(x/2) * Pi_n (1-q^n e^x)^(-1) (1-q^n e^-x)^(-1) with two
    geometric factors per n, each product truncated in q on its own."""
    from genusforge.genus import half_sinh_ratio

    H = half_sinh_ratio(x_order)
    for n in range(1, q_order + 1):
        for sign in (1, -1):
            H = (H * geometric_factor(sign, n, x_order, q_order)).map_coefficients(
                lambda c: c.truncate_gen("q", q_order)
            )
    return H


def fraction_chern_pairing(K: RingElement, chern) -> RingElement:
    """The polynomial K in c_1, c_2, ... paired with a Chern-number table
    {partition: value}, one Fraction product per term of K."""
    total: "dict" = {}
    for mono, coeff in K.terms():
        parts, rest = [], []
        for name, e in mono:
            if name[0] == "c" and name[1:].isdigit():
                parts.extend([int(name[1:])] * e)
            else:
                rest.append((name, e))
        key = tuple(rest)
        total[key] = total.get(key, 0) + coeff * chern[tuple(sorted(parts, reverse=True))]
    return RingElement(total)


def pairwise_power_cpn(H: Series1, n: int) -> RingElement:
    """[z^n] H^(n+1), with H^(n+1) built by n + 1 pairwise products."""
    H = H.truncate(n)
    power = Series1.constant(1, n)
    for _ in range(n + 1):
        power = pairwise_series1_mul(power, H)
    return power[n]


def power_sum_exp_mixed(L: Series1, q_order: int) -> Series1:
    """exp(L) = sum_j L^j / j! for L vanishing at (x, q) = (0, 0), each power
    truncated in q, until a power vanishes."""
    n = L.order
    out = Series1.constant(1, n)
    term = Series1.constant(1, n)
    for j in range(1, n + q_order + 2):
        term = (term * L).map_coefficients(lambda c: c.truncate_gen("q", q_order)) * Fraction(1, j)
        if term.is_zero():
            break
        out = out + term
    return out


def milnor_chern_numbers(i: int, j: int) -> "dict[tuple[int, ...], int]":
    """Chern numbers of the Milnor hypersurface H_{i,j} in CP^i x CP^j of
    bidegree (1, 1), in integers: c_lambda[H] = [x^i y^j] c_lambda(TH) (x + y)
    in Z[x, y] / (x^(i+1), y^(j+1)), with
    c(TH) = (1 + x)^(i+1) (1 + y)^(j+1) / (1 + x + y)."""
    from genusforge.genus import partitions

    def mul(a, b):
        out: "dict" = {}
        for (p1, q1), c1 in a.items():
            for (p2, q2), c2 in b.items():
                if p1 + p2 <= i and q1 + q2 <= j:
                    key = (p1 + p2, q1 + q2)
                    out[key] = out.get(key, 0) + c1 * c2
        return out

    # 1 / (1 + x + y) = sum_k (-x - y)^k, a polynomial in the truncated ring
    inverse, term = {(0, 0): 1}, {(0, 0): 1}
    for _ in range(i + j):
        term = mul(term, {(1, 0): -1, (0, 1): -1})
        for key, c in term.items():
            inverse[key] = inverse.get(key, 0) + c
    ambient = {
        (p, q): math.comb(i + 1, p) * math.comb(j + 1, q)
        for p in range(i + 1)
        for q in range(j + 1)
    }
    total = mul(ambient, inverse)
    d = i + j - 1
    classes = [{pq: c for pq, c in total.items() if sum(pq) == k} for k in range(d + 1)]
    out = {}
    for lam in partitions(d):
        prod = {(0, 0): 1}
        for part in lam:
            prod = mul(prod, classes[part])
        out[lam] = mul(prod, {(1, 0): 1, (0, 1): 1}).get((i, j), 0)
    return out


def milnor_residue_genus(H: Series1, exp: Series1, i: int, j: int) -> RingElement:
    """The genus of H_{i,j} from its tangent roots (x i+1 times, y j+1 times,
    less the normal root x + y): [x^i y^j] H(x)^(i+1) H(y)^(j+1) exp(x + y),
    by Series2 products, with exp(x + y) summed over the powers of x + y.
    H and exp must reach order i + j - 1 and i + j."""
    n = i + j
    s = Series2({(1, 0): 1, (0, 1): 1}, n)
    power, prod = Series2.constant(1, n), Series2.zeros(n)
    for k in range(1, n + 1):
        power = power * s
        prod = prod + power * exp[k]
    for variable, count in ((0, i + 1), (1, j + 1)):
        lifted = Series2.from_series1(H, variable, n)
        for _ in range(count):
            prod = prod * lifted
    return prod[(i, j)]
