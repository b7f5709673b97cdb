"""Independent oracles used to freeze expected values.

Each oracle deliberately avoids the code path it checks: ring arithmetic on
dicts of Fraction coefficients instead of integer numerators over a common
denominator, sums of products by adding one canonical product at a time
instead of one fused accumulator, that accumulator on monomial tuples merged
name by name instead of packed integer keys, Bernoulli numbers via
Akiyama-Tanigawa, or by the binomial recurrence summed in Fractions, instead
of that recurrence summed in integers over one denominator, Euler's constant
by its Euler-Maclaurin sum in Fractions instead of in integers, an element
split by a family, or truncated in one generator, with every key decoded
and every factor's name read instead of the digits picked out by masks,
series reversion by
Newton iteration or by the Lagrange formula with one power recurrence per
row instead of one power table, the normalized Gamma
exponential by reducing every expanded coefficient instead of the argument
of exp, group laws from an exponential by Horner composition, or by the
bilinear form over Lagrange-Buermann rows, instead of the bilinear form
over the reversion's power table, compositions by Horner loops at the full order instead of sums over powers, the negation series as the root of F(z, i) = 0 by a full-order evaluation per degree instead of exp(-log z), n-series by iterating F instead of exp(n log z), products over an alphabet of Chern roots by full root
polynomials truncated by root degree after every factor instead of one
exponential of power sums,
multiplicative sequences from that root product instead of power sums,
symmetric functions by substituting root polynomials for their basis
generators instead of the generating-function conversions, the basis of
such an expression by the names of its generators instead of by splitting
it into families, elementary
symmetric polynomials by brute-force subset enumeration, CP^n
Chern numbers by literal polynomial expansion of (1 + x)^(n+1), the Witten
product from two geometric factors per n built on exp_series tables instead of
one closed-form pair factor, Chern pairings by one Fraction product per term of
K_d, or by integer rows of packed keys summed on Python ints, instead of one
dot over the rows that RingElement.split gives, genera of CP^n from H^(n+1) built by repeated
products instead of the power recurrence, the mixed exp of the Witten
cross-check by summing powers of L, or by the exp recurrence truncated in q
after each dot (recurrence_exp_mixed), instead of exp_series truncated once,
the logarithm as the integral of the quotient f'/f (quotient_log) instead of
one dot per coefficient, and genera
of Milnor hypersurfaces from their Chern roots by bivariate products instead
of the Chern pairing, and zeta(k) with its eta weights recomputed for each k
instead of shared per precision, a ring element's hash recomputed on every
call instead of kept, its numeric value with every monomial decoded twice
and each factor raised where it appears instead of once per call, its JSON
form through one Fraction per term instead of the stored integers, and a
`genus chern` request through the normalizing ManifoldDescriptor.from_chern
with every value read by Fraction instead of the parsed table as it stands
with plain integers read by int, a Chern table with every factor of every
monomial read afresh instead of each monomial text once, a bivariate
series' symmetry by scanning every coefficient instead of the verdict the value keeps, and sums of ring
elements (a power sum, a substitution, the even-zeta reduction) by a
term-wise + fold instead of one RingElement.dot, a ring element's terms sorted
afresh on every read instead of in the order the element keeps, and a law
with bound params substituted afresh instead of kept by value, and a ring
element built from its terms, or read from its JSON form, by one Fraction per
term summed into a Fraction dict instead of integer numerators over one lcm
denominator.  The genus
series H = z / exp is also built here from any given exponential, outside
the catalog of genus.genus_series.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction

from genusforge import cli, genus
from genusforge.check import first_defect
from genusforge.fgl import AxiomReport
from genusforge.ring import (
    NonUnitError,
    RingElement,
    UnboundGeneratorError,
    _FAMILY,
    _check_exponents,
    _monomial_key,
    _pack,
    _unpack,
    euler_gamma,
    generator_info,
    zeta_numeric,
    zeta_tilde_even,
)
from genusforge.series import (
    NotRevertibleError,
    Series1,
    Series2,
    _unit_power,
    exp_series,
)
from genusforge.symfun import (
    _roots,
    elementary_in_roots,
    multiplicative_sequence,
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
        """Each zeta(2k)^e -> zeta~(2k)^e * ipi2^(2ke), term by term."""
        out: "dict" = {}
        for m, c in a.items():
            exps = dict(m)
            for name, e in m:
                if name.startswith("zeta") and int(name[4:]) % 2 == 0:
                    k2 = int(name[4:])
                    del exps[name]
                    exps["ipi2"] = exps.get("ipi2", 0) + k2 * e
                    c *= zeta_tilde_even(k2 // 2) ** e
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


def tuple_dot(pairs) -> RingElement:
    """sum(x * y for x, y in pairs) by RingElement.dot's fused accumulation of
    integer numerators over a running common denominator, with monomials kept
    as sorted (name, exponent) tuples and multiplied name by name."""
    out: "dict" = {}
    den = 1
    for x, y in pairs:
        if x.is_zero() or y.is_zero():
            continue
        a, b = dict(x.terms()), dict(y.terms())
        dx, dy = (math.lcm(*(c.denominator for c in t.values())) for t in (a, b))
        a = {m: int(c * dx) for m, c in a.items()}
        b = {m: int(c * dy) for m, c in b.items()}
        d = dx * dy
        if den % d:
            s = d // math.gcd(den, d)
            out = {m: c * s for m, c in out.items()}
            den *= s
        scale = den // d
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = FractionRing._mono_mul(m1, m2)
                acc = out.get(m, 0) + c1 * c2 * scale
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return RingElement({m: Fraction(c, den) for m, c in out.items()})


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


def recurrence_bernoulli(n: int) -> Fraction:
    """B_n by the binomial recurrence B_m = -sum_{j<m} C(m+1, j) B_j / (m+1),
    summed in Fractions with no memo: the route ring.bernoulli replaced by
    integer sums over one lcm denominator."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum((math.comb(m + 1, j) * B[j] for j in range(m)), Fraction(0)) / (m + 1))
    return B[n]


def fraction_euler_gamma() -> float:
    """euler_gamma() by the Euler-Maclaurin sum H_N - 1/(2N) + sum_k B_2k /
    (2k N^2k) in Fractions, B_2k by Akiyama-Tanigawa, then float()."""
    N, K = 25, 9
    h = sum(Fraction(1, j) for j in range(1, N + 1))
    tail = -Fraction(1, 2 * N)
    for k in range(1, K + 1):
        tail += bernoulli_akiyama_tanigawa(2 * k) / (2 * k * Fraction(N) ** (2 * k))
    return float(h + tail) - math.log(N)


def regex_split(x: RingElement, family: str) -> "dict[tuple, RingElement]":
    """x.split(family) with every key decoded and each factor's name matched
    against the family pattern, instead of the family's digits read by one mask."""
    parts: "dict[tuple, dict[int, int]]" = {}
    for key, c in x._terms.items():
        inner, rest = [], []
        for name, e in _unpack(key):
            f = _FAMILY.fullmatch(name)
            (inner if f and f[1] == family else rest).append((name, e))
        parts.setdefault(tuple(inner), {})[_pack(rest)] = c
    return {m: RingElement._make(t, x._den, x._emax) for m, t in parts.items()}


def decoded_truncate_gen(x: RingElement, name: str, max_exp: int) -> RingElement:
    """x.truncate_gen(name, max_exp) with every key decoded to read the
    exponent of name, instead of its one digit read by a mask."""
    out = {m: c for m, c in x._terms.items() if dict(_unpack(m)).get(name, 0) <= max_exp}
    return RingElement._make(out, x._den, x._emax)


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


def iterated_n_series(F: Series2, n: int) -> Series1:
    """[n](z) by iterating F: [0] = 0, [k] = F(z, [k - 1]), and
    [-k] = [k] o [-1] with [-1] the full-order root of F(z, i) = 0."""
    if n < 0:
        return horner_compose(iterated_n_series(F, -n), full_order_negation_series(F))
    out = Series1.zeros(F.order)
    z = Series1.x(F.order)
    for _ in range(n):
        out = F.eval_at(z, out)
    return out


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


def miller_revert(f: Series1) -> Series1:
    """Compositional inverse by the Lagrange inversion formula
    [z^i] g = (1/i) [w^(i-1)] (w/f(w))^i: with f = c f~ and f~ = z + O(z^2),
    (w/f)^i = c^-i (f~/w)^-i is one Miller power recurrence per row i."""
    if not f[0].is_zero():
        raise NotRevertibleError("series must vanish at 0")
    if f.order == 0:
        return f
    try:
        inv = f[1].inverse()
    except ArithmeticError as exc:
        raise NotRevertibleError("linear coefficient must be invertible") from exc
    n, b = f.order, [c * inv for c in f.coefficients()[1:]]
    g = [_unit_power(b, -i, i - 1)[-1] * (inv**i * Fraction(1, i)) for i in range(1, n + 1)]
    return Series1([RingElement.zero(), *g], n)


def lagrange_bivariate_from_exp(exp: Series1) -> Series2:
    """exp(log(z0) + log(z1)) by the bilinear form
    F[i,j] = sum_{a<=i, b<=j} C(a+b, a) e_{a+b} P_a[i] P_b[j], with
    P_a[i] = [z^i] log^a = (a/i) [w^(i-a)] (w/exp(w))^i by Lagrange-Buermann,
    each row (exp/w)^-i by one Miller power recurrence to degree i - 1."""
    if not exp[0].is_zero() or not exp[1].is_one():
        raise NotRevertibleError("exponential must be z + O(z^2)")
    n, zero = exp.order, RingElement.zero()
    L = [_unit_power(exp.coefficients()[1:], -i, i - 1) for i in range(1, n + 1)]
    P = [[RingElement.one()] + [zero] * n] + [
        [zero] * a + [L[i - 1][i - a] * Fraction(a, i) for i in range(a, n + 1)]
        for a in range(1, n + 1)
    ]
    out = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[(i, j)] = RingElement.dot(
                (exp[a + b] * math.comb(a + b, a), P[a][i] * P[b][j])
                for a in range(i + 1)
                for b in range(j + 1)
            )
    return Series2(out, n)


def lagrange_rows_by_multiplication(f: Series1) -> "list[list[RingElement]]":
    """Row i = [w^0..w^(i-1)] (w/f(w))^i for i = 0..n, for f of order n with
    f(0) = 0 and an invertible linear coefficient: w/f by one series
    division at order n - 1, and its powers by n products at that full
    order, each read only to its row's triangle."""
    n = f.order
    q = Series1.constant(1, n - 1) / Series1(f.coefficients()[1:], n - 1)
    rows, p = [], Series1.constant(1, n - 1)
    for i in range(n + 1):
        rows.append(list(p.coefficients()[:i]))
        p = p * q
    return rows


def expanded_normalized_gamma_exponential(order: int) -> Series1:
    """The normalized reciprocal-Gamma exponential: the raw one expanded
    first, then each z^k coefficient rescaled by ipi2^(1-k) and reduced."""
    arg = [RingElement.zero(), RingElement.gen("gamma")]
    for k in range(2, order):
        arg.append(RingElement.gen(f"zeta{k}", coeff=Fraction((-1) ** (k + 1), k)))
    coeffs = [RingElement.zero(), *exp_series(Series1(arg, order - 1)).coefficients()]
    return Series1(
        [(c * RingElement.gen("ipi2", 1 - k)).reduce() for k, c in enumerate(coeffs)], order
    )


def series_from_exponential(exp_full: Series1, order: int, name: str):
    """The genus series H = z / exp, from an exponential known to order
    `order + 1`: the route genus.genus_series takes, with any exponential."""
    from genusforge.genus import GenusSeries

    shifted = Series1(exp_full.coefficients()[1:], order)
    return GenusSeries(H=Series1.constant(1, order) / shifted, name=name)


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


_SYMMETRIC_PREFIX = {"E": "e", "H": "h", "P": "s"}


def symmetric_basis(x: RingElement) -> str:
    """The basis of a symmetric-function expression by the names of its
    generators: the first of E, H, P whose prefix, followed by ASCII digits
    alone, names every one (so a rational is in E), instead of splitting x by
    family.  ValueError if none does."""
    names = x.generators()
    for basis, prefix in _SYMMETRIC_PREFIX.items():
        if all(re.fullmatch(f"{prefix}[0-9]+", name) for name in names):
            return basis
    raise ValueError(f"no basis holds every generator of {sorted(names)}")


def symmetric_degree(x: RingElement) -> int:
    """The largest weight of a monomial in e_k, h_k or s_k, each of weight k,
    read from the digits of each name."""
    return max((sum(int(name[1:]) * e for name, e in m) for m, _ in x.terms()), default=0)


def expand_in_roots(x: RingElement, m: int) -> RingElement:
    """Substitute explicit root polynomials for the basis generators."""
    basis = symmetric_basis(x)
    table: "dict[str, RingElement]" = {}
    for k in range(1, symmetric_degree(x) + 1):
        name = f"{_SYMMETRIC_PREFIX[basis]}{k}"
        if basis == "E":
            table[name] = elementary_in_roots(k, m)
        elif basis == "H":
            table[name] = complete_in_roots(k, m)
        else:
            table[name] = power_sum_over(_roots(m), k)
    return x.substitute(table)


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


def fraction_chern_pairing(K: RingElement, chern) -> RingElement:
    """The polynomial K in c_1, c_2, ... paired with a Chern-number table
    {partition: value}, one Fraction product per term of K."""
    total: "dict" = {}
    for mono, coeff in K.terms():
        lam, rest = _split_chern(mono)
        total[rest] = total.get(rest, 0) + coeff * chern[lam]
    return RingElement(total)


def integer_row_genus_of(g, M) -> RingElement:
    """genus_of on a Chern table of dimension d >= 1 by integer rows: K_d
    compiled to one (partition, packed other factors, numerator over K_d's
    denominator) row per stored term, the table scaled to one integer
    denominator, and num * c[lambda] summed on Python ints, instead of one
    RingElement.dot over the rows of RingElement.split."""
    d = M.chern_dim
    K = multiplicative_sequence(g.H, d)[d - 1]
    rows = []
    for m, c in K._terms.items():
        lam, rest = _split_chern(_unpack(m))
        rows.append((lam, _pack(rest), c))
    cden = math.lcm(*(v.denominator for _, v in M.chern))
    chern = {lam: v.numerator * (cden // v.denominator) for lam, v in M.chern}
    total: "dict[int, int]" = {}
    for lam, rest, num in rows:
        total[rest] = total.get(rest, 0) + num * chern[lam]
    return RingElement._make({m: c for m, c in total.items() if c}, K._den * cden, K._emax)


def pairwise_power_cpn(H: Series1, n: int) -> RingElement:
    """[z^n] H^(n+1), with H^(n+1) built by n + 1 pairwise products."""
    H = H.truncate(n)
    power = Series1.constant(1, n)
    for _ in range(n + 1):
        power = pairwise_series1_mul(power, H)
    return power[n]


def per_k_zeta_fraction(k: int, precision: int) -> Fraction:
    """zeta(k) by the Cohen-Rodriguez Villegas-Zagier eta acceleration, with
    the weights d_0..d_n rebuilt on every call."""
    n = int(precision * 1.35) + 4
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


def recurrence_exp_mixed(L: Series1, q_order: int) -> Series1:
    """exp of a series vanishing at (x, q) = (0, 0), with q truncation: the
    exp recurrence in x, m E_m = sum_{k=1..m} k L_k E_{m-k}, truncated in q
    after each dot, from E_0 = exp(L_0), the same recurrence in q run by
    exp_series over the q-degree parts of the q-only constant term L_0."""
    n, L0 = L.order, L[0]
    parts = [L0.truncate_gen("q", i) - L0.truncate_gen("q", i - 1) for i in range(q_order + 1)]
    kL = [k * L[k] for k in range(n + 1)]
    out = [sum(exp_series(Series1(parts, q_order)).coefficients(), RingElement.zero())]
    for m in range(1, n + 1):
        acc = RingElement.dot((kL[k], out[m - k]) for k in range(1, m + 1))
        out.append(acc.truncate_gen("q", q_order) / m)
    return Series1(out, n)


def quotient_log(f: Series1) -> Series1:
    """log of a series with constant term 1 as the integral of f' / f, the
    quotient taken at order one less."""
    if f.order == 0:
        return Series1.zeros(0)
    d = f.differentiate() / Series1(f.coefficients(), f.order - 1)
    return d.integrate()


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


def uncached_hash(x: RingElement) -> int:
    """hash(x) computed afresh: a rational element hashes like its Fraction,
    any other like its (terms, denominator) storage."""
    value = x.as_rational()
    if value is None:
        return hash((frozenset(x._terms.items()), x._den))
    return hash(value)


def scan_is_symmetric(F: Series2) -> bool:
    """Whether F[(j, i)] == F[(i, j)] at every stored (i, j), scanned afresh."""
    return all(F[(j, i)] == c for (i, j), c in F._coeffs.items())


def termwise_sum(terms) -> RingElement:
    """sum(terms), adding one element at a time to a running sum from zero."""
    acc = RingElement.zero()
    for t in terms:
        acc = acc + t
    return acc


def termwise_substitute(x: RingElement, mapping) -> RingElement:
    """x.substitute(mapping), each term's image built from its monomial by name
    and added to a running sum."""
    images = []
    for m, c in x.terms():
        image = RingElement({tuple(p for p in m if p[0] not in mapping): c})
        for name, e in m:
            if name in mapping:
                image = image * mapping[name] ** e
        images.append(image)
    return termwise_sum(images)


def term_by_term_evaluate(x: RingElement, overrides=None) -> complex:
    """x.evaluate(overrides) with the generator set read off x.generators()
    and each term's factors raised to their powers where they appear."""
    values = {k: complex(v) for k, v in (overrides or {}).items()}
    missing = set()
    for name in x.generators():
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
        raise UnboundGeneratorError(f"no value for generator(s): {', '.join(sorted(missing))}")
    total = 0j
    for m, c in sorted((_unpack(m), c) for m, c in x._terms.items()):
        val = complex(c / x._den)
        for name, e in m:
            val *= values[name] ** e
        total += val
    return total


def fraction_to_obj(x: RingElement) -> dict:
    """x.to_obj() read off terms(), one Fraction per term, each printed by str
    with the interpreter's limit on int-to-str digits lifted for the call."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return {
            "terms": [
                {"num": str(c.numerator), "den": str(c.denominator), "exps": {n: e for n, e in m}}
                for m, c in x.terms()
            ]
        }
    finally:
        sys.set_int_max_str_digits(saved)


def fraction_rational(text: str) -> Fraction:
    """cli._rational with every literal, plain integers included, read by Fraction."""
    text = text.strip()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


_CHERN_FACTOR = re.compile(r"c([1-9][0-9]*)(?:\^(-?[0-9]+))?")


def factorwise_parse_chern(text: str) -> "dict[tuple[int, ...], Fraction]":
    """cli._parse_chern with every factor of every entry read afresh by int
    and each value by fraction_rational, instead of one memo of monomial
    texts over digit strings compared with MAX_ORDER's before int.  Past the
    interpreter's int digit limit it raises int's own error; with the limit
    off it names the entry's weight as cli._parse_chern does."""
    table: "dict[tuple[int, ...], Fraction]" = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(f"bad chern entry {entry!r}")
        mono, value = entry.split("=", 1)
        parts: "list[int]" = []
        weight = 0
        for factor in mono.replace("*", " ").split():
            m = _CHERN_FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError(f"bad chern class {factor!r}")
            index, exp = int(m[1]), int(m[2] or 1)
            if exp < 1:
                raise ValueError(f"exponent in {factor!r} must be >= 1")
            weight += index * exp
            if weight > cli.MAX_ORDER:
                raise ValueError(f"chern entry {entry!r} has weight above {cli.MAX_ORDER}")
            parts.extend([index] * exp)
        key = tuple(sorted(parts, reverse=True))
        if key in table:
            raise ValueError(f"chern entry {entry!r} repeats the partition {key}")
        table[key] = fraction_rational(value)
    return table


def from_chern_genus_chern(args):
    """The `genus chern` handler with the parsed table normalized again by
    ManifoldDescriptor.from_chern and the value serialized by fraction_to_obj.
    Run it with cli._rational replaced by fraction_rational."""
    descriptor = genus.ManifoldDescriptor.from_chern(args.dim, cli._parse_chern(args.chern))
    g = genus.genus_series(args.series, args.dim, args.presentation)
    value = fraction_to_obj(genus.genus_of(g, descriptor))
    return {"series": g.name, "dim": args.dim, "value": value}, True


def sorted_terms(x: RingElement) -> "list[tuple[tuple, int]]":
    """x's (monomial, numerator over x._den) pairs, sorted afresh by weight and
    then monomial, as every read of terms() sorted them before the element
    kept its order."""
    return sorted(
        ((_unpack(m), c) for m, c in x._terms.items()),
        key=lambda item: _monomial_key(item[0]),
    )


def sorted_to_obj(x: RingElement) -> dict:
    """x.to_obj() over sorted_terms, one Fraction per term."""
    terms = []
    for m, c in sorted_terms(x):
        q = Fraction(c, x._den)
        terms.append({"num": str(q.numerator), "den": str(q.denominator), "exps": dict(m)})
    return {"terms": terms}


def sorted_str(x: RingElement) -> str:
    """str(x) over sorted_terms."""
    if not x._terms:
        return "0"
    parts = []
    for m, c in sorted_terms(x):
        c = Fraction(c, x._den)
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


def folded_reduce(x: RingElement) -> RingElement:
    """Each zeta(2k) * ipi2^(-2k) in a term -> zeta~(2k), smallest k first,
    while the term's ipi2^(-1) budget lasts, adding each rewritten term to a
    running sum from zero.  Where every term's budget covers the weight of
    its even zetas this is x.reduce(); elsewhere it leaves even zetas."""
    out = RingElement.zero()
    changed = False
    for m, c in x._terms.items():
        exps = dict(_unpack(m))
        a = exps.get("ipi2", 0)
        coeff = Fraction(c, x._den)
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
        m = _pack(exps.items())
        out = out + RingElement._make({m: coeff.numerator}, coeff.denominator, x._emax)
    return out if changed else x


def substituted_law(law, params):
    """The F and exponential of catalog(law.name, law.order, params), from
    the unbound law: every coefficient substituted afresh, term by term."""
    bound = {k: v if isinstance(v, RingElement) else RingElement.from_rational(v)
             for k, v in params.items()}
    F = law.F.map_coefficients(lambda c: termwise_substitute(c, bound))
    exp = law.exp
    if exp is not None:
        exp = exp.map_coefficients(lambda c: termwise_substitute(c, bound))
    return F, exp


def fraction_ring_element(terms=None) -> RingElement:
    """RingElement(terms) with every coefficient read by Fraction and summed
    per packed monomial as a Fraction, then put over the lcm of the sums'
    denominators."""
    clean = {}
    emax = 0
    for m, c in (terms or {}).items():
        c = Fraction(c)
        if not c:
            continue
        exps = {}
        for n, e in m:
            exps[n] = exps.get(n, 0) + int(e)
        m = tuple(sorted((n, e) for n, e in exps.items() if e))
        emax = max(emax, _check_exponents(m))
        key = _pack(m)
        clean[key] = clean.get(key, Fraction(0)) + c
    clean = {m: c for m, c in clean.items() if c}
    den = math.lcm(*(c.denominator for c in clean.values()))
    out = object.__new__(RingElement)
    out._terms = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
    out._den = den
    out._emax = emax
    return out


def fraction_from_obj(obj) -> RingElement:
    """RingElement.from_obj(obj) with each term read as a Fraction, terms of
    equal exps summed as Fractions, and the sum built by fraction_ring_element.
    int reads every num, den and exponent, so a bool or a float is truncated."""
    terms = {}
    for term in obj["terms"]:
        c = Fraction(int(term["num"]), int(term["den"]))
        m = tuple(sorted((str(n), int(e)) for n, e in term["exps"].items()))
        terms[m] = terms.get(m, Fraction(0)) + c
    return fraction_ring_element(terms)
