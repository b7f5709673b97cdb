"""One-shot verification of every identity the package implements.

The checks form one table of named checks.  Each suite is a generator that
yields (name, CheckResult) pairs in a fixed order, keeping a value that two
checks share as a local between yields; `_collect` runs a suite into its
dict, so it is the one place that sees each check begin and end.  run_suite
runs a named suite (fgl, gamma, witten, universal, iso, or all) into JSON
records sorted by name.  mishchenko_<series> sets two algorithms against
each other: the table reversion of the exponential and Miller's H^(n+1).
verify holds checks and no algorithm: every value it compares comes from the
library (the Witten cross-check's mixed exp is exp_series truncated in q).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator

from genusforge import fgl, genus
from genusforge.check import CheckResult, first_defect, first_residual
from genusforge.ring import RingElement, _check_order, zeta_tilde_even
from genusforge.series import Series1, bivariate_from_exp, exp_series
from genusforge.symfun import symplectic_power_sum_check

__all__ = ["SUITES", "run_suite"]

_MISHCHENKO_SERIES = ("todd", "ahat", "gamma_raw", "kontsevich", "chi_rescaled")


def _fgl_checks(order: int) -> Iterator[tuple[str, CheckResult]]:
    for name in fgl.CATALOG:
        yield f"axioms_{name}", fgl.check_axioms(fgl.catalog(name, order)).as_check()
    kc = fgl.catalog("kontsevich", order)
    mixed = kc.F[(1, 1)] - 1 - RingElement.gen("t")
    yield "kontsevich_germ_vs_closed", first_defect(
        [*(fgl.kontsevich_germ_law(order) - kc.F).items(), ((1, 1), mixed)]
    )

    jac = fgl.catalog("jacobi", order, params={"delta": Fraction(-1, 8), "epsilon": 0})
    hyp = fgl.catalog("hyperbolic", order)
    yield "jacobi_specializes_to_hyperbolic", first_defect((jac.F - hyp.F).items())

    g_ord = min(order, 10)
    yield "grading_gamma_raw", fgl.grading_check(fgl.catalog("gamma_raw", g_ord))
    yield "grading_jacobi", fgl.grading_check(fgl.catalog("jacobi", g_ord))
    yield "grading_universal", fgl.grading_check(fgl.catalog("universal_additive", g_ord))

    # [1](z) = z and F(z, [-1](z)) = 0, read from the library's n-series.
    neg_order = min(order, 8)
    z = Series1.x(neg_order)
    for name in fgl.CATALOG:
        law = fgl.catalog(name, neg_order)
        ident = first_defect((fgl.n_series(law, 1) - z).items(), "[1](z) = z")
        inverse = first_defect(law.F.eval_at(z, fgl.negation_series(law)).items())
        yield f"negation_{name}", inverse if ident.passed else ident
        if name in fgl.EXPONENTIALS:
            rebuilt = bivariate_from_exp(fgl.logarithm(law).revert())
            yield f"log_exp_roundtrip_{name}", first_defect((rebuilt - law.F).items())


def _iso_checks(order: int) -> Iterator[tuple[str, CheckResult]]:
    k = fgl.catalog("kontsevich", order)
    m = fgl.catalog("multiplicative", order)
    phi = fgl.canonical_strict_iso(k, m)
    yield "canonical_iso_kontsevich_to_multiplicative", fgl.verify_iso(phi, k, m)
    sweep = fgl.mobius_sweep(min(order, 10))
    yield "mobius_convention_sweep", CheckResult.ok(
        combinations=sweep,
        conclusion=(
            "a candidate convention validates"
            if any(trial.status == "PASS" for trial in sweep)
            else "no face-value reading of the candidate coordinate change "
            "verifies; the canonical strict isomorphism is authoritative"
        ),
    )


def _gamma_checks(order: int) -> Iterator[tuple[str, CheckResult]]:
    gamma = RingElement.gen("gamma")
    glaw = fgl.catalog("gamma_raw", min(order, 8))
    yield "gamma_law_z0z1_coefficient", first_defect([((1, 1), glaw.F[(1, 1)] - 2 * gamma)])
    m_order = min(order, 10)
    for name in _MISHCHENKO_SERIES:
        yield f"mishchenko_{name}", genus.mishchenko_check(genus.genus_series(name, m_order))

    msp_order = min(order, 12)
    for m in (1, 2, 3):
        yield f"msp_agreement_m{m}", genus.msp_agreement_check(msp_order, m)
    # Squaring H in place of conjugating it leaves 2 H_1 (x1 + x2) at degree 1.
    mutant = genus.msp_agreement_check(min(order, 6), 2, mutant=True)
    weight1 = mutant.coefficient if mutant.degree == 1 else RingElement.zero()
    x1, x2 = RingElement.gen("x1"), RingElement.gen("x2")
    yield "msp_mutant_fails", first_defect([(1, weight1 + 2 * gamma * (x1 + x2))])
    yield "ahat_pontryagin_identity_m3", genus.ahat_pontryagin_identity(msp_order, 3)

    exact, residuals = [], []
    for k in range(1, 9):
        z2k = RingElement.gen(f"zeta{2 * k}") * RingElement.gen("ipi2", -2 * k)
        exact.append((2 * k, z2k.reduce() - zeta_tilde_even(k)))
        residuals.append((2 * k, abs(z2k.evaluate() - complex(float(zeta_tilde_even(k))))))
    yield "even_zeta_table_exact", first_defect(exact)
    yield "even_zeta_table_numeric_1e-12", first_residual(residuals, 1e-12)

    yield "normalized_gamma_structure", genus.normalized_gamma_report(min(order, 10))
    yield "conjugation_equivariance_cp4", genus.conjugation_equivariance_check(4)
    yield "numeric_gamma_validation", genus.numeric_gamma_validation(Fraction(1, 4), 20, 1e-10)
    yield "zeta_map_signs", genus.zeta_map_report()

    todd = genus.genus_series("todd", 6)
    yield "todd_cpn_all_one", first_defect((n, genus.genus_cpn(todd, n) - 1) for n in range(7))
    ahat = genus.genus_series("ahat", 4)
    expected = {2: Fraction(-1, 8), 3: Fraction(0), 4: Fraction(3, 128)}
    yield "ahat_cpn_values", first_defect(
        (n, genus.genus_cpn(ahat, n) - v) for n, v in expected.items()
    )

    from_chern = genus.ManifoldDescriptor.from_chern
    cpn = {n: from_chern(n, genus.cpn_chern_numbers(n)) for n in range(1, 5)}
    by_series = (
        first_defect(
            ((n, genus.genus_of(g, M) - genus.genus_cpn(g, n)) for n, M in cpn.items()),
            f"series {g.name}",
        )
        for g in (genus.genus_series(name, 5) for name in genus.GENUS_SERIES)
    )
    yield "chern_route_matches_product_route", next(
        (r for r in by_series if not r.passed), CheckResult.ok()
    )

    yield "hodge_chi_minus_t_cp5", genus.hodge_chi_check(5)
    for m, k in ((1, 1), (2, 2), (3, 2)):
        yield f"symplectic_power_sums_m{m}_k{k}", symplectic_power_sum_check(m, k)
    yield "chi_rescaled_structure", genus.chi_rescaled_check(min(order, 8))


def _exp_mixed(L: Series1, q_order: int) -> Series1:
    """exp of a series vanishing at (x, q) = (0, 0), truncated in q: exp(L_0)
    exp(L - L_0), with exp(L_0) the exp_series of the q-degree parts of the
    q-only constant term L_0, and each coefficient truncated in q once."""
    L0 = L[0]
    parts = [L0.truncate_gen("q", i) - L0.truncate_gen("q", i - 1) for i in range(q_order + 1)]
    E0 = sum(exp_series(Series1(parts, q_order)).coefficients(), RingElement.zero())
    return (exp_series(L - L0) * E0).map_coefficients(lambda c: c.truncate_gen("q", q_order))


def _witten_checks(order: int) -> Iterator[tuple[str, CheckResult]]:
    x_order = max(min(order, 10), 6)
    w = genus.witten_series(x_order, 8)
    yield "witten_evenness", w.evenness_check()
    yield "witten_q0_is_ahat", w.q0_check()
    # The divisor sums are read off log_H, so each also checks that log_H is
    # the log of the product H: the Eisenstein route against the product route.
    routes = list((_exp_mixed(w.log_H, w.q_order) - w.H).items())
    for k in (1, 2, 3):
        if 2 * k <= w.x_order:
            yield f"witten_divisor_sum_k{k}", first_defect([w.divisor_pair(k), *routes])
    x2q1 = RingElement.from_rational(w.log_coefficient(2, 1))
    yield "witten_x2q1_is_one", first_defect([(2, x2q1 - 1)])


def _universal_checks(order: int) -> Iterator[tuple[str, CheckResult]]:
    rep = genus.universal_gamma(min(order, 10))
    yield "universal_h_coefficients", rep["h_in_e"]
    yield "universal_specializes_to_gamma", rep["specializes_to_gamma"]
    yield "universal_law_integral_z_en", rep["law_integral"]


def _collect(checks: Callable[[int], Iterator[tuple[str, CheckResult]]]):
    """A suite's builder: runs its checks to the end, into a dict by name.
    It is called eagerly, so a timer around it times the checks."""
    return lambda order: dict(checks(order))


_SUITE_BUILDERS: dict[str, Callable[[int], dict[str, CheckResult]]] = {
    suite: _collect(checks)
    for suite, checks in (
        ("fgl", _fgl_checks),
        ("gamma", _gamma_checks),
        ("witten", _witten_checks),
        ("universal", _universal_checks),
        ("iso", _iso_checks),
    )
}
SUITES = ("all", *_SUITE_BUILDERS)


def run_suite(suite: str = "all", order: int = 12) -> dict:
    """Run the named check suite; returns a deterministic JSON-ready report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    _check_order(order, 2)
    names = list(_SUITE_BUILDERS) if suite == "all" else [suite]
    results: dict[str, CheckResult] = {}
    for name in names:
        results.update(_SUITE_BUILDERS[name](order))
    checks = [{"name": name, **results[name].to_obj()} for name in sorted(results)]
    failing = [name for name in sorted(results) if not results[name].passed]
    report = {
        "suite": suite,
        "order": order,
        "status": "FAIL" if failing else "PASS",
        "checks": checks,
    }
    if failing:
        report["failing"] = failing
    return report
