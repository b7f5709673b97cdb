"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; symbolic identities are exact (zero
residual), the single numeric cross-check runs at 1e-10, and the even-zeta
numeric table at 1e-12.
"""

import hashlib
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

from genusforge import fgl, genus, verify
from genusforge.ring import RingElement, zeta_tilde_even

R = RingElement
gen = R.gen


def _criterion(num: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status}: {description}"
    if extra:
        line += f" [{extra}]"
    print(line)
    assert ok, line


def test_criterion_01_catalog_soundness():
    t0 = time.time()
    ok = True
    for name in fgl.CATALOG:
        report = fgl.check_axioms(fgl.catalog(name, 12))
        ok = ok and report.passed
    elapsed = time.time() - t0
    _criterion(
        1,
        "unit/commutativity/associativity to degree 12 for every catalog law",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_kontsevich_construction():
    germ = fgl.kontsevich_germ_law(12)
    closed = fgl.catalog("kontsevich", 12)
    ok = germ == closed.F and closed.F[(1, 1)] == 1 + gen("t")
    _criterion(2, "germ route equals closed form to degree 12; z0z1 coefficient is 1+t", ok)


def test_criterion_03_iso_adjudication():
    k = fgl.catalog("kontsevich", 12)
    m = fgl.catalog("multiplicative", 12)
    phi = fgl.canonical_strict_iso(k, m)
    canonical_ok = fgl.verify_iso(phi, k, m).passed
    sweep = fgl.mobius_sweep(10)
    sweep_ok = len(sweep) == 12 and all(r.status in ("PASS", "FAIL") for r in sweep)
    definitive = all(r.status == "FAIL" and r.fail_degree == 2 for r in sweep)
    _criterion(
        3,
        "canonical strict iso verifies at order 12; 4 conventions x 3 targets adjudicated",
        canonical_ok and sweep_ok,
        "all candidate readings fail at degree 2" if definitive else "a reading passed",
    )


def test_criterion_04_jacobi_specialization():
    jac = fgl.catalog("jacobi", 12, params={"delta": Fraction(-1, 8), "epsilon": 0})
    hyp = fgl.catalog("hyperbolic", 12)
    _criterion(4, "jacobi at delta=-1/8, epsilon=0 equals hyperbolic to degree 12", jac.F == hyp.F)


def test_criterion_05_gamma_law():
    law = fgl.catalog("gamma_raw", 10)
    coeff_ok = law.F[(1, 1)] == 2 * gen("gamma")
    mish_ok = genus.mishchenko_check(genus.gamma_series(10, "raw")).passed
    grading_ok = fgl.grading_check(law).passed
    _criterion(
        5,
        "gamma law: z0z1 = 2*gamma; Mishchenko at order 10; weight grading i+j-1",
        coeff_ok and mish_ok and grading_ok,
    )


def test_criterion_06_even_zeta_table():
    exact_ok = all(
        (gen(f"zeta{2 * k}") * gen("ipi2", -2 * k)).reduce()
        == R.from_rational(zeta_tilde_even(k))
        for k in range(1, 9)
    )
    numeric_ok = all(
        abs((gen(f"zeta{2 * k}") * gen("ipi2", -2 * k)).evaluate() - float(zeta_tilde_even(k)))
        < 1e-12
        for k in range(1, 9)
    )
    _criterion(6, "zeta~(2k) = -B_2k/(2(2k)!) exactly and numerically to 1e-12, k <= 8", exact_ok and numeric_ok)


def test_criterion_07_numeric_gamma():
    rep = genus.numeric_gamma_validation(Fraction(1, 4), 20, 1e-10)
    _criterion(
        7,
        "order-20 reciprocal-Gamma exponential at 1/4 vs stdlib Gamma within 1e-10",
        rep.passed,
        f"residual {dict(rep.extra)['residual']:.2e}",
    )


def test_criterion_08_genus_tables():
    todd = genus.genus_series("todd", 6)
    todd_ok = all(genus.genus_cpn(todd, n) == R.one() for n in range(1, 7))
    ahat = genus.genus_series("ahat", 4)
    ahat_ok = (
        genus.genus_cpn(ahat, 2) == R.from_rational(Fraction(-1, 8))
        and genus.genus_cpn(ahat, 3) == R.zero()
        and genus.genus_cpn(ahat, 4) == R.from_rational(Fraction(3, 128))
    )
    chern_ok = True
    for name in genus.GENUS_SERIES:
        g = genus.genus_series(name, 5)
        for n in range(1, 5):
            M = genus.ManifoldDescriptor.from_chern(n, genus.cpn_chern_numbers(n))
            chern_ok = chern_ok and genus.genus_of(g, M) == genus.genus_cpn(g, n)
    hodge_ok = genus.hodge_chi_check(5).passed
    _criterion(
        8,
        "Todd=1 (n<=6); Ahat(-1/8, 0, 3/128); Chern route == product route (n<=4, all "
        "series); chi_-t Hodge values up to the recorded (-1)^n",
        todd_ok and ahat_ok and chern_ok and hodge_ok,
    )


def test_criterion_09_msp_proposition():
    ok = all(genus.msp_agreement_check(12, m).passed for m in (1, 2, 3))
    mutant = genus.msp_agreement_check(6, 2, mutant=True)
    mutant_ok = (not mutant.passed) and mutant.degree == 1
    _criterion(
        9,
        "MSp agreement at weight 12 for m <= 3 with vanishing gamma/odd-zeta parts; "
        "mutant fails at weight 1",
        ok and mutant_ok,
    )


def test_criterion_10_ahat_pontryagin():
    ok = genus.ahat_pontryagin_identity(12, 3).passed
    k1 = -__import__("genusforge.ring", fromlist=["bernoulli"]).bernoulli(2) / (
        math.factorial(2) * 4
    )
    _criterion(10, "Ahat Pontryagin form at weight 12 (m=3); k=1 coefficient -1/48",
               ok and k1 == Fraction(-1, 48))


def test_criterion_11_witten_suite():
    w = genus.witten_series(10, 8)
    even_ok = w.evenness_check().passed
    q0_ok = w.q0_check().passed
    divisor_ok = all(w.divisor_check(k).passed for k in (1, 2, 3))
    pinned = w.log_coefficient(2, 1) == Fraction(1)
    _criterion(
        11,
        "Witten series at (x,q)-orders (10,8): evenness, q=0 slice, divisor sums k <= 3, "
        "[x^2 q^1] log = 1",
        even_ok and q0_ok and divisor_ok and pinned,
    )


def test_criterion_12_universal_lift():
    rep = genus.universal_gamma(10)
    _criterion(
        12,
        "universal lift: law integral in Z[e_n] to order 8; H coefficients are h_k to "
        "order 10; zeta specialization recovers the gamma data",
        all(r.passed for r in rep.values()),
    )


def test_criterion_13_rescaled_chi_law():
    law = fgl.catalog("chi_rescaled", 8)
    L = fgl.logarithm(law)
    log_ok = all(L[n] == fgl.gaussian_bracket(n) * Fraction(1, n) for n in range(1, 9))
    inv = law.F.map_coefficients(lambda c: c.substitute({"u": gen("u", -1)}))
    inv_ok = inv == law.F
    bracket_ok = all(
        fgl.gaussian_bracket(n).substitute({"u": gen("u", -1)}) == fgl.gaussian_bracket(n)
        and all(c == 1 for _, c in fgl.gaussian_bracket(n).terms())
        for n in range(1, 9)
    )
    _criterion(
        13,
        "rescaled law: log coefficients [n](t)/n (n<=8); u <-> 1/u invariance; "
        "gaussian brackets symmetric all-ones",
        log_ok and inv_ok and bracket_ok,
    )


def test_criterion_14_conjugation_equivariance():
    _criterion(14, "conjugation equivariance for CP^n, n <= 4",
               genus.conjugation_equivariance_check(4).passed)


def test_criterion_15_cli_verify_deterministic():
    cmd = [sys.executable, "-m", "genusforge.cli", "verify", "--suite", "all", "--order", "12"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    report = json.loads(first.stdout) if first.stdout else {}
    _criterion(
        15,
        "`verify --suite all --order 12` exits 0 with byte-identical output across runs",
        first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout,
        f"{len(report.get('checks', []))} checks",
    )
    digest = hashlib.sha256(first.stdout.encode()).hexdigest()
    assert digest == "e3aafc0ea673ed2c0156c5d31f3fd781fd9eee3d1eb47980fe465cc4414bae03", digest
