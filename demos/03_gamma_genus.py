"""The reciprocal-Gamma genus in both presentations.

Raw: H(z) is the expansion of Gamma(1+z), with coefficients in Euler's
constant and zeta values.  Normalized: the variable is rescaled by the
period 2*pi*i and even zeta values collapse to rationals, exposing the
square root of the A-hat series as the even part.  On quaternionic classes
the genus agrees with A-hat: the conjugated product has no gamma or odd
zeta content at all.
"""

from fractions import Fraction

from genusforge.genus import (
    gamma_series,
    genus_cpn,
    mishchenko_check,
    msp_agreement_check,
    normalized_gamma_report,
    numeric_gamma_validation,
)

raw = gamma_series(8, "raw")
print("raw H coefficients:")
for k in range(4):
    print(f"   z^{k}: {raw.H[k]}")
print()

norm = gamma_series(8, "normalized")
print("normalized H coefficients:")
for k in range(4):
    print(f"   x^{k}: {norm.H[k]}")
print()

print("genus of projective spaces (raw):")
for n in range(1, 5):
    print(f"   CP^{n}: {genus_cpn(raw, n)}")
print()

print("Mishchenko logarithm identity:", mishchenko_check(raw).status)
report = normalized_gamma_report(8)
parts = dict(report.extra)  # its three parts, shown in the order they are checked
shown = {"status": report.status}
shown.update((k, parts[k]) for k in ("linear_term", "even_part_is_sqrt_sinh", "odd_sum_sign"))
print("structure of the normalized series:", shown)
print()

for m in (1, 2, 3):
    print(f"MSp agreement, {m} root pair(s):", msp_agreement_check(10, m).status)
print("mutant (unconjugated) variant:", msp_agreement_check(6, 2, mutant=True).status)
print()

print("numeric cross-check against 1/Gamma:")
for z0 in (Fraction(1, 4), Fraction(1, 2), Fraction(-1, 3)):
    rep = numeric_gamma_validation(z0, 20, 1e-8)
    print(f"   z0 = {z0}: {rep.status} (residual {dict(rep.extra)['residual']:.2e})")
