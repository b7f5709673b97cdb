"""The deformation law and its strict isomorphism onto the multiplicative law.

The law can be built from the projective-line germ uv / (1 - t(u-1)(v-1))
or from its closed form; the two must agree.  The classical candidate
coordinate change (1+t)^(-1) log [[t,1],[-1,1]](z) is then swept over four readings of
the fractional-linear action and three candidate targets; none verifies,
and the canonical strict isomorphism exp_target(log_source) is the
authoritative one.
"""

from genusforge.fgl import (
    canonical_strict_iso,
    catalog,
    kontsevich_germ_law,
    mobius_sweep,
    verify_iso,
)

ORDER = 10

closed = catalog("kontsevich", ORDER)
germ = kontsevich_germ_law(ORDER)
print("germ route == closed form:", germ == closed.F)
print("z0 z1 coefficient:", closed.F[(1, 1)])
print()

target = catalog("multiplicative", ORDER)
phi = canonical_strict_iso(closed, target)
print("canonical strict iso, first coefficients:")
for k in range(1, 5):
    print(f"   z^{k}: {phi[k]}")
print("verify:", verify_iso(phi, closed, target).status)
print()

print("sweep of the candidate coordinate change:")
for trial in mobius_sweep(8):
    print(
        f"   {trial.convention:12s} -> {trial.target:16s} "
        f"{trial.status}"
        + (f" (degree {trial.fail_degree})" if trial.fail_degree else "")
    )
