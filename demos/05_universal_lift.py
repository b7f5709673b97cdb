"""The universal additive-type lift over Z[e_1, e_2, ...].

The exponential z * (1 + e_1 z + e_2 z^2 + ...) produces an integral formal
group law whose characteristic series has the complete symmetric functions
as coefficients; specializing s_1 -> gamma and s_k -> zeta(k) recovers the
reciprocal-Gamma data.
"""

from genusforge.fgl import catalog
from genusforge.genus import universal_gamma
from genusforge.ring import RingElement
from genusforge.symfun import convert, zeta_specialize

law = catalog("universal_additive", 6)
print("law coefficients (all integral in Z[e_n]):")
for (i, j), c in law.F.items():
    if i + j <= 3:
        print(f"   z0^{i} z1^{j}: {c}")
print()

print("complete symmetric functions in the elementary basis:")
for k in range(1, 5):
    print(f"   h_{k} = {convert(RingElement.gen(f'h{k}'), 'E')}")
print()

print("zeta specialization of the first exponential coefficients:")
for k in range(1, 5):
    coeff = law.exp[k + 1]
    print(f"   e_{k} -> {zeta_specialize(coeff)}")
print()

print("full report:", {k: v.status for k, v in universal_gamma(8).items()})
