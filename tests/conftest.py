from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from genusforge.ring import RingElement

settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)

# Small generator pool mixing weights, Laurent and polynomial exponent domains.
_GEN_POOL = ("gamma", "zeta2", "zeta3", "ipi2", "t", "delta")

# The inner strategies are built once, not per draw: a strategy built inside
# a composite is made, unwrapped and validated again for every example.
_NAMES = st.sets(st.sampled_from(_GEN_POOL), max_size=3)
_EXPONENTS = {lo: st.integers(min_value=lo, max_value=3).filter(lambda e: e != 0) for lo in (-3, 1)}
_N_TERMS = st.integers(min_value=0, max_value=4)


@st.composite
def monomials(draw):
    names = draw(_NAMES)
    out = RingElement.one()
    for name in names:
        lo = -3 if name in ("ipi2", "t") else 1
        exp = draw(_EXPONENTS[lo])
        out = out * RingElement.gen(name, exp)
    return out


_MONOMIALS = monomials()


@st.composite
def ring_elements(draw):
    n_terms = draw(_N_TERMS)
    out = RingElement.zero()
    for _ in range(n_terms):
        out = out + draw(_MONOMIALS) * draw(rationals)
    return out


@pytest.fixture(scope="session")
def mp():
    import mpmath

    return mpmath
