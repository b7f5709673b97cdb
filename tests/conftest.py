import contextlib
import importlib
import pkgutil
import signal
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import genusforge
from genusforge import fgl, genus
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


# Every module of the package, so that clear_memos reaches each one's memos.
MODULES = [
    importlib.import_module(f"genusforge.{info.name}")
    for info in pkgutil.iter_modules(genusforge.__path__)
]


def clear_memos():
    """Empty every memo of the package: the one build per name of the law
    catalog and of the genus series, and every lru_cache of its modules, so
    that a test sees the route and not a memo, and no value built under a
    test's patches outlives it."""
    fgl._BUILT.clear()
    genus._SERIES.clear()
    for module in MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def cold():
    """A test that starts, and leaves the package, with every memo empty."""
    clear_memos()
    yield
    clear_memos()


@contextlib.contextmanager
def int_max_str_digits(limit):
    """Set the interpreter's limit on int/str conversion digits (0: none) for
    the body of a with statement, and restore it."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@contextlib.contextmanager
def deadline(seconds=2):
    """Raise TimeoutError in the body of a with statement that runs past
    `seconds` (SIGALRM), so a call that never returns fails its test instead
    of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    saved = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, saved)


@pytest.fixture
def alarm():
    """The test under a 2-s deadline."""
    with deadline(2):
        yield


@pytest.fixture(scope="session")
def mp():
    import mpmath

    return mpmath
