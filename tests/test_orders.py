"""One order rule: every order, size, dimension and index argument of the
package goes through ring._check_order.  A float or a bool is a TypeError and
a value below the entry's least a ValueError, whether the entry is called
cold or after its memo has answered the int of the same value."""

import pytest

from genusforge import fgl, genus, ring, verify
from genusforge.genus import ManifoldDescriptor
from genusforge.series import Series1, Series2

from conftest import MODULES

TODD_3 = genus.genus_series("todd", 3)

# (argument name, least, call with the value as that argument, memoised)
ENTRIES = {
    "bernoulli": ("n", 0, ring.bernoulli, True),
    "zeta_tilde_even": ("k", 1, ring.zeta_tilde_even, True),
    "zeta_fraction": ("k", 2, ring.zeta_fraction, True),
    "Series1": ("order", 0, lambda v: Series1([1, 2], v), False),
    "Series2": ("order", 0, lambda v: Series2({(1, 0): 1}, v), False),
    "gaussian_bracket": ("n", 1, fgl.gaussian_bracket, False),
    "catalog": ("order", 2, lambda v: fgl.catalog("additive", v), True),
    "genus_series": ("order", 0, lambda v: genus.genus_series("todd", v), True),
    "genus_cpn": ("n", 0, lambda v: genus.genus_cpn(TODD_3, v), False),
    "genus_table": ("max_n", 1, lambda v: genus.genus_table("todd", v), False),
    "msp_agreement_check": ("m", 1, lambda v: genus.msp_agreement_check(2, v), False),
    "ahat_pontryagin_identity": ("m", 1, lambda v: genus.ahat_pontryagin_identity(2, v), False),
    "witten_series-x_order": ("x_order", 2, lambda v: genus.witten_series(v, 2), True),
    "witten_series-q_order": ("q_order", 2, lambda v: genus.witten_series(2, v), True),
    "conjugation_equivariance_check": ("n_max", 1, genus.conjugation_equivariance_check, False),
    "numeric_gamma_validation": ("order", 10, lambda v: genus.numeric_gamma_validation(0, v), False),
    "projective": ("a projective dimension", 0, lambda v: ManifoldDescriptor(projective=(1, v)), False),
    "chern_dim": ("chern_dim", 0, lambda v: ManifoldDescriptor(chern_dim=v, chern=()), False),
    "run_suite": ("order", 2, lambda v: verify.run_suite("witten", v), False),
}


def _memo_sizes():
    """The size of every memo of the package: each module's lru_caches and
    the one build per name of the law catalog and of the genus series."""
    sizes = [len(fgl._BUILT), len(genus._SERIES)]
    for module in MODULES:
        sizes += [v.cache_info().currsize for v in vars(module).values() if hasattr(v, "cache_info")]
    return sizes


def _assert_refused(call, value, error, message):
    """call(value) raises by the rule and leaves every memo as it was."""
    before = _memo_sizes()
    with pytest.raises(error, match=message):
        call(value)
    assert _memo_sizes() == before, "a refused call filled a memo"


@pytest.mark.parametrize("kind", ["float", "bool", "below"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_refuses_by_the_rule_cold_and_warm(entry, kind, cold):
    what, least, call, memoised = ENTRIES[entry]
    value = {"float": 2.0, "bool": True, "below": least - 1}[kind]
    if kind == "below":
        error, message = ValueError, f"^{what} must be >= {least}, not {least - 1}$"
    else:
        error, message = TypeError, f"^{what} must be an int, not {type(value).__name__}$"
    _assert_refused(call, value, error, message)
    if memoised:
        if int(value) >= least:
            call(int(value))  # the int form is answered, and memoised
        _assert_refused(call, value, error, message)
