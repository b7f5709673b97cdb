"""Fault injection over the verify report.

Every check in the order-6 report but one is given a broken input, and must
then fail in the one result shape: an integer degree, plus the offending
coefficient for an exact check or the residual in `detail` for a numeric one.
Each injection replaces a name at the site that reads it, and every test
starts and ends with the package's memos empty, so no broken value outlives
its test.
"""

from fractions import Fraction
from unittest import mock

import pytest

from genusforge import fgl, genus, symfun, verify
from genusforge.check import replace
from genusforge.ring import RingElement
from genusforge.series import Series1, Series2

from conftest import clear_memos

pytestmark = pytest.mark.usefixtures("cold")

ORDER = 6
# An adjudication record: it reports what the candidate conventions give and passes.
ALWAYS_PASSES = {"mobius_convention_sweep"}
NUMERIC = {"even_zeta_table_numeric_1e-12", "numeric_gamma_validation", "zeta_map_signs"}


class _Seen:
    """A module as one reader sees it: some attributes replaced, the rest its own."""

    def __init__(self, module, **replaced):
        self._module = module
        vars(self).update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _wrap(module, attr, change):
    """Replace module.attr by change(original, *args), for the readers of module."""

    def inject(mp):
        original = getattr(module, attr)
        mp.setattr(module, attr, lambda *args, **kw: change(original, *args, **kw))

    return inject


def _seen_by_verify(module, attr, change):
    """Replace module.attr by change(original, *args), for verify's reads only."""

    def inject(mp):
        original = getattr(module, attr)
        seen = _Seen(module, **{attr: lambda *args, **kw: change(original, *args, **kw)})
        mp.setattr(verify, module.__name__.rsplit(".", 1)[1], seen)

    return inject


def _term(k, c, order):
    """The series c z^k."""
    return Series1({k: c}, order)


def _law_plus(name, bump):
    """A catalog change that adds the terms `bump` to the F of the law `name`."""

    def change(original, law_name, order, *args, **kw):
        law = original(law_name, order, *args, **kw)
        return replace(law, F=law.F + Series2(bump, law.order)) if law_name == name else law

    return change


def _bumped_law(name):
    """verify reads the catalog law `name` with z0 z1 + z0 z1^2 added to F: a
    weight-0 term at (1, 1), and F no longer commutative."""
    return _seen_by_verify(fgl, "catalog", _law_plus(name, {(1, 1): 1, (1, 2): 1}))


def _plus_one_for(name):
    """A change that adds 1 to a value read for the series called `name`."""
    return lambda original, g, *args: original(g, *args) + (1 if g.name == name else 0)


def _witten(change):
    return _seen_by_verify(genus, "witten_series", lambda original, *args: change(original(*args)))


def _bumped_series(name):
    def change(original, series_name, order, *args):
        g = original(series_name, order, *args)
        return replace(g, H=g.H + _term(2, 1, order)) if series_name == name else g

    return _wrap(genus, "genus_series", change)


def _other_root_sign(m):
    """The alphabet of m roots with x_m doubled in place of +-x_m."""
    return lambda original, k: original(k)[:-1] + original(k)[-2:-1] if k == m else original(k)


_GAMMA_EXP_BUMP = _wrap(
    genus, "gamma_exponential", lambda original, n: original(n) + _term(1, Fraction(1, 1000), n)
)
_EVEN_ZETA_BUMP = _wrap(
    verify, "zeta_tilde_even", lambda original, k: original(k) + Fraction(k == 4, 10**9)
)

INJECTIONS = {
    **{f"axioms_{name}": _bumped_law(name) for name in fgl.CATALOG},
    **{f"negation_{name}": _bumped_law(name) for name in fgl.CATALOG},
    **{f"log_exp_roundtrip_{name}": _bumped_law(name) for name in fgl.EXPONENTIALS},
    "grading_gamma_raw": _bumped_law("gamma_raw"),
    "grading_jacobi": _bumped_law("jacobi"),
    "grading_universal": _bumped_law("universal_additive"),
    "kontsevich_germ_vs_closed": _bumped_law("kontsevich"),
    "jacobi_specializes_to_hyperbolic": _bumped_law("hyperbolic"),
    "canonical_iso_kontsevich_to_multiplicative": _bumped_law("multiplicative"),
    "gamma_law_z0z1_coefficient": _bumped_law("gamma_raw"),
    **{
        f"mishchenko_{name}": _wrap(genus, "genus_cpn", _plus_one_for(name))
        for name in verify._MISHCHENKO_SERIES
    },
    **{f"msp_agreement_m{m}": _wrap(genus, "_roots_pm", _other_root_sign(m)) for m in (1, 2, 3)},
    "msp_mutant_fails": _seen_by_verify(
        genus, "msp_agreement_check", lambda original, order, m, mutant=False: original(order, m)
    ),
    "ahat_pontryagin_identity_m3": _wrap(
        genus, "power_sum_over", lambda original, roots, k: original(roots, k) * 2
    ),
    "even_zeta_table_exact": _EVEN_ZETA_BUMP,
    "even_zeta_table_numeric_1e-12": _EVEN_ZETA_BUMP,
    "normalized_gamma_structure": _wrap(
        genus, "sqrt_series", lambda original, f: original(f) + _term(2, 1, f.order)
    ),
    "conjugation_equivariance_cp4": _wrap(genus, "genus_cpn", _plus_one_for("gamma_conjugate")),
    "numeric_gamma_validation": _GAMMA_EXP_BUMP,
    "zeta_map_signs": _wrap(genus, "zeta_numeric", lambda original, k: original(k) * (1 + 1e-6)),
    "todd_cpn_all_one": _seen_by_verify(genus, "genus_cpn", _plus_one_for("todd")),
    "ahat_cpn_values": _seen_by_verify(genus, "genus_cpn", _plus_one_for("ahat")),
    "chern_route_matches_product_route": _seen_by_verify(
        genus, "genus_of", _plus_one_for("hyperbolic")
    ),
    "hodge_chi_minus_t_cp5": _wrap(
        genus,
        "hodge_chi_minus_t",
        lambda original, n: original(n) + (RingElement.gen("t", n + 1) if n == 3 else 0),
    ),
    **{
        f"symplectic_power_sums_m{m}_k{k}": _wrap(
            symfun,
            "power_sum_over",
            lambda original, alphabet, j, m=m: original(alphabet, j) + (len(alphabet) == 2 * m),
        )
        for m, k in ((1, 1), (2, 2), (3, 2))
    },
    "chi_rescaled_structure": _wrap(
        genus, "gaussian_bracket", lambda original, n: original(n) + (1 if n == 2 else 0)
    ),
    "witten_evenness": _witten(lambda w: replace(w, H=w.H + _term(3, 1, w.x_order))),
    "witten_q0_is_ahat": _witten(lambda w: replace(w, H=w.H + _term(2, 1, w.x_order))),
    **{
        f"witten_divisor_sum_k{k}": _witten(
            lambda w, k=k: replace(w, log_H=w.log_H + _term(2 * k, 1, w.x_order))
        )
        for k in (1, 2, 3)
    },
    "witten_x2q1_is_one": _witten(
        lambda w: replace(w, log_H=w.log_H + _term(2, RingElement.gen("q"), w.x_order))
    ),
    "universal_h_coefficients": _bumped_series("universal_additive"),
    "universal_specializes_to_gamma": _GAMMA_EXP_BUMP,
    "universal_law_integral_z_en": _wrap(
        genus, "catalog", _law_plus("universal_additive", {(1, 2): Fraction(1, 2)})
    ),
}


@pytest.fixture(scope="module")
def unbroken():
    """Each report record without injection, with its suite."""
    return {
        rec["name"]: (suite, rec)
        for suite in verify.SUITES
        if suite != "all"
        for rec in verify.run_suite(suite, ORDER)["checks"]
    }


def test_table_covers_every_report_name_and_each_passes_unbroken(unbroken):
    assert len(unbroken) == 66
    assert set(INJECTIONS) == set(unbroken) - ALWAYS_PASSES
    assert all(rec["status"] == "PASS" for _, rec in unbroken.values())


@pytest.mark.parametrize("name", sorted(INJECTIONS))
def test_injected_fault_names_its_degree_and_defect(name, unbroken, monkeypatch):
    INJECTIONS[name](monkeypatch)
    report = verify.run_suite(unbroken[name][0], ORDER)
    record = next(rec for rec in report["checks"] if rec["name"] == name)
    assert record["status"] == "FAIL" and name in report["failing"], record
    assert type(record["degree"]) is int
    if name in NUMERIC:
        assert record["detail"].startswith("residual ") and "coefficient" not in record
    else:
        assert not RingElement.from_obj(record["coefficient"]).is_zero()


def test_a_mixed_term_in_chi_rescaled_fails_at_a_tie_of_index_kinds(monkeypatch):
    """u z0 z1 added to the chi_rescaled law breaks its logarithm at degree 2
    and its u -> 1/u symmetry at (1, 1): an integer and a tuple index tie on
    degree, and the record names the involution's difference 1/u - u."""
    u = RingElement.gen("u")
    _wrap(genus, "catalog", _law_plus("chi_rescaled", {(1, 1): u}))(monkeypatch)
    report = verify.run_suite("gamma", ORDER)
    record = next(rec for rec in report["checks"] if rec["name"] == "chi_rescaled_structure")
    assert (record["status"], type(record["degree"])) == ("FAIL", int), record
    coefficient = RingElement.from_obj(record["coefficient"])
    assert record["degree"] == 2 and not coefficient.is_zero()
    assert coefficient == RingElement.gen("u", -1) - u


def test_the_table_streams_and_names_each_check_once():
    """The first pair of the fgl suite runs only the first check.  Across all
    suites no name repeats, which collecting into a dict would hide."""
    with mock.patch.object(fgl, "check_axioms", wraps=fgl.check_axioms) as spy:
        name, _ = next(verify._fgl_checks(ORDER))
    assert (name, spy.call_count) == (f"axioms_{fgl.CATALOG[0]}", 1)
    names = [
        name
        for suite in verify._SUITE_BUILDERS
        for name, _ in getattr(verify, f"_{suite}_checks")(ORDER)
    ]
    assert len(names) == len(set(names)) == 66


def test_a_fault_in_the_product_alone_fails_every_divisor_record(monkeypatch):
    """q x^2 added to H keeps H even with its A-hat slice, and log_H unchanged;
    only the comparison of exp(log_H) with H sees it, at degree 2 as -q."""
    q = RingElement.gen("q")
    _witten(lambda w: replace(w, H=w.H + _term(2, q, w.x_order)))(monkeypatch)
    records = {rec["name"]: rec for rec in verify.run_suite("witten", ORDER)["checks"]}
    for name in ("witten_evenness", "witten_q0_is_ahat", "witten_x2q1_is_one"):
        assert records[name]["status"] == "PASS", name
    for k in (1, 2, 3):
        record = records[f"witten_divisor_sum_k{k}"]
        assert (record["status"], record["degree"]) == ("FAIL", 2), record
        assert RingElement.from_obj(record["coefficient"]) == -q


def _unreduced(original, order, normalized=False):
    """The normalized Gamma exponential with its even zetas left unreduced:
    each x^k coefficient of the raw one times ipi2^(1-k)."""
    raw = original(order)
    if not normalized:
        return raw
    ipi2 = RingElement.gen("ipi2")
    return Series1([c * ipi2 ** (1 - k) for k, c in enumerate(raw.coefficients())], order)


def test_an_unreduced_normalized_series_fails_the_msp_records(monkeypatch):
    """The msp records read the normalized series as built, reducing nothing
    themselves, so zeta(2) ipi2^-2 left in H fails each at degree 2 with the
    structure record."""
    _wrap(fgl, "gamma_exponential", _unreduced)(monkeypatch)
    records = {rec["name"]: rec for rec in verify.run_suite("gamma", ORDER)["checks"]}
    left = RingElement.gen("zeta2") * RingElement.gen("ipi2", -2) + Fraction(1, 24)
    for m in (1, 2, 3):
        record = records[f"msp_agreement_m{m}"]
        assert (record["status"], record["degree"]) == ("FAIL", 2), record
        squares = sum((RingElement.gen(f"x{i}", 2) for i in range(1, m + 1)), RingElement.zero())
        assert RingElement.from_obj(record["coefficient"]) == left * squares
    assert records["normalized_gamma_structure"]["status"] == "FAIL"


def test_negation_reads_one_log_and_one_exp_per_law():
    """With the laws built, the fgl suite derives no logarithm anew: n_series,
    negation_series and the round trip read each law's from the memo.  A law
    without a stored exponential has its logarithm reverted by exponential()
    in [1](z) and in [-1](z), and a law built from one in the round trip."""
    verify.run_suite("fgl", ORDER)
    derived = fgl.logarithm.cache_info().misses
    with mock.patch.object(Series1, "revert", autospec=True, side_effect=Series1.revert) as revert:
        verify.run_suite("fgl", ORDER)
    assert fgl.logarithm.cache_info().misses == derived
    unstored = [name for name in fgl.CATALOG if fgl.catalog(name, ORDER).exp is None]
    assert revert.call_count == 2 * len(unstored) + len(fgl.EXPONENTIALS), revert.call_count


def test_one_verify_derives_each_logarithm_once():
    """From empty memos, an order-6 verify derives 11 law logarithms and 45
    characteristic logarithms (31 of them for the Chern rows of a distinct
    truncation H_n), and reads the 25 and 8 repeats from the memos (the fgl
    suite reads each law's logarithm through n_series and negation_series);
    clear_memos empties both."""
    verify.run_suite("all", 6)
    memos = (fgl.logarithm, symfun._characteristic_log)
    assert [(m.cache_info().hits, m.cache_info().misses) for m in memos] == [(25, 11), (8, 45)]
    clear_memos()
    assert [m.cache_info().currsize for m in memos] == [0, 0]


@pytest.mark.parametrize("name", fgl.CATALOG)
def test_bumped_law_negation_record(name, monkeypatch):
    """With z0 z1 + z0 z1^2 added to F, a law with a stored exponential fails
    [1](z) = z at degree 2 with -1/2; the others fail the inverse at degree 3 with 1."""
    _bumped_law(name)(monkeypatch)
    record = next(
        rec for rec in verify.run_suite("fgl", ORDER)["checks"] if rec["name"] == f"negation_{name}"
    )
    stored = fgl.catalog(name, ORDER).exp is not None
    degree, value = (2, Fraction(-1, 2)) if stored else (3, Fraction(1))
    assert (record["status"], record["degree"]) == ("FAIL", degree), record
    assert RingElement.from_obj(record["coefficient"]) == value
    assert record.get("detail") == ("[1](z) = z" if stored else None)
