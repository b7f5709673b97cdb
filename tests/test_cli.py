import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from genusforge import cli, fgl, verify

_ENV = {**os.environ}
_ENV.pop("GENUSFORGE_ORDER", None)


def run_cli(*args, stdin=None, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "genusforge.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env or _ENV,
    )
    return proc


def run_json(*args, **kw):
    proc = run_cli(*args, **kw)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_usage_error(proc):
    """Exit 2 with one error line on stderr, no traceback and no stdout."""
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class TestFglCommand:
    def test_list(self):
        out = run_json("fgl", "list")
        assert "kontsevich" in out["laws"]
        assert "broken_demo" in out["demo_laws"]

    def test_series_multiplicative(self):
        out = run_json("fgl", "series", "--law", "multiplicative", "--order", "3")
        one = {"terms": [{"num": "1", "den": "1", "exps": {}}]}
        assert out["F"]["coeffs"] == {"0,1": one, "1,0": one, "1,1": one}

    def test_check_jacobi_passes(self):
        proc = run_cli("fgl", "check", "--law", "jacobi", "--order", "8")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)["report"]
        assert report == {"unit": "PASS", "commutativity": "PASS", "associativity": "PASS"}

    def test_check_broken_demo_exits_one(self):
        proc = run_cli("fgl", "check", "--law", "broken-demo", "--order", "6")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)["report"]
        assert report["associativity"]["status"] == "FAIL"

    def test_unknown_law_exits_two(self):
        proc = run_cli("fgl", "check", "--law", "nope", "--order", "6")
        assert proc.returncode == 2

    def test_param_naming_no_generator_exits_two(self):
        proc = run_cli("fgl", "series", "--law", "additive", "--param", "foo=1")
        assert_usage_error(proc)

    def test_order_beyond_maximum_exits_two(self):
        proc = run_cli("fgl", "series", "--law", "additive", "--order", "100000000000")
        assert_usage_error(proc)

    def test_unknown_flag_exits_two(self):
        proc = run_cli("fgl", "check", "--law", "jacobi", "--frobnicate")
        assert_usage_error(proc)

    def test_param_substitution(self):
        out = run_json(
            "fgl", "series", "--law", "jacobi", "--order", "4",
            "--param", "delta=-1/8", "--param", "epsilon=0",
        )
        hyp = run_json("fgl", "series", "--law", "hyperbolic", "--order", "4")
        assert out["F"] == hyp["F"]

    @pytest.mark.parametrize("command", ["series", "check"])
    @pytest.mark.parametrize("law, param", [("gamma_normalized", "ipi2"), ("chi_rescaled", "u")])
    def test_zero_param_under_a_negative_power_exits_two(self, command, law, param):
        proc = run_cli("fgl", command, "--law", law, "--order", "5", "--param", f"{param}=0")
        assert_usage_error(proc)
        assert f"param {param!r} must be invertible" in proc.stderr

    def test_iso(self):
        out = run_json(
            "fgl", "iso", "--from", "kontsevich", "--to", "multiplicative", "--order", "8"
        )
        assert out["verify"] == {"status": "PASS"}


class TestGenusCommand:
    @pytest.mark.parametrize(
        "series, presentation", [("gamma_raw", "normalized"), ("todd", "normalized")]
    )
    def test_presentation_that_contradicts_the_series_exits_two(self, series, presentation):
        proc = run_cli("genus", "cpn", "--series", series, "--presentation", presentation, "--n", "1")
        assert_usage_error(proc)
        assert "presentation" in proc.stderr

    def test_cpn_ahat(self):
        out = run_json("genus", "cpn", "--series", "ahat", "--n", "2")
        assert out["rows"] == [
            {"n": 2, "value": {"terms": [{"num": "-1", "den": "8", "exps": {}}]}}
        ]

    def test_todd_table(self):
        out = run_json("genus", "cpn", "--series", "todd", "--max-n", "6")
        assert len(out["rows"]) == 6
        one = {"terms": [{"num": "1", "den": "1", "exps": {}}]}
        assert all(row["value"] == one for row in out["rows"])

    def test_gamma_raw_cp1(self):
        out = run_json("genus", "cpn", "--series", "gamma_raw", "--n", "1")
        assert out["rows"][0]["value"] == {
            "terms": [{"num": "-2", "den": "1", "exps": {"gamma": 1}}]
        }

    def test_chern(self):
        out = run_json(
            "genus", "chern", "--series", "todd", "--dim", "2", "--chern", "c1^2=9,c2=3"
        )
        assert out["value"] == {"terms": [{"num": "1", "den": "1", "exps": {}}]}

    @pytest.mark.parametrize("series", ["broken_demo", "broken-demo", "elliptic"])
    def test_series_outside_the_genus_catalog_exits_two(self, series):
        assert_usage_error(run_cli("genus", "cpn", "--series", series, "--n", "3"))
        assert_usage_error(
            run_cli("genus", "chern", "--series", series, "--dim", "1", "--chern", "c1=2")
        )

    @pytest.mark.parametrize("series", ["kontsevich", "jacobi", "todd"])
    def test_closed_form_and_table_series_at_dimension_zero_and_one(self, series):
        one = {"terms": [{"num": "1", "den": "1", "exps": {}}]}
        assert run_json("genus", "cpn", "--series", series, "--n", "0")["rows"][0]["value"] == one
        run_json("genus", "chern", "--series", series, "--dim", "1", "--chern", "c1=2")

    def test_dimension_zero_rejects_a_nonempty_partition(self):
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "0", "--chern", "c1=1")
        assert_usage_error(proc)

    def test_malformed_chern_exits_two(self):
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "2", "--chern", "b2=1")
        assert proc.returncode == 2

    def test_requires_n_xor_max_n(self):
        proc = run_cli("genus", "cpn", "--series", "todd")
        assert proc.returncode == 2

    def test_huge_chern_exponent_exits_two(self):
        proc = run_cli(
            "genus", "chern", "--series", "todd", "--dim", "2", "--chern", "c1^100000000000=1"
        )
        assert_usage_error(proc)

    @pytest.mark.parametrize("chern", ["c1^-1=1", "c1^0=1,c2=3"])
    def test_non_positive_chern_exponent_exits_two(self, chern):
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "2", "--chern", chern)
        assert_usage_error(proc)

    @pytest.mark.parametrize("chern", ["c1^2=1,c2=3,c1^2=9", "c1*c1=1,c2=3,c1^2=9"])
    def test_repeated_partition_exits_two(self, chern):
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "2", "--chern", chern)
        assert_usage_error(proc)

    def test_incomplete_table_in_high_dimension_exits_two_quickly(self):
        start = time.perf_counter()
        code, out, err = _run_in_process(
            ["genus", "chern", "--series", "todd", "--dim", "60", "--chern", "c1^60=1"], ""
        )
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_incomplete_table_is_rejected_before_the_series_is_built(self):
        # Building a gamma series at order 60 takes over ten seconds, so the table
        # must be checked first.
        start = time.perf_counter()
        code, out, err = _run_in_process(
            ["genus", "chern", "--series", "gamma", "--dim", "60", "--chern", "c1^60=1"], ""
        )
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("genus", "cpn", "--series", "todd", "--n"),
        ("genus", "cpn", "--series", "todd", "--max-n"),
        ("genus", "table", "--series", "todd", "--max-n"),
        ("genus", "chern", "--series", "todd", "--chern", "c1=1", "--dim"),
        ("witten", "--x-order"),
        ("witten", "--q-order"),
    ],
    ids=["cpn-n", "cpn-max-n", "table-max-n", "chern-dim", "witten-x-order", "witten-q-order"],
)
def test_size_beyond_maximum_exits_two(argv):
    assert_usage_error(run_cli(*argv, str(cli.MAX_ORDER + 1)))


@pytest.mark.parametrize(
    "argv",
    [
        ("fgl", "list", "--json"),
        ("fgl", "iso", "--from", "kontsevich", "--to", "multiplicative", "--json"),
        ("genus", "table", "--series", "todd", "--max-n", "2", "--n", "3"),
    ],
    ids=["fgl-list-json", "fgl-iso-json", "genus-table-n"],
)
def test_options_that_do_nothing_are_rejected(argv):
    assert_usage_error(run_cli(*argv))


class TestSeriesCommand:
    def test_exp_log_round_trip(self):
        z = {
            "order": 5,
            "coeffs": [{"terms": []}, {"terms": [{"num": "1", "den": "1", "exps": {}}]}]
            + [{"terms": []}] * 4,
        }
        e = run_json("series", "exp", stdin=json.dumps(z))
        assert e["coeffs"][2] == {"terms": [{"num": "1", "den": "2", "exps": {}}]}
        lg = run_json("series", "log", stdin=json.dumps(e))
        assert lg == z

    def test_revert(self):
        f = {
            "order": 4,
            "coeffs": [
                {"terms": []},
                {"terms": [{"num": "1", "den": "1", "exps": {}}]},
                {"terms": [{"num": "-1", "den": "1", "exps": {}}]},
                {"terms": []},
                {"terms": []},
            ],
        }
        out = run_json("series", "revert", stdin=json.dumps(f))
        nums = [c["terms"][0]["num"] if c["terms"] else "0" for c in out["coeffs"]]
        assert nums == ["0", "1", "1", "2", "5"]

    def test_bad_input_exits_two(self):
        proc = run_cli("series", "exp", stdin="not json")
        assert proc.returncode == 2

    def test_bad_constant_exits_two(self):
        one = {"order": 2, "coeffs": [{"terms": [{"num": "1", "den": "1", "exps": {}}]}, {"terms": []}, {"terms": []}]}
        proc = run_cli("series", "log", stdin=json.dumps({**one, "coeffs": [{"terms": []}] * 3}))
        assert proc.returncode == 2


    def test_unreadable_input_exits_two(self, tmp_path):
        undecodable = tmp_path / "latin1.json"
        undecodable.write_bytes(b"\xff{")
        for path in (tmp_path / "missing.json", tmp_path, undecodable):
            assert_usage_error(run_cli("series", "exp", "--input", str(path)))

    def test_zero_denominator_exits_two(self):
        f = {"order": 1, "coeffs": [{"terms": []}, {"terms": [{"num": "1", "den": "0", "exps": {}}]}]}
        assert_usage_error(run_cli("series", "exp", stdin=json.dumps(f)))

    def test_top_level_not_an_object_exits_two(self):
        assert_usage_error(run_cli("series", "exp", stdin="[1,2]"))

    def test_terms_not_a_list_exits_two(self):
        f = {"order": 1, "coeffs": [{"terms": 5}, {"terms": []}]}
        assert_usage_error(run_cli("series", "exp", stdin=json.dumps(f)))

    def test_order_beyond_maximum_exits_two(self):
        f = {"order": 100000000000, "coeffs": []}
        assert_usage_error(run_cli("series", "exp", stdin=json.dumps(f)))

    @pytest.mark.parametrize("name", ["gamma", "e1"])
    def test_revert_with_non_laurent_linear_term_exits_two(self, name):
        f = {"order": 1, "coeffs": [{"terms": []}, {"terms": [{"num": "1", "den": "1", "exps": {name: 1}}]}]}
        assert_usage_error(run_cli("series", "revert", stdin=json.dumps(f)))

    def test_result_beyond_int_digit_limit_exits_two(self):
        big = {"terms": [{"num": "9" * 1000, "den": "1", "exps": {}}]}
        f = {"order": 6, "coeffs": [{"terms": []}, big]}
        assert_usage_error(run_cli("series", "exp", stdin=json.dumps(f)))


def _run_in_process(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    """Exit 0, 1 or 2, no traceback, stdout empty or one JSON line, and an
    exit 2 with an error line first on stderr and nothing on stdout."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if out:
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
    if code == 2:
        assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1
        assert out == ""


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)

_ring_terms = st.lists(
    st.fixed_dictionaries(
        {
            "num": st.integers().map(str),
            "den": st.integers(min_value=-3, max_value=9).map(str),
            "exps": st.dictionaries(
                st.sampled_from(["t", "ipi2", "gamma", "zeta3", "x1", "foo"]),
                st.integers(min_value=-3, max_value=3),
                max_size=2,
            ),
        }
    ),
    max_size=2,
)
_unit_or_zero = st.sampled_from([0, 1]).map(
    lambda c: [{"num": "1", "den": "1", "exps": {}}] if c else []
)
# Orders stay small (the operations are cubic in the order) or exceed the maximum.
_bad_orders = st.integers(min_value=cli.MAX_ORDER + 1) | st.sampled_from(
    [None, "3", 2.5, "x", [], {}, float("inf"), float("nan")]
)


@st.composite
def _series_like(draw):
    """A series object, often valid for some operation, with at most one
    field (anywhere in it) replaced by an arbitrary JSON value."""
    coeffs = [
        {"terms": draw(_unit_or_zero | _ring_terms)}
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    obj = {"order": draw(st.integers(min_value=-1, max_value=7)), "coeffs": coeffs}
    slots = [(obj, "order"), (obj, "coeffs")]
    for c in coeffs:
        slots.append((c, "terms"))
        for term in c["terms"]:
            slots.extend((term, key) for key in term)
    if draw(st.booleans()):
        holder, key = draw(st.sampled_from(slots))
        holder[key] = draw(_bad_orders if key == "order" else _json_values)
    return obj


class TestSeriesFuzz:
    """Any stdin keeps the contract: exit 0, 1 or 2, no exception, and stdout
    empty or one JSON line."""

    @settings(max_examples=150)
    @example(
        "revert",
        '{"order":1,"coeffs":[{"terms":[]},{"terms":[{"num":"1","den":"1","exps":{"gamma":1}}]}]}',
    )
    @given(
        st.sampled_from(["exp", "log", "sqrt", "revert"]),
        st.one_of(_json_values.map(json.dumps), _series_like().map(json.dumps), st.text(max_size=20)),
    )
    def test_contract(self, op, stdin):
        _assert_contract(*_run_in_process(["series", op], stdin))


# The generators each law accepts as params, plus names it does not accept.
_LAW_PARAMS = {
    "multiplicative_t": ["t"],
    "kontsevich": ["t"],
    "jacobi": ["delta", "epsilon"],
    "gamma_raw": ["gamma", "zeta2", "zeta3", "zeta1"],
    "gamma_normalized": ["gamma", "ipi2", "zeta2", "zeta3"],
    "chi_rescaled": ["u"],
    "universal_additive": ["e1", "e2", "e0"],
}
_FOREIGN_PARAMS = ["t", "u", "ipi2", "foo", ""]
_PARAM_VALUES = st.sampled_from(["0", "1/0", "1", "-1", "1/2", "x", ""]) | st.fractions(
    max_denominator=9
).map(str)


@st.composite
def _fgl_param_argv(draw):
    law = draw(st.sampled_from(fgl.CATALOG + fgl.DEMO_LAWS))
    names = st.sampled_from(_LAW_PARAMS.get(law, []) + _FOREIGN_PARAMS)
    argv = ["fgl", draw(st.sampled_from(["series", "check"])), "--law", law]
    argv += ["--order", str(draw(st.integers(min_value=2, max_value=5)))]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        argv += ["--param", f"{draw(names)}={draw(_PARAM_VALUES)}"]
    return argv


class TestFglParamFuzz:
    """Any --param keeps the contract of fgl series|check: exit 0, 1 or 2, no
    exception, and stdout empty or one JSON line."""

    @settings(max_examples=80, deadline=None)
    @example(["fgl", "series", "--law", "gamma_normalized", "--order", "5", "--param", "ipi2=0"])
    @example(["fgl", "check", "--law", "chi_rescaled", "--order", "5", "--param", "u=0"])
    @example(["fgl", "check", "--law", "chi_rescaled", "--order", "3", "--param", "u=1/0"])
    @given(_fgl_param_argv())
    def test_contract(self, argv):
        _assert_contract(*_run_in_process(argv, ""))


# Every leaf command with its flags, and values for each flag: valid ones,
# sizes from -2 to 6, and junk.  Commands are also cut short or unknown, and
# tokens are dropped in anywhere.  No token is -h or --help, nor an
# abbreviation of --help.
_SIZES = st.integers(min_value=-2, max_value=6).map(str) | st.sampled_from(["x", "1001", "1e3", ""])
_LAWS = st.sampled_from(fgl.CATALOG + fgl.DEMO_LAWS + ("broken-demo", "nope"))
_FLAG_VALUES = {
    "--law": _LAWS,
    "--from": _LAWS,
    "--to": _LAWS,
    "--order": _SIZES,
    "--param": st.sampled_from(["t=2", "delta=1/3", "epsilon=0", "t=1/0", "u=0", "x=", "t"]),
    "--series": st.sampled_from(
        ["todd", "ahat", "gamma", "gamma_raw", "gamma_normalized", "kontsevich", "elliptic"]
    ),
    "--presentation": st.sampled_from(["raw", "normalized", "bogus"]),
    "--n": _SIZES,
    "--max-n": _SIZES,
    "--dim": _SIZES,
    "--chern": st.sampled_from(["c1=2", "c1^2=9,c2=3", "c2=1", "c1^0=1", "c1=1/0", "b2=1", ""]),
    "--x-order": _SIZES,
    "--q-order": _SIZES,
    "--input": st.sampled_from(["-", ".", "missing.json"]),
    "--suite": st.sampled_from(verify.SUITES + ("everything",)),
}
_FGL_LAW = ["--law", "--order", "--param"]
_GENUS = ["--series", "--presentation"]
_COMMANDS = {
    ("fgl", "list"): [],
    ("fgl", "series"): _FGL_LAW,
    ("fgl", "check"): _FGL_LAW,
    ("fgl", "iso"): ["--from", "--to", "--order"],
    ("genus", "cpn"): _GENUS + ["--n", "--max-n"],
    ("genus", "table"): _GENUS + ["--max-n"],
    ("genus", "chern"): _GENUS + ["--dim", "--chern"],
    ("witten",): ["--x-order", "--q-order", "--log"],
    ("verify",): ["--suite", "--order"],
    **{("series", op): ["--input"] for op in ("exp", "log", "sqrt", "revert")},
    **{path: [] for path in [(), ("fgl",), ("genus",), ("series",), ("frobnicate",), ("genus", "x")]},
}
_JUNK = st.one_of(
    st.sampled_from(sorted(_FLAG_VALUES) + ["--log", "--json", "--frobnicate", "--", "-x", "-1"]),
    st.text(max_size=6).filter(lambda t: not t.startswith("-")),
)


@st.composite
def _argv(draw):
    path = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(path)
    for flag in _COMMANDS[path]:
        if draw(st.integers(min_value=0, max_value=3)):
            argv.append(flag)
            if flag in _FLAG_VALUES and draw(st.integers(min_value=0, max_value=19)):
                argv.append(draw(_FLAG_VALUES[flag]))
    for _ in range(draw(st.integers(min_value=-3, max_value=2))):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), draw(_JUNK))
    return argv


_SERIES_STDIN = ["", "not json", json.dumps({"order": 3, "coeffs": [{"terms": []}] * 4})]


class TestArgvFuzz:
    """Any argv but -h/--help keeps the contract: main returns 0, 1 or 2 and
    raises nothing, SystemExit included; stdout is empty or one JSON line; a
    usage error is one error line on stderr."""

    @settings(max_examples=1500, deadline=None)
    @example(["fgl", "check", "--law", "jacobi", "--frobnicate"], "")
    @example(["fgl", "series", "--law", "additive", "--order", "1001"], "")
    @example(["genus", "cpn", "--series", "todd"], "")
    @example(["fgl"], "")
    @example(["fgl", "iso", "\n", "--from", "additive", "--to", "additive"], "")
    @example(["genus", "cpn", "--\u2028"], "")
    @given(_argv(), st.sampled_from(_SERIES_STDIN))
    def test_contract(self, argv, stdin):
        # A small default order keeps each example fast.
        with mock.patch.dict(os.environ, GENUSFORGE_ORDER="4"):
            try:
                result = _run_in_process(argv, stdin)
            except (Exception, SystemExit) as exc:
                raise AssertionError(f"main({argv!r}) raised {exc!r}") from exc
        _assert_contract(*result)


class TestWittenCommand:
    def test_shape(self):
        out = run_json("witten", "--x-order", "4", "--q-order", "3")
        assert out["x_order"] == 4 and out["q_order"] == 3
        assert out["coeffs"]["order"] == 4

    def test_log_flag(self):
        out = run_json("witten", "--x-order", "4", "--q-order", "3", "--log")
        assert out["what"] == "log"


class TestVerifyCommand:
    def test_small_suites_pass(self):
        for suite in ("iso", "universal", "witten"):
            proc = run_cli("verify", "--suite", suite, "--order", "6")
            assert proc.returncode == 0, (suite, proc.stderr)
            report = json.loads(proc.stdout)
            assert report["status"] == "PASS"

    def test_order_too_small_exits_two(self):
        proc = run_cli("verify", "--order", "1")
        assert proc.returncode == 2

    def test_unknown_suite_exits_two(self):
        proc = run_cli("verify", "--suite", "everything")
        assert proc.returncode == 2

    def test_deterministic_output(self):
        a = run_cli("verify", "--suite", "universal", "--order", "6")
        b = run_cli("verify", "--suite", "universal", "--order", "6")
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_report_bytes_at_order_6(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(verify.run_suite("all", 6))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "f33f3aba4a5959912bf210f0b3ee388ae88620080b96dbfc0156d390f5d9516f"


class TestEnvironment:
    def test_order_env_override(self):
        env = {**_ENV, "GENUSFORGE_ORDER": "4"}
        out = run_json("fgl", "series", "--law", "additive", env=env)
        assert out["order"] == 4

    def test_bad_env_exits_two(self):
        env = {**_ENV, "GENUSFORGE_ORDER": "many"}
        proc = run_cli("fgl", "series", "--law", "additive", env=env)
        assert_usage_error(proc)


class TestZeroDenominators:
    def test_param(self):
        proc = run_cli("fgl", "series", "--law", "jacobi", "--order", "4", "--param", "delta=1/0")
        assert_usage_error(proc)

    def test_chern(self):
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "1", "--chern", "c1=1/0")
        assert_usage_error(proc)


class TestGoldenFiles:
    """Committed outputs that must reproduce byte-for-byte."""

    def _golden(self, name):
        import pathlib

        return (pathlib.Path(__file__).parent / "golden" / name).read_text()

    def test_fgl_series_kontsevich(self):
        proc = run_cli("fgl", "series", "--law", "kontsevich", "--order", "4")
        assert proc.returncode == 0
        assert proc.stdout == self._golden("fgl_series_kontsevich_order4.json")

    def test_genus_table_ahat(self):
        proc = run_cli("genus", "table", "--series", "ahat", "--max-n", "4")
        assert proc.returncode == 0
        assert proc.stdout == self._golden("genus_table_ahat_maxn4.json")
