import contextlib
import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from genusforge import cli, fgl, genus, verify
from genusforge.ring import RingElement
from genusforge.series import Series1

from conftest import MODULES, clear_memos, int_max_str_digits
from oracles import factorwise_parse_chern, fraction_rational, from_chern_genus_chern

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

    @pytest.mark.parametrize(
        "law, param",
        [("gamma_raw", p) for p in ("zeta0", "zeta1", "zeta02")]
        + [("gamma_normalized", p) for p in ("zeta0", "zeta1", "zeta02", "zeta2", "zeta4", "zeta10")]
        + [("universal_additive", p) for p in ("e0", "e01")]
        # an index in non-ASCII digits (ARABIC-INDIC DIGIT ONE) names no generator
        + [("gamma_raw", "zeta1\u0661"), ("gamma_normalized", "zeta1\u06613"), ("universal_additive", "e1\u0661")],
    )
    def test_param_naming_an_index_the_law_never_carries_exits_two(self, law, param):
        argv = ["fgl", "series", "--law", law, "--order", "4", "--param", f"{param}=1"]
        code, out, err = _run_in_process(argv, "")
        assert (code, out) == (2, "")
        assert f"param {param!r} names no generator of law {law!r}" in err

    @pytest.mark.parametrize(
        "law, param",
        [
            ("gamma_raw", "zeta2"),
            ("gamma_raw", "zeta10"),
            ("gamma_normalized", "zeta3"),
            ("gamma_normalized", "zeta11"),
            ("universal_additive", "e10"),
        ],
    )
    def test_param_naming_a_generator_exits_zero(self, law, param):
        argv = ["fgl", "series", "--law", law, "--order", "4", "--param", f"{param}=1"]
        assert _run_in_process(argv, "")[0] == 0

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
    @pytest.mark.parametrize(
        "params", [("delta=1", "delta=2"), ("delta=1", "epsilon=0", " delta =1")]
    )
    def test_repeated_param_name_exits_two(self, command, params):
        argv = ["fgl", command, "--law", "jacobi", "--order", "3"]
        proc = run_cli(*argv, *(arg for param in params for arg in ("--param", param)))
        assert_usage_error(proc)
        assert proc.stderr.count("\n") == 1 and "repeats the name 'delta'" in proc.stderr

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

    @pytest.mark.parametrize("series", ["todd", "ahat", "gamma_raw", "kontsevich", "chi_rescaled"])
    def test_cpn_max_n_prints_the_table(self, series):
        """genus cpn --max-n and genus table are one request: the same bytes."""
        cpn = _run_in_process(["genus", "cpn", "--series", series, "--max-n", "5"], "")
        table = _run_in_process(["genus", "table", "--series", series, "--max-n", "5"], "")
        assert cpn == table and cpn[0] == 0 and cpn[1]

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

    def test_rational_chern_table(self):
        # Todd K_2 = (c1^2 + c2) / 12, so (1/2 - 3/4) / 12 = -1/48.
        out = run_json(
            "genus", "chern", "--series", "todd", "--dim", "2", "--chern", "c1^2=1/2,c2=-3/4"
        )
        assert out["value"] == {"terms": [{"num": "-1", "den": "48", "exps": {}}]}

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

    @pytest.mark.parametrize("factor", ["c" + "1" * 5000, "c1^" + "1" * 5000], ids=["index", "exponent"])
    def test_a_class_past_the_int_digit_limit_names_the_weight_bound(self, factor):
        """An index or exponent longer than the interpreter's int digit limit
        is over the weight bound, and is named so, not by int's own message."""
        entry = f"{factor}=1"
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "1", "--chern", entry)
        assert_usage_error(proc)
        assert proc.stderr == f"error: chern entry {entry!r} has weight above {cli.MAX_ORDER}\n"

    def test_a_negative_dimension_is_refused_by_the_order_rule(self):
        """--dim is bounded above by the CLI and below by the record, whose
        check runs before the table's partitions are counted."""
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "-2", "--chern", "")
        assert_usage_error(proc)
        assert proc.stderr == "error: chern_dim must be >= 0, not -2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("fgl", "series", "--law", "multiplicative_t", "--order", "3", "--param", "t=1e10000000"),
            ("genus", "chern", "--series", "todd", "--dim", "1", "--chern", "c1=1e10000000"),
            ("genus", "chern", "--series", "todd", "--dim", "1", "--chern", "c1=1e-10000000"),
            ("genus", "chern", "--series", "todd", "--dim", "1", "--chern", "c1=2.5E100000000"),
        ],
        ids=["param", "chern", "chern-negative", "chern-decimal"],
    )
    def test_a_literal_exponent_past_the_int_digit_limit_exits_two_quickly(self, argv):
        """Fraction would compute 10**exponent, which takes seconds for
        1e10000000; the literal is refused before it is read."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "genusforge.cli", *argv],
            capture_output=True, text=True, env=_ENV, timeout=30,
        )
        assert time.perf_counter() - start < 2
        assert_usage_error(proc)
        assert proc.stderr.count("\n") == 1 and "exceeds the int digit limit" in proc.stderr

    @pytest.mark.parametrize("chern", ["c1^-1=1", "c1^0=1,c2=3"])
    def test_non_positive_chern_exponent_exits_two(self, chern):
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "2", "--chern", chern)
        assert_usage_error(proc)

    @pytest.mark.parametrize(
        "chern, factor", [("c01=2", "c01"), ("c١=2", "c١"), ("c1^+1=2", "c1^+1"), ("c1^١=2", "c1^١")]
    )
    def test_a_class_the_ring_refuses_exits_two(self, chern, factor):
        """A class index is read as the ring reads a family member's
        ([1-9][0-9]*), and an exponent in ASCII digits only."""
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "1", "--chern", chern)
        assert_usage_error(proc)
        assert proc.stderr == f"error: bad chern class {factor!r}\n"

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

    @pytest.mark.parametrize("exp", [2**23, 2**22])
    def test_exponent_beyond_the_packing_range_exits_two(self, exp):
        """2**23 is refused as input; t**(2**22) is accepted, but its powers
        in the reversion would leave the range."""
        x = {"terms": [{"num": "1", "den": "1", "exps": {"t": exp}}]}
        f = {"order": 3, "coeffs": [{"terms": []}, x, x, x]}
        proc = run_cli("series", "revert", stdin=json.dumps(f))
        assert_usage_error(proc)
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"order":3,"coeffs":[{"terms":[]},{"terms":[{"num":1.9,"den":"1","exps":{}}]},'
             '{"terms":[{"num":"1","den":2.5,"exps":{"t":1.7}}]}]}', "num must be an int or a str, not float"),
            ('{"order":2,"coeffs":[{"terms":[]},{"terms":[{"num":"1","den":2.5,"exps":{}}]}]}',
             "den must be an int or a str, not float"),
            ('{"order":2,"coeffs":[{"terms":[]},{"terms":[{"num":"1","den":"1","exps":{"t":1.7}}]}]}',
             "exponent must be an int or a str, not float"),
            ('{"order":2.9,"coeffs":[{"terms":[]},{"terms":[{"num":"1","den":"1","exps":{}}]}]}',
             "order must be an int or a str, not float"),
            ('{"order":1e10,"coeffs":[]}', "order must be an int or a str, not float"),
            ('{"order":true,"coeffs":[{"terms":[]}]}', "order must be an int or a str, not bool"),
            ('{"order":2,"coeffs":[{"terms":[]},{"terms":[{"num":true,"den":"1","exps":{}}]}]}',
             "num must be an int or a str, not bool"),
            ('{"order":2,"coeffs":[{"terms":[]},{"terms":[{"num":"1","den":false,"exps":{}}]}]}',
             "den must be an int or a str, not bool"),
            ('{"order":2,"coeffs":[{"terms":[]},{"terms":[{"num":"1","den":"1","exps":{"t":true}}]}]}',
             "exponent must be an int or a str, not bool"),
        ],
    )
    def test_a_float_or_bool_number_exits_two(self, text, message):
        """A non-integer JSON number is refused, not truncated."""
        proc = run_cli("series", "revert", stdin=text)
        assert_usage_error(proc)
        assert proc.stderr == f"error: bad series input: {message}\n"

    def test_integer_strings_are_read_as_ints(self):
        f = {"order": "2", "coeffs": [{"terms": []}, {"terms": [{"num": 2, "den": "-4", "exps": {"t": "1"}}]}]}
        out = run_json("series", "revert", stdin=json.dumps(f))
        assert out["coeffs"][1] == {"terms": [{"num": "-2", "den": "1", "exps": {"t": -1}}]}

    def test_result_beyond_int_digit_limit_is_printed(self):
        """exp(N z) at order 6 has the 5995-digit z^6 coefficient N^6/720,
        past the interpreter's 4300-digit limit, and prints exactly."""
        big = {"terms": [{"num": "9" * 1000, "den": "1", "exps": {}}]}
        f = {"order": 6, "coeffs": [{"terms": []}, big]}
        proc = run_cli("series", "exp", stdin=json.dumps(f))
        assert proc.returncode == 0 and proc.stderr == ""
        with int_max_str_digits(0):
            (term,) = json.loads(proc.stdout)["coeffs"][6]["terms"]
            assert Fraction(int(term["num"]), int(term["den"])) == Fraction((10**1000 - 1) ** 6, 720)

    def test_revert_of_a_3000_digit_coefficient_prints(self):
        """z + N z^2 with N of 3000 nines reverts to z - N z^2 + 2 N^2 z^3,
        whose 6000-digit coefficient is past the interpreter's limit."""
        text = (
            '{"order":3,"coeffs":[{"terms":[]},{"terms":[{"num":"1","den":"1","exps":{}}]},'
            '{"terms":[{"num":"' + "9" * 3000 + '","den":"1","exps":{}}]}]}'
        )
        proc = run_cli("series", "revert", stdin=text)
        assert proc.returncode == 0 and proc.stderr == ""
        with int_max_str_digits(0):
            n = int(json.loads(text)["coeffs"][2]["terms"][0]["num"])
            (term,) = json.loads(proc.stdout)["coeffs"][3]["terms"]
            assert (int(term["num"]), term["den"]) == (2 * n * n, "1")

    def test_input_number_beyond_int_digit_limit_exits_two(self):
        big = {"terms": [{"num": "9" * 4301, "den": "1", "exps": {}}]}
        f = {"order": 2, "coeffs": [{"terms": []}, big]}
        proc = run_cli("series", "exp", stdin=json.dumps(f))
        assert_usage_error(proc)
        assert len(proc.stderr.splitlines()) == 1


    @pytest.mark.parametrize("name", ["e1\n", "zeta3\n", "x1\u0661"])
    def test_generator_name_past_its_index_exits_two(self, name):
        one = {"terms": [{"num": "1", "den": "1", "exps": {}}]}
        c = {"terms": [{"num": "1", "den": "1", "exps": {name: 1}}]}
        proc = run_cli("series", "exp", stdin=json.dumps({"order": 2, "coeffs": [{"terms": []}, one, c]}))
        assert_usage_error(proc)
        assert len(proc.stderr.splitlines()) == 1 and "unknown generator" in proc.stderr


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
    """Exit 0, 1 or 2, no traceback, stdout empty or one JSON line, an exit 2
    with one error line on stderr and nothing on stdout, and an exit 1 with
    a JSON line (a check failed)."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if out:
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
    assert code != 1 or out
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


# The argv strategies are built once, not per draw (see conftest); an
# insertion point into a drawn argv comes from one strategy per argv length.
_PATHS = st.sampled_from(sorted(_COMMANDS))
_KEEP_FLAG = st.integers(min_value=0, max_value=3)
_GIVE_VALUE = st.integers(min_value=0, max_value=19)
_N_JUNK = st.integers(min_value=-3, max_value=2)


@lru_cache(maxsize=None)
def _positions(n):
    """st.integers(0, n): a place to insert a token into an argv of n tokens."""
    return st.integers(min_value=0, max_value=n)


@st.composite
def _argv(draw):
    path = draw(_PATHS)
    argv = list(path)
    for flag in _COMMANDS[path]:
        if draw(_KEEP_FLAG):
            argv.append(flag)
            if flag in _FLAG_VALUES and draw(_GIVE_VALUE):
                argv.append(draw(_FLAG_VALUES[flag]))
    for _ in range(draw(_N_JUNK)):
        argv.insert(draw(_positions(len(argv))), draw(_JUNK))
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


# An internal error raised by a handler, with the exit code and the one
# stderr line main must turn it into.
_INTERNAL_ERRORS = [
    (MemoryError, 2, "error: request too large: MemoryError\n"),
    (
        lambda: RecursionError("maximum recursion depth exceeded"),
        2,
        "error: request too large: maximum recursion depth exceeded\n",
    ),
]


class TestArgvFuzzUnderInternalErrors:
    """Any argv whose handler raises MemoryError or RecursionError keeps the
    contract, with that error's exit code and line; an argv that does not
    parse is still a usage error."""

    @settings(max_examples=300, deadline=None)
    @given(_argv(), st.sampled_from(_SERIES_STDIN), st.sampled_from(_INTERNAL_ERRORS))
    def test_contract(self, argv, stdin, internal_error):
        make, code, line = internal_error
        parsed, real_parse = [], cli._parse

        def parse(argv):
            args = real_parse(argv)
            parsed.append(args)
            args.run = mock.Mock(side_effect=make())
            return args

        with mock.patch.object(cli, "_parse", parse):
            try:
                result = _run_in_process(argv, stdin)
            except (Exception, SystemExit) as exc:
                raise AssertionError(f"main({argv!r}) raised {exc!r}") from exc
        _assert_contract(*result)
        if parsed:
            assert result == (code, "", line)
        else:
            assert result[0] == 2


class TestInternalErrors:
    """Errors from inside the library end a request with one error line and
    no traceback: too large a request exits 2."""

    @pytest.mark.parametrize("exc", [MemoryError(), RecursionError("maximum recursion depth exceeded")])
    def test_request_too_large_exits_two(self, exc):
        with mock.patch.object(genus, "genus_table", side_effect=exc):
            code, out, err = _run_in_process(["genus", "table", "--series", "todd", "--max-n", "3"], "")
        assert (code, out) == (2, "")
        assert err == f"error: request too large: {str(exc) or 'MemoryError'}\n"

    def test_real_recursion_error_exits_two(self):
        def deep(n):
            return deep(n + 1)

        with mock.patch.object(fgl, "catalog", side_effect=lambda *a: deep(0)):
            code, out, err = _run_in_process(["fgl", "series", "--law", "additive"], "")
        assert (code, out) == (2, "")
        assert err.startswith("error: request too large: maximum recursion depth exceeded")
        assert len(err.splitlines()) == 1


# Literals for a rational value: plain integers in every spelling int and
# Fraction could disagree on, and what only Fraction reads or neither does.
_LITERALS = [
    "-3", "+3", "007", "-0", "3/6", "1.5", "1e2", " 7 ", "1_0", "\u0663", "\u00b2",
    "--5", "3/0", "", "+-1", "0x10", "12 3", "9" * 4300, "-" + "9" * 4301,
]
_VALUES = st.sampled_from(_LITERALS) | st.integers().map(str) | st.fractions().map(str)


def _both_routes(argv):
    """main(argv), then main(argv) with every literal read by Fraction and a
    `genus chern` table normalized again by from_chern."""
    new = _run_in_process(argv, "")
    leaf = cli._leaf(("genus", "chern"))
    spy = mock.Mock(side_effect=from_chern_genus_chern)
    with mock.patch.object(cli, "_rational", fraction_rational), mock.patch.dict(
        leaf._defaults, run=spy
    ):
        old = _run_in_process(argv, "")
    assert spy.call_count == (argv[:2] == ["genus", "chern"])
    return new, old


@st.composite
def _chern_argv(draw):
    """A `genus chern` request: each partition of dim spelled as a product or
    with powers, entries sometimes dropped or repeated, values from _VALUES."""
    dim = draw(st.integers(min_value=0, max_value=4))
    entries = []
    for lam in genus.partitions(dim):
        parts = [f"c{k}" for k in draw(st.permutations(lam))]
        if draw(st.booleans()):
            counts = {p: parts.count(p) for p in parts}
            parts = [p if e == 1 else f"{p}^{e}" for p, e in counts.items()]
        entries.append(f"{'*'.join(parts)}={draw(_VALUES)}")
    if entries and not draw(st.integers(min_value=0, max_value=9)):
        entries.pop(draw(st.integers(min_value=0, max_value=len(entries) - 1)))
    if entries and not draw(st.integers(min_value=0, max_value=9)):
        entries.append(draw(st.sampled_from(entries)))
    series = draw(st.sampled_from(["todd", "ahat", "gamma_raw", "hyperbolic", "jacobi"]))
    return ["genus", "chern", "--series", series, "--dim", str(dim), "--chern", ",".join(entries)]


class TestRationalParity:
    """Reading plain integers with int and taking the parsed Chern table as
    it stands give the bytes, exit code and error line of the Fraction and
    from_chern route."""

    @pytest.mark.parametrize("value", _LITERALS)
    def test_listed_literals(self, value):
        for argv in (
            ["genus", "chern", "--series", "todd", "--dim", "1", "--chern", f"c1={value}"],
            ["genus", "chern", "--series", "ahat", "--dim", "2", "--chern", f"c2={value},c1^2=4"],
            ["fgl", "series", "--law", "jacobi", "--order", "3", "--param", f"delta={value}"],
        ):
            new, old = _both_routes(argv)
            assert new == old, argv

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-max-order", "above-max-order"])
    def test_entry_weight_spread_over_many_factors(self, extra):
        """An entry of weight MAX_ORDER, spelled as MAX_ORDER factors, is read
        whole; one more factor is refused at that factor."""
        entry = "*".join(["c1"] * (cli.MAX_ORDER + extra)) + "=1"
        dim = str(cli.MAX_ORDER)
        new, old = _both_routes(["genus", "chern", "--series", "todd", "--dim", dim, "--chern", entry])
        assert new == old
        code, out, err = new
        assert (code, out) == (2, "")
        if extra:
            assert err == f"error: chern entry {entry!r} has weight above {cli.MAX_ORDER}\n"
        else:
            assert err == f"error: chern table keys {[(1,) * cli.MAX_ORDER]} != partitions of {dim}\n"

    def test_value_past_int_digit_limit(self):
        """A 4300-digit entry, within the input limit, gives a 4301-digit
        numerator: both routes print it whole and exit 0."""
        argv = ["genus", "chern", "--series", "gamma_raw", "--dim", "2", "--chern", "c2=-3,c1*c1=" + "9" * 4300]
        new, old = _both_routes(argv)
        assert new == old
        code, out, _ = new
        assert code == 0
        assert max(len(t["num"].lstrip("-")) for t in json.loads(out)["value"]["terms"]) == 4301

    @settings(max_examples=200, deadline=None)
    @given(_chern_argv())
    def test_chern_tables(self, argv):
        new, old = _both_routes(argv)
        assert new == old
        _assert_contract(*new)

    @settings(max_examples=60, deadline=None)
    @given(_VALUES)
    def test_fgl_params(self, value):
        new, old = _both_routes(["fgl", "series", "--law", "jacobi", "--order", "3",
                                 "--param", f"delta={value}", "--param", f"epsilon={value}"])
        assert new == old


# Monomial texts for the Chern parser: factors it reads, factors that each of
# its rules refuses, the spellings of a product and weights past MAX_ORDER,
# some with more digits than the interpreter's int digit limit.
_CHERN_FACTORS = st.sampled_from([
    "c1", "c2", "c3", "c12", "c1^2", "c2^1", "c1^03", "c1^" + "0" * 5000 + "2",
    "c1001", "c500^3", "c1^1000", "c" + "1" * 5000, "c1^" + "1" * 5000, "c1^-" + "1" * 5000,
    "c01", "c0", "c", "c1^0", "c1^-1", "c1^-0", "c1^+1", "c1^", "c1^2^3", "C1", "b2",
    "\u0661", "c\u0661", "c1^\u0662", "c\uff11", "c1**2",
])
_CHERN_VALUE_TEXTS = st.sampled_from(
    ["1", "-2", "+3", "007", "3/4", " 5 ", "1/0", "x", "", "\u0663", "\u00b2", "1e2"]
)


@st.composite
def _chern_texts(draw):
    """A --chern argument: entries of up to three factors joined by "*",
    spaces or "**", each with a value, or with no "=", or empty."""
    entries = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        factors = draw(st.lists(_CHERN_FACTORS, min_size=0, max_size=3))
        mono = draw(st.sampled_from(["*", " * ", " ", "**"])).join(factors)
        form = draw(st.sampled_from(["value", "value", "value", "bare", "empty"]))
        entries.append(
            f" {mono} = {draw(_CHERN_VALUE_TEXTS)}" if form == "value" else mono if form == "bare" else " "
        )
    return ",".join(entries)


def _outcome(read, text):
    """What read makes of text, or the message of its ValueError."""
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


class TestChernParsing:
    """cli._parse_chern reads each monomial text once (cli._monomial) and
    gives the table, or the exact error, of the factor-by-factor oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_chern_texts())
    @example("c1=1,c1^2=2")
    @example("c2*c1=1,c1*c2=2")
    @example("c1=1,c1*c1=2,c1^2=3")
    def test_against_the_factorwise_oracle_cold_and_warm(self, text):
        with int_max_str_digits(0):  # the oracle's int reads every digit string
            want = _outcome(factorwise_parse_chern, text)
        cli._monomial.cache_clear()
        for _ in ("cold", "warm"):
            got = _outcome(cli._parse_chern, text)
            assert got == want
            if type(got) is dict:
                assert all(type(key) is tuple and all(type(p) is int for p in key) for key in got)

    @pytest.mark.parametrize("text", _LITERALS)
    def test_rational_reads_only_an_ascii_integer_with_int(self, text):
        """A plain ASCII integer is an int, any other literal a Fraction of
        the same value, or the same error."""
        got = _outcome(cli._rational, text)
        assert got == _outcome(fraction_rational, text)
        if type(got) is not str:
            plain = re.fullmatch(r"[+-]?[0-9]+", text.strip()) is not None
            assert type(got) is (int if plain else Fraction), text

    def test_rational_bounds_an_exponent_by_the_int_digit_limit(self):
        """An exponent of magnitude up to the limit is read; past it, the
        literal is refused before Fraction computes it; with no limit, read."""
        limit = sys.get_int_max_str_digits()
        assert cli._rational(f"1e{limit}") == 10**limit
        assert cli._rational(f"-2.5E-{limit}") == Fraction(-25, 10 ** (limit + 1))
        assert cli._rational(f"1e0_{limit}") == 10**limit
        for text in (f"1e{limit + 1}", f"1e-{limit + 1}", f"2.5E+{limit + 1}", f"1e{limit + 1:_}"):
            with pytest.raises(ValueError, match=f"exponent in .* exceeds the int digit limit {limit}$"):
                cli._rational(text)
        with int_max_str_digits(0):
            assert cli._rational("1e5000") == 10**5000

    def test_the_monomial_memo_is_bounded_and_holds_partitions(self, cold):
        for k in range(1, 301):
            assert cli._monomial(f"c{k}*c1") == (k, 1)
        assert cli._monomial("c1001") is None
        info = cli._monomial.cache_info()
        assert info.maxsize == 256 and info.currsize == 256


_HELP_AND_SPELLINGS = st.sampled_from(
    ["-h", "--help", "--he", "--ser", "--series=todd", "--order=3", "--"]
)
# Set by the nested subparsers only; no handler reads them.
_PATH_DESTS = ("command", "fgl_cmd", "genus_cmd", "series_cmd")
# The full nested parser, built once: main builds it only for an incomplete path.
_FULL_PARSER = cli.build_parser()


_ARGV = _argv()
_N_HELP = st.integers(min_value=0, max_value=2)


@st.composite
def _argv_with_help(draw):
    argv = draw(_ARGV)
    for _ in range(draw(_N_HELP)):
        argv.insert(draw(_positions(len(argv))), draw(_HELP_AND_SPELLINGS))
    return argv


def _parse_outcome(parse, argv):
    """What parsing argv gives: the namespace without the command-path dests,
    the usage-error message, or the exit code and what was printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(argv)
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    return "namespace", {k: v for k, v in vars(args).items() if k not in _PATH_DESTS}


class TestLeafParsing:
    """main parses argv with the parser of its command path, and the result is
    the one the full nested parser gives."""

    @settings(max_examples=2000, deadline=None)
    @example(["genus", "chern", "-h"])
    @example(["genus", "--help"])
    @example(["--", "verify"])
    @example(["verify", "--order=3", "--", "x"])
    @example(["fgl", "series", "--he"])
    @given(_argv_with_help())
    def test_same_outcome_as_the_full_parser(self, argv):
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(_FULL_PARSER.parse_args, argv)


class TestWittenCommand:
    def test_shape(self):
        out = run_json("witten", "--x-order", "4", "--q-order", "3")
        assert out["x_order"] == 4 and out["q_order"] == 3
        assert out["coeffs"]["order"] == 4

    def test_log_flag(self):
        out = run_json("witten", "--x-order", "4", "--q-order", "3", "--log")
        assert out["what"] == "log"


class TestWittenRoutes:
    """A witten request builds one route and checks nothing; verify compares
    the product route with the Eisenstein route."""

    @pytest.fixture(autouse=True)
    def _memo_emptied(self):
        genus.witten_series.cache_clear()
        yield
        genus.witten_series.cache_clear()

    def test_broken_product_route_fails_verify_only(self):
        real = genus._pair_factor

        def broken(n, x_order, q_order):
            # One more q^n x^2: even in x and zero at q = 0.
            f = real(n, x_order, q_order)
            return f + Series1({2: RingElement.gen("q", n)}, x_order) if n == 1 else f

        with mock.patch.object(genus, "_pair_factor", broken):
            code, out, err = _run_in_process(["verify", "--suite", "witten", "--order", "6"], "")
            genus.witten_series.cache_clear()
            served = _run_in_process(["witten", "--x-order", "6", "--q-order", "4"], "")
        assert (code, err) == (1, "")
        report = json.loads(out)
        failing = [rec for rec in report["checks"] if rec["status"] == "FAIL"]
        assert [rec["name"] for rec in failing] == report["failing"] == [
            f"witten_divisor_sum_k{k}" for k in (1, 2, 3)
        ]
        assert all(type(rec["degree"]) is int for rec in failing)
        assert served[0] == 0 and served[2] == "" and json.loads(served[1])["q_order"] == 4

    def test_routes_are_compared_once_per_verify_and_never_in_a_build(self):
        with mock.patch.object(verify, "_exp_mixed", wraps=verify._exp_mixed) as spy:
            genus.witten_series.__wrapped__(6, 4)
            assert spy.call_count == 0
            assert verify.run_suite("witten", 6)["status"] == "PASS"
            assert spy.call_count == 1


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


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (
            ["fgl", "check", "--law", "broken-demo"],
            1,
            "212d5099679ec16d9c360af9f977279a04ed49294e5fda51da6a9c9f2aa5c861",
        ),
        (
            ["fgl", "iso", "--from", "gamma_raw", "--to", "additive", "--order", "12"],
            0,
            "4c30ea8e87bde4efed1a58ced61b2d7ebab4e5d94b42eb0d4cb21a076215da8f",
        ),
    ],
)
def test_fgl_report_bytes(argv, code, digest):
    proc = run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "obj",
    [
        {"b": 1, "a": [1, -2, {"z": "\u00e9\u2211", "y": None}], "c": True},
        {"order": 2, "coeffs": {"0,1": {"terms": []}, "1,0": {"terms": [{"num": "-3"}]}}},
        [0.5, float("inf"), 10**30, "tab\there", []],
        "text",
    ],
    ids=["nested", "series2", "numbers", "string"],
)
def test_emit_writes_what_json_dumps_writes(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(obj)
    assert out.getvalue() == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# `fgl check --law <law> --order 10` for every catalog law: each passes, so
# these pin the whole serialized law as well as the verdict.
_CHECK_AT_ORDER_10 = {
    "additive": "ceaadb0358b56dbc21d0f979d5ca54fd7dfed9df8a50fa022934b46a1de767df",
    "multiplicative": "77be5773ca7a40e7c4b6cdcb04de531c1b370c8685a14df2d710f3f080e3c793",
    "multiplicative_t": "75eb728aee4489f1c05e21df23efd7ae071ac45da7a1ac781b3fd9d84bb42855",
    "kontsevich": "822802a08befbb51889bf8829410f13aab6552fc49e7c6af660749990684cfff",
    "hyperbolic": "9cb3d5af750dd8322bd806a105261fd0f653d57ae63796754e3c34a60f697330",
    "jacobi": "1644a60f5bcd2228055dd47dfee2fa8ced372a61c99ffd72d39794f0dae5b973",
    "gamma_raw": "f6d6c04524a1824a68bf975c0b5d0799f6a5b6f2f223bc3c0fdc913d9bf9bed1",
    "gamma_normalized": "f872bbcc9fed8c3b7c9e05e361621c171c10d0878f3902f6e183ada4b9bd69bb",
    "chi_rescaled": "89188af160aa9e58f756d21dfd78ecb30c5b19e50f8cff627fc9adc99714cf16",
    "universal_additive": "db8fd6a49815b6a710f44ed759f32ee46dcf3ff1ba2e54c6921cf9081ef22a7a",
}


@pytest.mark.parametrize("law", fgl.CATALOG)
def test_check_report_bytes_at_order_10(law):
    proc = run_cli("fgl", "check", "--law", law, "--order", "10")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == _CHECK_AT_ORDER_10[law]


class TestEnvironment:
    def test_order_env_override(self):
        env = {**_ENV, "GENUSFORGE_ORDER": "4"}
        out = run_json("fgl", "series", "--law", "additive", env=env)
        assert out["order"] == 4

    def test_bad_env_exits_two(self):
        env = {**_ENV, "GENUSFORGE_ORDER": "many"}
        proc = run_cli("fgl", "series", "--law", "additive", env=env)
        assert_usage_error(proc)


class TestBenchmarkReferences:
    """Every request of the benchmark's catalog, run through cli.main in one
    process, reproduces the exit code and stdout digest frozen in
    bench/references.json, whatever the order the requests come in."""

    @pytest.fixture(scope="class")
    def requests_and_refs(self):
        import pathlib
        import random

        bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
        sys.path.insert(0, str(bench))
        try:
            import workloads
        finally:
            sys.path.remove(str(bench))
        refs = json.loads((bench / "references.json").read_text())["requests"]
        requests = workloads.all_requests(workloads.request_catalog())
        assert sorted(requests) == sorted(refs)
        ordered = [requests[key] for key in sorted(requests)]
        shuffled = list(ordered)
        random.Random(20110108).shuffle(shuffled)
        return {"sorted": ordered, "reversed": ordered[::-1], "shuffled": shuffled}, refs

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    def test_replay(self, requests_and_refs, order):
        orders, refs = requests_and_refs
        for req in orders[order]:
            input_digest, rc, sha = refs[req.key]
            assert req.input_digest() == input_digest, req.key
            code, out, _ = _run_in_process(list(req.argv), req.stdin)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, sha), req.key

    def test_every_request_is_parsed_by_its_command_parser(self, requests_and_refs):
        orders, refs = requests_and_refs
        full_parse = AssertionError("the full parser was asked to parse a reference request")
        with mock.patch.object(cli, "build_parser", side_effect=full_parse):
            for req in orders["sorted"]:
                _, rc, sha = refs[req.key]
                code, out, _ = _run_in_process(list(req.argv), req.stdin)
                assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, sha), req.key


def test_traced_benchmark_finds_what_it_wraps():
    """Every function bench/tracing.py wraps is where the tracer looks for it,
    so a traced benchmark run keeps working (bench/run.py --trace 1).  The
    monomial cache it would read is gone; the tracer's getattr fallback then
    reports no cache ratio.  Each suite builder it times as
    verify.suite_<suite> runs its checks when called and returns them as a
    dict, so the span holds the suite's work.  The tracer module is only
    loaded, not installed."""
    import importlib
    import importlib.util
    import pathlib

    from genusforge import ring
    from genusforge.check import CheckResult

    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("genusforge_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANNED
    for _, _, modname, attr in tracing.SPANNED:
        owner = importlib.import_module(modname)
        if "." in attr:  # the tracer replaces the method in the class's own dict
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
            assert attr in owner.__dict__, (modname, cls, attr)
        assert callable(getattr(owner, attr)), (modname, attr)
    assert not hasattr(ring, "_mul_monomials")
    suites = set(verify.SUITES) - {"all"}
    assert set(verify._SUITE_BUILDERS) == set(tracing.VERIFY_SUITES) == suites and len(suites) == 5
    for suite, build in verify._SUITE_BUILDERS.items():
        results = build(6)
        assert type(results) is dict and results, suite
        assert all(isinstance(r, CheckResult) for r in results.values()), suite


def test_import_builds_nothing():
    """Importing the CLI builds no law, law powers, genus series, Hirzebruch
    polynomial, CP^n genus, Newton power sums or Witten series."""
    script = (
        "import genusforge.cli\n"
        "from genusforge import fgl, genus, series, symfun\n"
        "assert fgl._BUILT == {} and genus._SERIES == {}\n"
        "assert genus._chern_rows.cache_info().currsize == 0\n"
        "assert genus._cpn.cache_info().currsize == 0\n"
        "assert series._law_powers.cache_info().currsize == 0\n"
        "assert symfun._chern_power_sums.cache_info().currsize == 0\n"
        "assert genus.witten_series.cache_info().currsize == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_ENV)
    assert proc.returncode == 0, proc.stderr


def test_import_builds_no_parser():
    """Importing the CLI builds no argparse parser: a request builds its own
    command's parser when it is first parsed."""
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import genusforge.cli\n"
        "assert built == [], built\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_ENV)
    assert proc.returncode == 0, proc.stderr


# The module-level containers of the package, by name, with their sizes.
_CONTAINER_SIZES = (
    "import importlib, pkgutil, genusforge\n"
    "sizes = {}\n"
    "for info in pkgutil.iter_modules(genusforge.__path__):\n"
    "    module = importlib.import_module('genusforge.' + info.name)\n"
    "    for attr, value in vars(module).items():\n"
    "        if isinstance(value, (dict, list, set)):\n"
    "            sizes[f'{module.__name__}.{attr}'] = len(value)\n"
)
# Containers that grow but hold no result of a request: the generator slots
# that every packed monomial key depends on, and the registry of generators
# with the family members resolved so far.
_NOT_MEMOS = ("genusforge.ring._NAMES", "genusforge.ring._SLOTS", "genusforge.ring._REGISTRY")


def test_the_cold_state_empties_every_memo_of_the_package(cold):
    """After requests of every command and a verify, clear_memos leaves each
    lru_cache of the package empty and each module-level container at its
    size on a fresh import, so a memo added later cannot escape the tests
    that ask for a cold state."""
    script = _CONTAINER_SIZES + "import json\nprint(json.dumps(sizes))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_ENV)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    one = {"terms": [{"num": "1", "den": "1", "exps": {}}]}
    series = json.dumps({"order": 3, "coeffs": [{"terms": []}, one]})
    for argv in (
        ["fgl", "series", "--law", "jacobi", "--order", "6", "--param", "delta=1/3"],
        ["fgl", "iso", "--from", "kontsevich", "--to", "multiplicative", "--order", "6"],
        ["genus", "chern", "--series", "gamma", "--dim", "3", "--chern", "c1^3=1,c1*c2=2,c3=3"],
        ["genus", "chern", "--series", "todd", "--dim", "3", "--chern", "c3=1,c1^3=-2,c1*c2=1/2"],
        ["genus", "table", "--series", "todd", "--max-n", "4"],
        ["witten", "--x-order", "4", "--q-order", "2"],
        ["series", "revert"],
    ):
        assert _run_in_process(argv, series)[0] == 0, argv
    verify.run_suite("all", 4)
    assert fgl._BUILT and genus._SERIES and genus._chern_rows.cache_info().currsize
    assert cli._monomial.cache_info().hits == 3  # the second table's monomials
    clear_memos()
    names = {}
    exec(_CONTAINER_SIZES, names)
    sizes = names["sizes"]
    for name in _NOT_MEMOS:
        assert sizes.pop(name) >= fresh.pop(name)
    assert sizes == fresh
    held = [
        f"{module.__name__}.{attr}"
        for module in MODULES
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info") and value.cache_info().currsize
    ]
    assert held == []


def test_a_request_builds_only_its_own_parser():
    cli._leaf.cache_clear()
    full = AssertionError("the full parser was built for a complete command path")
    with mock.patch.object(cli, "build_parser", side_effect=full):
        assert _run_in_process(["fgl", "list"], "")[0] == 0
        assert _run_in_process(["verify", "--suite", "nope"], "")[0] == 2
    assert cli._leaf.cache_info().currsize == 2
    assert cli._leaf(("fgl", "list")).prog == "genusforge fgl list"


def test_import_loads_no_introspection_modules():
    """Importing the CLI loads none of dataclasses, inspect, ast, dis or
    tokenize, each of which a fresh process would pay for on every request.
    Site is off (-S), so only genusforge's own imports count."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import sys\n"
        "import genusforge.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))\n"
    )
    env = {**_ENV, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_sigint_exits_130_without_a_traceback():
    """A SIGINT during a long request ends it with exit 130 and one stderr
    line.  The wrapper reports on stderr once the CLI is imported, so the
    signal lands inside cli.main."""
    script = (
        "import sys\n"
        "from genusforge import cli\n"
        "print('ready', file=sys.stderr, flush=True)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["fgl", "check", "--law", "gamma_raw", "--order", "40"]
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_ENV,
    )
    try:
        assert proc.stderr.readline() == "ready\n"
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, err
    assert (out, err) == ("", "error: interrupted\n")


def test_sigint_through_the_entry_function_exits_130_without_a_traceback():
    """The same interrupt, with the process ended by cli.run: the error
    line is flushed before the process ends without teardown."""
    script = (
        "import sys\n"
        "from genusforge import cli\n"
        "print('ready', file=sys.stderr, flush=True)\n"
        "cli.run()\n"
    )
    argv = ["fgl", "check", "--law", "gamma_raw", "--order", "40"]
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_ENV,
    )
    try:
        assert proc.stderr.readline() == "ready\n"
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, err
    assert (out, err) == ("", "error: interrupted\n")


# The two ways a process enters the CLI: `python -m genusforge.cli`, and a
# script that calls cli.run, as the `genusforge` console script does.
_ENTRIES = {
    "module": ["-m", "genusforge.cli"],
    "run": ["-c", "from genusforge import cli; cli.run()"],
}
_SMALL_OUTPUT = ["fgl", "series", "--law", "additive", "--order", "2"]
_LARGE_OUTPUT = ["fgl", "series", "--law", "gamma_raw", "--order", "10"]  # over 8 KiB
_DISK_FULL = f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"


def _process_cases():
    """(argv, stdout, unbuffered, exit code, stdout sha256, stderr), where
    stdout is a pipe that is read, a pipe whose reader has closed it, or
    /dev/full, and no digest is given for an output that is not read."""
    yield "pass", ["fgl", "list"], "pipe", False, 0, (
        "9c04311b28663d46ded922fb68e6f4ed331bcf5e2c7d66885ee4298faf92155e"), ""
    yield "check-failed", ["fgl", "check", "--law", "broken-demo"], "pipe", False, 1, (
        "212d5099679ec16d9c360af9f977279a04ed49294e5fda51da6a9c9f2aa5c861"), ""
    yield "usage", ["verify", "--bogus"], "pipe", False, 2, hashlib.sha256(b"").hexdigest(), (
        "error: unrecognized arguments: --bogus\n")
    yield "help", ["verify", "--help"], "pipe", False, 0, (
        "76916c1293da8ebf7dd6acfccbdaf090fe44c7d219f74fc99f242c0192e4b7a0"), ""
    # A small output is still buffered when main returns, a large one is
    # not; unbuffered, every write reaches the descriptor inside main, the
    # help's included, which argparse's own _print_message would drop.
    for unbuffered in (False, True):
        mode = "unbuffered" if unbuffered else "buffered"
        for size, argv in (("small", _SMALL_OUTPUT), ("large", _LARGE_OUTPUT),
                           ("help", ["verify", "--help"])):
            yield f"closed-pipe-{size}-{mode}", argv, "closed", unbuffered, 0, None, ""
            yield f"dev-full-{size}-{mode}", argv, "/dev/full", unbuffered, 2, None, _DISK_FULL


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize(
    "argv, stdout, unbuffered, code, digest, stderr",
    [pytest.param(*case[1:], id=case[0]) for case in _process_cases()],
)
def test_process_contract(entry, argv, stdout, unbuffered, code, digest, stderr):
    """A fresh process exits with its code, its exact stdout and at most one
    stderr line; a closed stdout ends it quietly with exit 0, and any other
    write error (here a full device) with exit 2 and one error line, never
    CPython's exit 120 or a traceback."""
    if stdout == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {k: v for k, v in _ENV.items() if k != "PYTHONUNBUFFERED"}
    env["COLUMNS"] = "80"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with contextlib.ExitStack() as stack:
        if stdout == "pipe":
            target = subprocess.PIPE
        elif stdout == "closed":
            reader, target = os.pipe()
            os.close(reader)
            stack.callback(os.close, target)
        else:
            target = stack.enter_context(open(stdout, "wb"))
        proc = subprocess.run(
            [sys.executable, *_ENTRIES[entry], *argv],
            stdout=target,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    assert (proc.returncode, proc.stderr.decode()) == (code, stderr)
    if digest is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_the_cli_leaves_nothing_for_teardown_to_run():
    """After an in-process verify, the CLI has registered no atexit handler
    and started no thread beyond a bare interpreter's, so ending the process
    without teardown skips nothing."""
    probe = "import atexit, threading\nprint(atexit._ncallbacks(), threading.active_count())\n"
    verify_first = (
        "import contextlib, io\n"
        "from genusforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--order', '6']) == 0\n"
    )
    bare, after = (
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_ENV)
        for script in (probe, verify_first + probe)
    )
    assert bare.returncode == after.returncode == 0, after.stderr
    assert after.stdout == bare.stdout
    assert after.stdout.split()[1] == "1"


def _in_process_outcome(argv):
    try:
        return _run_in_process(argv, "")[0]
    except SystemExit as exc:
        return f"SystemExit({exc.code})"


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["fgl", "list"], 0),
        (["fgl", "check", "--law", "broken-demo", "--order", "6"], 1),
        (["verify", "--bogus"], 2),
        (["verify", "--help"], "SystemExit(0)"),
    ],
)
def test_main_never_ends_the_process(argv, outcome):
    """cli.main returns its exit code as an int, and --help ends it by
    argparse's SystemExit(0) as before; neither calls os._exit, so an
    in-process caller keeps its interpreter."""
    ended = AssertionError("cli.main called os._exit")
    with mock.patch.object(os, "_exit", side_effect=ended):
        result = _in_process_outcome(argv)
    assert result == outcome and type(result) is type(outcome)


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
