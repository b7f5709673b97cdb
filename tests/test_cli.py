import contextlib
import io
import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from genusforge import cli

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
        assert proc.returncode == 2

    def test_param_substitution(self):
        out = run_json(
            "fgl", "series", "--law", "jacobi", "--order", "4",
            "--param", "delta=-1/8", "--param", "epsilon=0",
        )
        hyp = run_json("fgl", "series", "--law", "hyperbolic", "--order", "4")
        assert out["F"] == hyp["F"]

    def test_iso(self):
        out = run_json(
            "fgl", "iso", "--from", "kontsevich", "--to", "multiplicative", "--order", "8"
        )
        assert out["verify"] == {"status": "PASS"}


class TestGenusCommand:
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

    def test_dimension_zero_rejects_a_nonempty_partition(self):
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "0", "--chern", "c1=1")
        assert_usage_error(proc)

    def test_malformed_chern_exits_two(self):
        proc = run_cli("genus", "chern", "--series", "todd", "--dim", "2", "--chern", "b2=1")
        assert proc.returncode == 2

    def test_requires_n_xor_max_n(self):
        proc = run_cli("genus", "cpn", "--series", "todd")
        assert proc.returncode == 2


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


def _run_in_process(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


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
    @given(
        st.sampled_from(["exp", "log", "sqrt", "revert"]),
        st.one_of(_json_values.map(json.dumps), _series_like().map(json.dumps), st.text(max_size=20)),
    )
    def test_contract(self, op, stdin):
        code, out, err = _run_in_process(["series", op], stdin)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if out:
            assert out.endswith("\n") and out.count("\n") == 1
            json.loads(out)
        if code == 2:
            assert err.startswith("error: ")


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
