"""Every scalar that enters the algebra is read by one reader, ring._fraction:
each library entry and each CLI option below refuses a literal whose exponent
is past the int digit limit at once, reads one at the limit, and keeps its
own error for a zero denominator.  A decimal.Decimal is read as its str, so
its exponent and its digits are bounded as a literal's are.  Each test runs
under a 2-s alarm, so a literal read the slow way fails instead of stalling
the suite."""

import contextlib
import io
import json
import sys
from decimal import Decimal

import pytest

from genusforge import cli, fgl, genus
from genusforge.ring import RingElement
from genusforge.series import Series1, Series2

from conftest import int_max_str_digits

_ENTRIES = {
    "RingElement": lambda c: RingElement({(("t", 1),): 1, (("gamma", 1),): c}),
    "from_rational": RingElement.from_rational,
    "gen": lambda c: RingElement.gen("t", coeff=c),
    "Series1": lambda c: Series1([0, c], 2),
    "Series2": lambda c: Series2({(1, 0): 1, (1, 1): c}, 2),
    "series_plus_str": lambda c: Series1.x(2) + c,
    "catalog_params": lambda c: fgl.catalog("multiplicative_t", 3, {"t": c}),
    "from_chern": lambda c: genus.ManifoldDescriptor.from_chern(1, {(1,): c}),
    "numeric_gamma_validation": genus.numeric_gamma_validation,
}

_OPTIONS = {
    "--param": lambda c: ["fgl", "series", "--law", "multiplicative_t", "--order", "3", "--param", f"t={c}"],
    "--chern": lambda c: ["genus", "chern", "--series", "todd", "--dim", "1", "--chern", f"c1={c}"],
}

_PAST_THE_LIMIT = ["1e2000000", "1e10000000"]
_DECIMALS_PAST_THE_LIMIT = [Decimal(text) for text in [*_PAST_THE_LIMIT, "1e-10000000"]]


def _outcome(read, value):
    """What read makes of value, or the type and message of its exception."""
    try:
        return read(value)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not raised
        return type(exc), str(exc)


def _main(argv):
    """cli.main(argv) in-process: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", _ENTRIES)
class TestLibraryEntries:
    @pytest.mark.parametrize("value", [*_PAST_THE_LIMIT, *_DECIMALS_PAST_THE_LIMIT], ids=str)
    def test_an_exponent_past_the_limit_is_refused_at_once(self, alarm, name, value):
        limit = sys.get_int_max_str_digits()
        message = f"exponent in {str(value)!r} exceeds the int digit limit {limit}"
        assert _outcome(_ENTRIES[name], value) == (ValueError, message)

    def test_more_digits_than_the_limit_are_refused_in_a_decimal_as_in_a_str(self, alarm, name):
        digits = "7" * 5000
        assert _outcome(_ENTRIES[name], digits)[0] is ValueError
        assert _outcome(_ENTRIES[name], Decimal(digits)) == _outcome(_ENTRIES[name], digits)

    def test_an_exponent_at_the_limit_is_read(self, alarm, name):
        """"1e4300" and its Decimal read as the int 10**4300: each entry makes of
        them what it makes of that int (numeric_gamma_validation refuses all as
        too large)."""
        entry = _ENTRIES[name]
        assert _outcome(entry, "1e4300") == _outcome(entry, Decimal("1e4300")) == _outcome(entry, 10**4300)

    def test_a_zero_denominator_keeps_the_fraction_error(self, alarm, name):
        assert _outcome(_ENTRIES[name], "1/0") == (ZeroDivisionError, "Fraction(1, 0)")


@pytest.mark.parametrize("option", _OPTIONS)
class TestCommandLineOptions:
    @pytest.mark.parametrize("text", _PAST_THE_LIMIT)
    def test_an_exponent_past_the_limit_exits_two(self, alarm, option, text):
        limit = sys.get_int_max_str_digits()
        code, out, err = _main(_OPTIONS[option](text))
        assert (code, out) == (2, "")
        assert err == f"error: exponent in {text!r} exceeds the int digit limit {limit}\n"

    def test_an_exponent_at_the_limit_is_read(self, alarm, option):
        code, out, err = _main(_OPTIONS[option]("1e4300"))
        assert (code, err) == (0, "")
        assert out.count("\n") == 1 and json.loads(out)

    def test_a_zero_denominator_is_a_usage_error(self, alarm, option):
        assert _main(_OPTIONS[option]("1/0")) == (2, "", "error: zero denominator in '1/0'\n")


def test_the_bound_follows_the_interpreter_limit(alarm):
    """With the limit raised, a longer exponent is read; the reader keeps no
    copy of the limit."""
    limit = sys.get_int_max_str_digits()
    with int_max_str_digits(6000):
        assert RingElement.from_rational("1e5000") == 10**5000
        assert _outcome(RingElement.from_rational, "1e6001")[0] is ValueError
    message = f"exponent in '1e5000' exceeds the int digit limit {limit}"
    assert _outcome(RingElement.from_rational, "1e5000") == (ValueError, message)
