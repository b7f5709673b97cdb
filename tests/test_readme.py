"""README states the package's contract, and its examples run as written.

Each `genusforge …` line of its `sh` blocks goes through cli.main in-process,
with the series that its `echo` pipes in on stdin, exits with the code its
comment states (0 unless `# exits N`) and prints one JSON line; every command
path has one.  Each ```json block reads back through its class's from_obj to
the same form, or, for a law or a check result, has the keys of one that the
library writes.  No backticked name has a component with one leading
underscore: a private name is a mechanism, described in its module."""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from genusforge import cli, fgl
from genusforge.check import CheckResult, first_defect
from genusforge.ring import RingElement
from genusforge.series import Series1, Series2

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", _README, re.M | re.S)


def _examples():
    """(line, argv, expected exit code, stdin) for each `genusforge` command in
    README's sh blocks; a piped one reads what its `echo` writes."""
    out = []
    for line in "\n".join(_blocks("sh")).splitlines():
        *feed, command = line.split("|")
        words = shlex.split(command, comments=True)
        if words[:1] != ["genusforge"]:
            continue
        code = re.search(r"#\s*exits (\d+)", command)
        stdin = shlex.split(feed[0])[1] if feed else ""
        out.append((line.strip(), words[1:], int(code[1]) if code else 0, stdin))
    return out


_EXAMPLES = _examples()


def _path(argv):
    return tuple(argv[:2]) if tuple(argv[:2]) in cli._LEAVES else tuple(argv[:1])


def test_readme_shows_every_command_path():
    assert {_path(argv) for _, argv, _, _ in _EXAMPLES} == set(cli._LEAVES)


@pytest.mark.parametrize("line, argv, code, stdin", _EXAMPLES, ids=[" ".join(e[1]) for e in _EXAMPLES])
def test_example_exits_as_stated_with_one_json_line(monkeypatch, line, argv, code, stdin):
    monkeypatch.delenv("GENUSFORGE_ORDER", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli.main(argv)
    assert (got, err.getvalue()) == (code, "")
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    assert isinstance(json.loads(text), dict)


def test_each_piped_series_has_the_constant_term_its_operation_needs():
    piped = {argv[1]: Series1.from_json(stdin) for _, argv, _, stdin in _EXAMPLES if stdin}
    assert {op: f[0] for op, f in piped.items()} == {"exp": 0, "revert": 0, "log": 1, "sqrt": 1}


_JSON = [json.loads(block) for block in _blocks("json")]
_VALUES = {"element": RingElement, "series1": Series1, "series2": Series2}


def _kind(obj):
    """Which form a README json block shows."""
    if obj.keys() == {"terms"}:
        return "element"
    if obj.keys() == {"order", "coeffs"}:
        return "series1" if isinstance(obj["coeffs"], list) else "series2"
    return "law" if "F" in obj else obj.get("status")


def test_readme_shows_every_json_form():
    assert sorted(map(_kind, _JSON)) == sorted([*_VALUES, "law", "PASS", "FAIL"])


@pytest.mark.parametrize("obj", [o for o in _JSON if _kind(o) in _VALUES], ids=_kind)
def test_a_value_block_reads_back_to_itself(obj):
    assert _VALUES[_kind(obj)].from_obj(obj).to_obj() == obj


def test_the_law_and_check_blocks_have_the_library_keys():
    blocks = {_kind(obj): obj.keys() for obj in _JSON}
    assert blocks["law"] == fgl.catalog("additive", 2).to_obj().keys()
    assert blocks["PASS"] == CheckResult.ok().to_obj().keys()
    assert blocks["FAIL"] == first_defect([(3, RingElement.gen("gamma"))]).to_obj().keys()


def test_readme_names_no_private_name():
    prose = re.sub(r"^```.*?^```", "", _README, flags=re.M | re.S)
    names = {w for span in re.findall(r"`([^`]+)`", prose) for w in re.findall(r"\w+", span)}
    assert {w for w in names if re.match(r"_[^\W_]", w)} <= {"_fields"}
