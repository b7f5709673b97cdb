"""README's command examples run as written: each `genusforge …` line of its
`sh` blocks goes through cli.main in-process, exits with the code its comment
states (0 unless `# exits N`), and prints one JSON line."""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from genusforge import cli
from genusforge.series import Series1, exp_series

_README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(line, argv, expected exit code, reads stdin) for each `genusforge`
    command in README's sh blocks; a piped one takes its input on stdin."""
    blocks = re.findall(r"^```sh\n(.*?)^```", _README.read_text(), re.M | re.S)
    out = []
    for line in "\n".join(blocks).splitlines():
        command = line.split("|")[-1]
        words = shlex.split(command, comments=True)
        if words[:1] != ["genusforge"]:
            continue
        code = re.search(r"#\s*exits (\d+)", command)
        out.append((line.strip(), words[1:], int(code[1]) if code else 0, "|" in line))
    return out


_EXAMPLES = _examples()

# A real series for the piped example, whose README input is elided: exp(z) - 1.
_STDIN = (exp_series(Series1.x(4)) - 1).to_json()


def test_readme_shows_every_command():
    assert {argv[0] for _, argv, _, _ in _EXAMPLES} == {"fgl", "genus", "witten", "series", "verify"}


@pytest.mark.parametrize("line, argv, code, piped", _EXAMPLES, ids=[e[0] for e in _EXAMPLES])
def test_example_exits_as_stated_with_one_json_line(monkeypatch, line, argv, code, piped):
    monkeypatch.delenv("GENUSFORGE_ORDER", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(_STDIN if piped else ""))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli.main(argv)
    assert (got, err.getvalue()) == (code, "")
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    assert isinstance(json.loads(text), dict)
