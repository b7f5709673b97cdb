import os
import pathlib
import subprocess
import sys

import pytest

_DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
_SRC = str(pathlib.Path(__file__).parent.parent / "src")


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.name for d in _DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
