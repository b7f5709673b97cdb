import ast
from pathlib import Path

import pytest

import genusforge


def _annotation_names(tree):
    """The names read inside the string annotations of `tree`."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            annotations += [arg.annotation for arg in args if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _exported(tree):
    """The names listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (e.value for e in node.value.elts)


def _unused_imports(tree):
    """(line, name) of each name that an import in `tree` binds and nothing
    in `tree` reads: not as a name, not in a string annotation and not in
    __all__.  A `from __future__` import binds nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {*_annotation_names(tree), *_exported(tree)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_module_of_the_package_imports_a_name_it_never_uses():
    offences = []
    for path in sorted(Path(genusforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        offences += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert offences == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import json\nimport os\njson.dumps(1)", [(2, "os")]),
        ("import os.path\nos.sep", []),
        ("import os.path as p\nimport re as r\np.join", [(2, "r")]),
        ("from typing import Optional, Union\nx: Optional[int] = 1", [(1, "Union")]),
        ("from typing import Optional\ndef f(x: 'Optional[int]') -> 'list[int]': pass", []),
        ("from typing import Mapping\ny: 'dict[str, Mapping]' = {}", []),
        ("from a import b, c\n__all__ = ['b']", [(1, "c")]),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import math\n    return 1", [(2, "math")]),
        ("import re\ns = 're.compile'", [(1, "re")]),
    ],
)
def test_the_unused_import_guard_sees_what_it_should(source, unused):
    assert _unused_imports(ast.parse(source)) == unused
