"""Static hygiene of the package sources: no unused imports or locals."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parents[1] / "src" / "mhs")
                 .glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector_flags_only_unread_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "np.zeros(c)\n")
    assert unused_imports(source) == ["os", "d"]


def unused_locals(source):
    """Names a function assigns and never reads, except _-prefixed ones."""
    unused = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            unused.update(n.id for n in names if isinstance(n.ctx, ast.Store)
                          and n.id not in read and not n.id.startswith("_"))
    return sorted(unused)


def test_detector_flags_only_unread_locals():
    source = ("def f(x, unread_arg):\n    a, b, _c = x\n    d = 1\n\n"
              "    def g():\n        e = d\n    return [a for y in x if y]\n")
    assert unused_locals(source) == ["b", "e"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []
