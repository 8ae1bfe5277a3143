"""Static hygiene of the package sources: no unused imports, locals or
private module-level names; and no unused imports in the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parents[1] / "src" / "mhs")
                 .glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def unread_private_names(sources):
    """Module-level _names (functions, classes, constants) that no module
    in ``sources`` (a {module: source text} dict) reads, as module:name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{m}:{n}" for m, n in defined if n not in read)


def test_detector_flags_only_unread_private_names():
    sources = {
        "a": ("_A, _B = 1, 2\n__all__ = []\ndef _f():\n    return _A\n"
              "class _C:\n    pass\ndef g(_unused_arg):\n    _x = 1\n"),
        "b": "from .a import _f\nimport a\na._C\n",
    }
    assert unread_private_names(sources) == ["a:_B"]


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in SOURCES}
    init = SOURCES[0].parent / "__init__.py"
    sources[init.name] = init.read_text()
    assert unread_private_names(sources) == []


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def test_import_leaves_csgraph_unloaded():
    # only the unreduced sparse path (dissection_order) needs csgraph
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, mhs; print('scipy.sparse.csgraph' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
