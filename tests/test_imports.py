"""No unused imports and no dead private helpers: AST scans of the code.

An import counts as used if it is read anywhere in the code, appears in a
string annotation, or is listed in ``__all__``.  A module-level private name
of the package (``_helper``, ``_Class``, ``_CONSTANT``) must be read in its
own module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/kscontrol/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for c in ast.walk(ann) if ann is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    parsed = ast.parse(c.value, mode="eval")
                    used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_sees_every_kind_of_use():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from typing import TYPE_CHECKING, Optional\nfrom a import B, C, D, E\n"
        "if TYPE_CHECKING:\n    from b import F\n"
        "__all__ = ['D']\n"
        "def g(x: 'F') -> 'Optional[C]':\n    return np.zeros(0), os.sep\n"
    )
    assert unused_imports(source) == ["line 5: B", "line 5: E"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_private_scan_sees_definitions_and_reads():
    source = (
        "_A = 1\n_B: int = 2\n__all__ = []\nPUBLIC = 3\n"
        "def _f():\n    return _A\n"
        "def _g():\n    _C = 4\n    return _C\n"
        "class _K:\n    pass\n"
        "def h(x=_K):\n    return _f()\n"
    )
    assert unread_private_names(source) == ["line 2: _B", "line 7: _g"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []
