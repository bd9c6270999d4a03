"""Guard: every name a ``src/repro`` module imports is used.

``pyproject.toml`` configures ruff, but no lint step runs it, so an
import left behind by a refactor stays unnoticed.  This test walks the
package source with ``ast`` and fails on an imported name that the
module never references.  References are loaded names and attribute
roots anywhere in the module, names inside string annotations, and the
entries of ``__all__``.  Re-exports are exempt: every import of a
package ``__init__.py``, and an import marked ``# noqa: F401``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: The marker that declares an import a deliberate re-export.
REEXPORT = "noqa: F401"


def _imported(tree: ast.Module, lines: List[str]) -> Dict[str, int]:
    """Bound name -> line of every import outside ``__future__``."""
    bound: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            names = [
                alias.asname or alias.name
                for alias in node.names
                if alias.name != "*"
            ]
        else:
            continue
        if REEXPORT in lines[node.end_lineno - 1]:
            continue
        for name in names:
            bound[name] = node.lineno
    return bound


def _annotation_names(node: ast.AST, out: Set[str]) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            _annotation_names(parsed, out)


def _referenced(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (
            getattr(node, "annotation", None),
            getattr(node, "returns", None),
        ):
            if annotation is not None:
                _annotation_names(annotation, used)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            )
    return used


def unused_imports(source: str) -> Dict[str, int]:
    """Name -> line of every import *source* never references."""
    tree = ast.parse(source)
    used = _referenced(tree)
    return {
        name: line
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    }


def test_every_import_is_used():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line} imports {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in sorted(
            unused_imports(path.read_text(encoding="utf-8")).items()
        )
    ]
    assert not found, "\n".join(found)


def test_the_guard_sees_an_unused_import():
    source = (
        "from typing import Dict, List, Optional\n"
        "import numpy as np\n"
        "import os.path\n"
        "from repro.perf import routing  # noqa: F401\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'np.ndarray') -> List[int]:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == {"Dict": 1}
