"""Guard: every definition in ``src/repro`` has a caller outside ``tests/``.

A helper that only tests call is code the package carries for no run:
it is read, kept in step and reviewed, yet no analysis uses it.  This
test walks the package with ``ast`` and fails on a top-level function,
class or method whose name nothing outside ``tests/`` references.

Callers are the modules under ``src/``, ``tools/``, ``examples/``,
``benchmarks/`` and ``perfbench/``.  A reference is a loaded name, an
attribute name, or an identifier inside a string constant (which
covers ``getattr`` by name and dispatch tables); a docstring is prose,
not a reference, so its identifiers do not count.  A package
``__init__.py`` holds only re-exports, so it is not a caller, and an
``__all__`` entry is not a reference.  Dunder methods are exempt: the
interpreter calls them.  ``ALLOWED`` names the few definitions that
are called by name from outside the scanned code, each with its reason.

Code that a test needs as a reference implementation lives in
``tests/oracles/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("src", "tools", "examples", "benchmarks", "perfbench")

#: ``module.qualname`` -> why nothing in the scanned code references it.
ALLOWED = {
    "service/server._Handler.do_GET": (
        "http.server dispatches to do_<METHOD> by name"
    ),
    "service/server._Handler.do_POST": (
        "http.server dispatches to do_<METHOD> by name"
    ),
    "experiments/runner.run_all": (
        "the public entry point that README and DESIGN document"
    ),
}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module) -> Iterator[Tuple[str, str, int]]:
    """``(qualname, name, line)`` of every top-level function and class
    and of every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS):
                    yield f"{node.name}.{sub.name}", sub.name, sub.lineno


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstrings(tree: ast.Module) -> Iterator[ast.Constant]:
    """The docstring node of the module and of every class and function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + FUNCTIONS):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                yield first.value


def references(tree: ast.Module) -> Set[str]:
    """Loaded names, attribute names and identifiers in string
    constants, ``__all__`` entries and docstrings excepted."""
    exports: Set[int] = {id(doc) for doc in _docstrings(tree)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exports.update(id(sub) for sub in ast.walk(node.value))
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in exports
        ):
            used.update(IDENTIFIER.findall(node.value))
    return used


def find_test_only(
    modules: Dict[str, str], callers: Iterable[str]
) -> Dict[str, int]:
    """``module.qualname`` -> line of every definition in *modules*
    (module name -> source) that no source in *callers* references."""
    used: Set[str] = set()
    for source in callers:
        used |= references(ast.parse(source))
    return {
        f"{module}.{qualname}": line
        for module, source in modules.items()
        for qualname, name, line in definitions(ast.parse(source))
        if not _is_dunder(name) and name not in used
    }


def _package_modules() -> Dict[str, str]:
    return {
        path.relative_to(PACKAGE).with_suffix("").as_posix(): path.read_text(
            encoding="utf-8"
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def _caller_sources() -> List[str]:
    return [
        path.read_text(encoding="utf-8")
        for folder in CALLERS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if not (folder == "src" and path.name == "__init__.py")
    ]


def test_every_definition_has_a_caller():
    found = find_test_only(_package_modules(), _caller_sources())
    unexplained = [
        f"src/repro/{key.split('.', 1)[0]}.py:{line} {key}"
        for key, line in sorted(found.items())
        if key not in ALLOWED
    ]
    assert not unexplained, "\n".join(unexplained)
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"allow-list entries that now have a caller: {stale}"


def test_the_guard_sees_test_only_code():
    modules = {
        "pkg/mod": (
            "__all__ = ['exported']\n"
            "def called(): pass\n"
            "def exported(): pass\n"
            "def by_name(): pass\n"
            "def documented(): pass\n"
            "class Box:\n"
            "    def used(self): pass\n"
            "    def unused(self): pass\n"
            "    def __len__(self): return 0\n"
        ),
    }
    callers = [
        "'''Mentions ``Box.unused`` in prose only.'''\n"
        "__all__ = ['exported']\n"
        "def run(box):\n"
        "    '''Calls ``documented`` too.'''\n"
        "    called()\n"
        "    box.used()\n"
        "    return getattr(box, 'by_name'), Box\n"
    ]
    assert find_test_only(modules, callers) == {
        "pkg/mod.exported": 3,
        "pkg/mod.documented": 5,
        "pkg/mod.Box.unused": 8,
    }
