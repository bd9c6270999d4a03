"""Guard: ``src/repro`` routes on the compiled graph core only, and
answers buffer overlap with the compiled corridor index only.

Every shortest-path question in the package is answered by
``repro.perf.substrate.GraphView`` (batched scipy Dijkstra, predecessor
walks, edge masks), and every conduit graph is a view of the one
compiled ``ConduitSubstrate``.  This test walks the package source with
``ast`` and fails on any call to a NetworkX shortest-path solver, on
any ``scipy.sparse`` import outside ``perf/substrate.py`` — the one
place a CSR matrix is built — on any use of the NetworkX conduit-graph
builders (``conduit_graph`` / ``simple_conduit_graph``, now the oracle
in ``tests/oracles/fibermap.py``), and on any ``networkx`` import:
NetworkX is a test-only dependency, and the graphs the oracles solve on
are built in ``tests/oracles/graphs.py``.

Every §3 buffer-overlap question is answered by
``repro.geo.overlap.CorridorIndex``; the per-point grid it replaced is
the oracle in ``tests/oracles/geo.py``, so an import of
``repro.geo.grid`` or of ``SpatialGridIndex`` fails too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import List, Set

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: NetworkX shortest-path solvers (matched on the called name).
SOLVER = re.compile(
    r"^(shortest_path|bidirectional_dijkstra|dijkstra_path"
    r"|single_source_dijkstra\w*|shortest_simple_paths|all_pairs_\w+)$"
)

#: The per-point overlap grid, now a test oracle.
GRID_MODULE = "repro.geo.grid"
GRID_NAME = "SpatialGridIndex"

#: The only module allowed to import ``scipy.sparse``.
CSR_OWNER = PACKAGE / "perf" / "substrate.py"

#: The NetworkX conduit-graph builders ``FiberMap`` used to carry.
BUILDERS = frozenset({"conduit_graph", "simple_conduit_graph"})


def _root_name(node: ast.expr):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _violations(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    nx_aliases: Set[str] = set()
    solver_names: Set[str] = set()
    found: List[str] = []
    where = path.relative_to(PACKAGE.parent)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "networkx":
                    nx_aliases.add((alias.asname or alias.name).split(".")[0])
                    found.append(f"{where}:{node.lineno} imports {alias.name}")
                if alias.name.startswith("scipy.sparse") and path != CSR_OWNER:
                    found.append(f"{where}:{node.lineno} imports {alias.name}")
                if alias.name.startswith(GRID_MODULE):
                    found.append(f"{where}:{node.lineno} imports {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            sparse = node.module.startswith("scipy.sparse") or (
                node.module == "scipy"
                and any(a.name == "sparse" for a in node.names)
            )
            if sparse and path != CSR_OWNER:
                found.append(f"{where}:{node.lineno} imports {node.module}")
            grid = node.module.startswith(GRID_MODULE) or any(
                f"{node.module}.{a.name}" == GRID_MODULE or a.name == GRID_NAME
                for a in node.names
            )
            if grid:
                found.append(f"{where}:{node.lineno} imports {node.module}")
            if root == "networkx":
                found.append(f"{where}:{node.lineno} imports {node.module}")
                for alias in node.names:
                    if SOLVER.match(alias.name):
                        solver_names.add(alias.asname or alias.name)
                        found.append(
                            f"{where}:{node.lineno} imports {alias.name}"
                        )
    for node in ast.walk(tree):
        name = (
            node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.name if isinstance(node, ast.FunctionDef)
            else None
        )
        if name in BUILDERS:
            found.append(f"{where}:{node.lineno} uses {name}")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in solver_names:
            found.append(f"{where}:{node.lineno} calls {func.id}")
        elif (
            isinstance(func, ast.Attribute)
            and SOLVER.match(func.attr)
            and _root_name(func) in nx_aliases
        ):
            found.append(f"{where}:{node.lineno} calls {func.attr}")
    return found


def test_no_networkx_shortest_path_solver_in_package():
    found = [v for path in sorted(PACKAGE.rglob("*.py")) for v in _violations(path)]
    assert found == [], "\n".join(found)


def test_guard_detects_each_form(tmp_path, monkeypatch):
    """The guard itself: aliases, from-imports, sparse and networkx
    imports, and the conduit-graph builders in any form."""
    source = tmp_path / "repro" / "bad.py"
    source.parent.mkdir()
    source.write_text(
        "import networkx as graphs\n"
        "from networkx import bidirectional_dijkstra as bd\n"
        "from scipy import sparse\n"
        "from repro.geo import grid\n"
        "from repro.geo.overlap import SpatialGridIndex\n"
        "import repro.geo.grid\n"
        "graphs.shortest_path(None, 1, 2)\n"
        "graphs.algorithms.all_pairs_dijkstra(None)\n"
        "bd(None, 1, 2)\n"
        "view.shortest_path('a', 'b', 'w')\n"
        "fiber_map.simple_conduit_graph('X')\n"
        "build = conduit_graph\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(
        "tests.test_one_routing_path.PACKAGE", source.parent
    )
    found = _violations(source)
    assert [v.split(" ", 1)[1] for v in found] == [
        "imports networkx",
        "imports networkx",
        "imports bidirectional_dijkstra",
        "imports scipy",
        "imports repro.geo",
        "imports repro.geo.overlap",
        "imports repro.geo.grid",
        "calls shortest_path",
        "calls all_pairs_dijkstra",
        "calls bd",
        "uses conduit_graph",
        "uses simple_conduit_graph",
    ]

