"""Array-based shortest-path core for router-level topologies.

The §4.3 campaign spends essentially all of its time answering
shortest-path queries.  The original engine runs one pure-Python
NetworkX Dijkstra per destination over a dict-of-dicts graph; this
module compiles the graph **once** into int-indexed CSR arrays and
answers the same queries with :func:`scipy.sparse.csgraph.dijkstra` —
batched over every destination a campaign touches — after which each
path is just a predecessor-array walk.

scipy is a hard dependency; the NetworkX route walk survives only as
the test oracle (``tests/oracles/probe.py``), which the test suite
cross-checks against this core on random (src, dst) pairs.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

#: scipy's sentinel for "no predecessor" in predecessor matrices.
_NO_PREDECESSOR = -9999


class RoutingCore:
    """Shortest paths over a compiled, int-indexed copy of a graph.

    Nodes are sorted once into a dense index; edges become a symmetric
    CSR matrix of edge weights.  Per-destination predecessor rows are
    computed on demand (or batched via :meth:`prepare`) and cached, so
    a campaign pays one C Dijkstra per distinct destination and an
    array walk per trace.
    """

    def __init__(self, graph, weight: str = "ms"):
        nodes = sorted(graph.nodes)
        index = {node: i for i, node in enumerate(nodes)}
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for u, v, w in graph.edges(data=weight, default=0.0):
            ui, vi = index[u], index[v]
            rows.append(ui)
            cols.append(vi)
            data.append(float(w))
            rows.append(vi)
            cols.append(ui)
            data.append(float(w))
        self._nodes = nodes
        self._index = index
        self._matrix = csr_matrix(
            (data, (rows, cols)), shape=(len(nodes), len(nodes))
        )
        self._pred: Dict[int, "np.ndarray"] = {}
        self._dist: Dict[int, "np.ndarray"] = {}

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_prepared(self) -> int:
        """Destinations whose predecessor rows are already computed."""
        return len(self._pred)

    def __getstate__(self):
        # Predecessor/distance rows are cheap to recompute and can be
        # tens of MB; drop them so pickled topologies stay small.
        state = self.__dict__.copy()
        state["_pred"] = {}
        state["_dist"] = {}
        return state

    # ------------------------------------------------------------------
    def prepare(self, destinations: Iterable[Hashable]) -> int:
        """Batch-compute predecessor rows for every new destination.

        Returns the number of destinations actually computed.  Unknown
        nodes are ignored (queries against them return ``None``).
        """
        wanted = sorted(
            {
                i
                for i in (self._index.get(node) for node in destinations)
                if i is not None and i not in self._pred
            }
        )
        if not wanted:
            return 0
        dist, pred = _csgraph_dijkstra(
            self._matrix,
            directed=False,
            indices=wanted,
            return_predecessors=True,
        )
        for row, i in enumerate(wanted):
            self._pred[i] = pred[row]
            self._dist[i] = dist[row]
        return len(wanted)

    def _rows_for(self, dst_index: int) -> "np.ndarray":
        pred = self._pred.get(dst_index)
        if pred is None:
            dist, pred = _csgraph_dijkstra(
                self._matrix,
                directed=False,
                indices=dst_index,
                return_predecessors=True,
            )
            self._pred[dst_index] = pred
            self._dist[dst_index] = dist
        return self._pred[dst_index]

    # ------------------------------------------------------------------
    def path(self, src: Hashable, dst: Hashable) -> Optional[List[Hashable]]:
        """Shortest path from *src* to *dst*, or ``None`` if unreachable.

        Mirrors the NetworkX predecessor walk in the probe engine: the
        Dijkstra tree is rooted at the destination, so the walk follows
        predecessor pointers from the source until it reaches the root.
        """
        s = self._index.get(src)
        d = self._index.get(dst)
        if s is None or d is None:
            return None
        if s == d:
            return [src]
        pred = self._rows_for(d)
        if pred[s] == _NO_PREDECESSOR:
            return None
        nodes = self._nodes
        out = [nodes[s]]
        node = s
        for _ in range(len(nodes)):
            node = int(pred[node])
            out.append(nodes[node])
            if node == d:
                return out
        return None  # pragma: no cover - cycle guard, unreachable

    def distance(self, src: Hashable, dst: Hashable) -> float:
        """Shortest-path cost, ``inf`` when unreachable or unknown."""
        s = self._index.get(src)
        d = self._index.get(dst)
        if s is None or d is None:
            return float("inf")
        self._rows_for(d)
        return float(self._dist[d][s])

