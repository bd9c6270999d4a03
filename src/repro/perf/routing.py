"""The destination-row cache over the compiled graph core.

The §4.3 campaign and overlay answer shortest-path queries toward a few
hundred destinations, thousands of times each.  :class:`RoutingCore`
adopts one of the package's compiled graphs,
:class:`~repro.perf.substrate.GraphView`, and adds only a cache of
per-destination Dijkstra rows: every solve is a
:meth:`GraphView.dijkstra` call (batched across destinations by
:meth:`RoutingCore.prepare`), and every path is a
:meth:`GraphView.walk` over a cached predecessor row.

The overlay's conduit cores wrap the views of
:func:`~repro.perf.substrate.substrate_for` as they are; the one graph
that is not a fiber-map view, the router-level topology, compiles its
own :class:`GraphView` of router latencies.  The NetworkX route walk
survives only as the test oracle (``tests/oracles/probe.py``), which the
test suite cross-checks against this core on random (src, dst) pairs.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.substrate import GraphView


class RoutingCore(GraphView):
    """A :class:`GraphView` plus a per-destination cache of
    ``(dist, pred)`` rows, so a campaign pays one Dijkstra per distinct
    destination and an array walk per trace."""

    def __init__(self, view: GraphView, weight: str):
        # Adopt the view's compiled arrays as they are (no copy).
        super().__init__(
            view.nodes, view.index, view.eu, view.ev, view.weights,
            view.payload,
        )
        self.weight = weight
        self._rows: Dict[int, Tuple["np.ndarray", "np.ndarray"]] = {}

    @property
    def num_prepared(self) -> int:
        """Destinations whose rows are already computed."""
        return len(self._rows)

    def __getstate__(self):
        # Rows and solver matrices are cheap to recompute and the rows
        # can be tens of MB; drop both so pickled topologies stay small.
        state = self.__dict__.copy()
        state["_rows"] = {}
        state["_structs"] = {}
        return state

    # ------------------------------------------------------------------
    def prepare(self, destinations: Iterable[Hashable]) -> int:
        """Batch-compute the rows of every new destination in one solve.

        Returns the number of destinations actually computed.  Unknown
        nodes are ignored (queries against them return ``None``).
        """
        index = self.index
        wanted = list(
            dict.fromkeys(
                node
                for node in destinations
                if node in index and index[node] not in self._rows
            )
        )
        if not wanted:
            return 0
        dist, pred, row_of = self.dijkstra(wanted, self.weight)
        for node, row in row_of.items():
            self._rows[index[node]] = (dist[row], pred[row])
        return len(row_of)

    def _row(self, dst_index: int) -> Tuple["np.ndarray", "np.ndarray"]:
        rows = self._rows.get(dst_index)
        if rows is None:
            self.prepare([self.nodes[dst_index]])
            rows = self._rows[dst_index]
        return rows

    def predecessors(self, dst: Hashable) -> Optional["np.ndarray"]:
        """The predecessor row of the Dijkstra tree rooted at *dst*
        (``None`` for an unknown node)."""
        d = self.index.get(dst)
        return None if d is None else self._row(d)[1]

    # ------------------------------------------------------------------
    def path(self, src: Hashable, dst: Hashable) -> Optional[List[Hashable]]:
        """Shortest path from *src* to *dst*, or ``None`` if unreachable.

        The Dijkstra tree is rooted at the destination, so the walk
        follows predecessor pointers from the source to the root.
        """
        s = self.index.get(src)
        d = self.index.get(dst)
        if s is None or d is None:
            return None
        if s == d:
            return [src]
        return self._key_path(self._row(d)[1], s, d)

    def _key_path(
        self, pred_row: "np.ndarray", s: int, d: int
    ) -> Optional[List[Hashable]]:
        """Walk the tree rooted at *d* from *s*: the ``s -> d`` key path."""
        walked = self.walk(pred_row, d, s)
        if walked is None:
            return None
        nodes = self.nodes
        return [nodes[i] for i in reversed(walked)]

    def paths_without(
        self,
        pairs: Sequence[Tuple[Hashable, Hashable]],
        edge_mask: "np.ndarray",
    ) -> List[Optional[List[Hashable]]]:
        """:meth:`path` for every ``(src, dst)`` pair on the graph minus
        the edges *edge_mask* switches off (``False`` = removed).

        One batched, masked solve over the distinct destinations; the
        rows are not cached, since they describe a different graph.
        """
        index = self.index
        _dist, pred, row_of = self.dijkstra(
            [dst for _, dst in pairs], self.weight, edge_mask=edge_mask
        )
        out: List[Optional[List[Hashable]]] = []
        for src, dst in pairs:
            s = index.get(src)
            if s is None or dst not in row_of:
                out.append(None)
            elif s == index[dst]:
                out.append([src])
            else:
                out.append(self._key_path(pred[row_of[dst]], s, index[dst]))
        return out

    def distance(self, src: Hashable, dst: Hashable) -> float:
        """Shortest-path cost, ``inf`` when unreachable or unknown."""
        s = self.index.get(src)
        d = self.index.get(dst)
        if s is None or d is None:
            return float("inf")
        return float(self._row(d)[0][s])
