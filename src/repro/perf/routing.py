"""The destination-row cache over the compiled graph core.

The §4.3 campaign and overlay answer shortest-path queries toward a few
hundred destinations, thousands of times each.  :class:`RoutingCore`
adopts one of the package's compiled graphs,
:class:`~repro.perf.substrate.GraphView`, and adds only a cache of
per-destination Dijkstra rows: every solve is a
:meth:`GraphView.dijkstra` call (batched across destinations by
:meth:`RoutingCore.prepare`), and every path is a
:meth:`GraphView.walk` over a cached predecessor row.

A cut re-trace starts from :meth:`RoutingCore.routes` (a pair sample's
intact paths and the edge ids they ride) and asks
:meth:`RoutingCore.paths_without` for the paths around a set of removed
edges: only the destinations of pairs whose path crosses one are solved
again.  What a re-trace computes from the intact graph alone is kept in
a small per-core memo (:meth:`RoutingCore.baseline`).

The overlay's conduit cores wrap the views of
:func:`~repro.perf.substrate.substrate_for` as they are; the one graph
that is not a fiber-map view, the router-level topology, compiles its
own :class:`GraphView` of router latencies.  The NetworkX route walk
survives only as the test oracle (``tests/oracles/probe.py``), which the
test suite cross-checks against this core on random (src, dst) pairs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.perf.substrate import GraphView

#: How many baselines one core keeps (:meth:`RoutingCore.baseline`); the
#: least recently used goes first.
BASELINE_MEMO_SIZE = 4

#: Guards every core's baseline memo.
_BASELINE_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class PairRoutes:
    """The intact routes of a pair sample, as :meth:`RoutingCore.routes`
    finds them: what a cut re-trace starts from.

    ``paths[i]`` is the node-key path of ``pairs[i]`` (``None`` when
    unreachable or unknown).  ``edge_ids`` lists the edge ids of every
    path, pair after pair, and ``edge_pair`` the pair each belongs to.
    Equality is identity: the arrays have no single truth value.
    """

    pairs: Tuple[Tuple[Hashable, Hashable], ...]
    paths: Tuple[Optional[Tuple[Hashable, ...]], ...]
    edge_ids: "np.ndarray"
    edge_pair: "np.ndarray"


class RoutingCore(GraphView):
    """A :class:`GraphView` plus a per-destination cache of
    ``(dist, pred)`` rows, so a campaign pays one Dijkstra per distinct
    destination and an array walk per trace."""

    def __init__(self, view: GraphView, weight: str):
        # Adopt the view as it is, like ``clone`` without the copies: its
        # arrays, edge lookup, incidence and solver structures are shared,
        # so wrapping a view builds no view.
        self.nodes = view.nodes
        self.index = view.index
        self.eu = view.eu
        self.ev = view.ev
        self.weights = view.weights
        self.payload = view.payload
        self._edge_of = view._edge_of
        self._incident = view._incident
        self._structs = view._structs
        self.weight = weight
        self._rows: Dict[int, Tuple["np.ndarray", "np.ndarray"]] = {}
        self._baselines: "OrderedDict[Hashable, object]" = OrderedDict()

    def __getstate__(self):
        # Rows, solver matrices and baselines are cheap to recompute and
        # the rows can be tens of MB; drop them so pickled topologies
        # stay small.
        state = self.__dict__.copy()
        state["_rows"] = {}
        state["_structs"] = {}
        state["_baselines"] = OrderedDict()
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

    def routes(
        self, pairs: Iterable[Tuple[Hashable, Hashable]]
    ) -> "PairRoutes":
        """The intact shortest path of every ``(src, dst)`` pair, with
        the edge ids each one rides (see :meth:`paths_without`)."""
        pairs = tuple(pairs)
        self.prepare(dst for _, dst in pairs)
        index, nodes = self.index, self.nodes
        paths: List[Optional[Tuple[Hashable, ...]]] = []
        edge_ids: List[int] = []
        edge_pair: List[int] = []
        for i, (src, dst) in enumerate(pairs):
            s = index.get(src)
            d = index.get(dst)
            walked = None if s is None or d is None else self.walk(
                self._row(d)[1], d, s
            )
            if walked is None:
                paths.append(None)
                continue
            walked.reverse()
            paths.append(tuple(nodes[k] for k in walked))
            hops = self.path_edges(walked)
            edge_ids.extend(hops)
            edge_pair.extend([i] * len(hops))
        return PairRoutes(
            pairs=pairs,
            paths=tuple(paths),
            edge_ids=np.asarray(edge_ids, dtype=np.int64),
            edge_pair=np.asarray(edge_pair, dtype=np.int64),
        )

    def paths_without(
        self, routes: "PairRoutes", edge_mask: "np.ndarray"
    ) -> List[Optional[Tuple[Hashable, ...]]]:
        """The path of every pair of *routes* on the graph minus the
        edges *edge_mask* switches off (``False`` = removed).

        Removing edges never shortens a path, so a pair whose intact
        path avoids every removed edge keeps it (the very tuple of
        ``routes.paths``).  Only the destinations of pairs that do cross
        one are solved again, in one batched, masked Dijkstra whose rows
        equal those of a solve over every destination; the rows are not
        cached, since they describe a different graph.
        """
        out = list(routes.paths)
        crossing = np.unique(routes.edge_pair[~edge_mask[routes.edge_ids]])
        if crossing.size == 0:
            return out
        hit = [routes.pairs[i] for i in crossing.tolist()]
        _dist, pred, row_of = self.dijkstra(
            [dst for _, dst in hit], self.weight, edge_mask=edge_mask
        )
        index = self.index
        for i, (src, dst) in zip(crossing.tolist(), hit):
            path = self._key_path(pred[row_of[dst]], index[src], index[dst])
            out[i] = None if path is None else tuple(path)
        return out

    def baseline(self, key: Hashable, build: Callable[[], object]) -> object:
        """``build()``, computed once per *key* while the key is among
        the :data:`BASELINE_MEMO_SIZE` most recently used.

        For results that depend on the intact graph only (a cut
        re-trace's pair sample, its routes and its RTTs before the cut),
        so that every cut after the first pays only for what it changes.
        Concurrent first calls may each build; all get the first stored.
        """
        memo = self._baselines
        with _BASELINE_LOCK:
            if key in memo:
                memo.move_to_end(key)
                return memo[key]
        value = build()
        with _BASELINE_LOCK:
            value = memo.setdefault(key, value)
            memo.move_to_end(key)
            while len(memo) > BASELINE_MEMO_SIZE:
                memo.popitem(last=False)
        return value

    def distance(self, src: Hashable, dst: Hashable) -> float:
        """Shortest-path cost, ``inf`` when unreachable or unknown."""
        s = self.index.get(src)
        d = self.index.get(dst)
        if s is None or d is None:
            return float("inf")
        return float(self._row(d)[0][s])
