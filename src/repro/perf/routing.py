"""The destination-row cache over the compiled graph core.

The §4.3 campaign and overlay answer shortest-path queries toward a few
hundred destinations, thousands of times each.  :class:`RoutingCore`
adopts one of the package's compiled graphs,
:class:`~repro.perf.substrate.GraphView`, and adds only a cache of
per-destination predecessor rows: every solve is a
:meth:`GraphView.dijkstra` call over at most :data:`SOLVE_CHUNK_ROWS`
destinations (:meth:`RoutingCore.solve_into`), and every path is a
:meth:`GraphView.walk` over a cached predecessor row.  No distance row
is kept: a chunk's distances are dropped as soon as its predecessors
are written, so a solve's temporary distance matrix is bounded by the
chunk, not by the number of destinations.  A caller that keeps its own
stack of rows (the campaign's destination-row stack) fills it through
:meth:`RoutingCore.share_into`, which leaves the cache holding views of
that stack: one copy of each row, not two.

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
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.perf.substrate import GraphView

#: How many baselines one core keeps (:meth:`RoutingCore.baseline`); the
#: least recently used goes first.
BASELINE_MEMO_SIZE = 4

#: Guards every core's baseline memo.
_BASELINE_LOCK = threading.Lock()

#: Destinations one batched Dijkstra solves at a time.  The solve's
#: temporary distance matrix holds this many float64 rows (2 MiB on
#: the 2,008-node us2015 router graph), however many destinations a
#: caller asks for.
SOLVE_CHUNK_ROWS = 128


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
    """A :class:`GraphView` plus a per-destination cache of predecessor
    rows, so a campaign pays one Dijkstra per distinct destination and
    an array walk per trace.  A cached row may be a view into a block
    the core allocated (:meth:`prepare`) or into a caller's stack
    (:meth:`share_into`); the core never writes a row it has cached."""

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
        self._rows: Dict[int, "np.ndarray"] = {}
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
        """Solve and cache the row of every new destination, in chunks
        of :data:`SOLVE_CHUNK_ROWS` (see :meth:`solve_into`).

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
        block = np.empty((len(wanted), self.num_nodes), dtype=np.int32)
        return self.share_into(wanted, block, range(len(wanted)))

    def solve_into(
        self,
        keys: Sequence[Hashable],
        out: "np.ndarray",
        at: Sequence[int],
    ) -> None:
        """Write the predecessor row of the Dijkstra tree rooted at
        ``keys[i]`` into ``out[at[i]]``, bypassing the row cache.

        The keys are solved :data:`SOLVE_CHUNK_ROWS` at a time, so the
        only temporaries are one chunk's distance and predecessor
        matrices.  Every key must be a distinct node of the graph.
        """
        at = np.asarray(at, dtype=np.int64)
        for lo in range(0, len(keys), SOLVE_CHUNK_ROWS):
            chunk = keys[lo:lo + SOLVE_CHUNK_ROWS]
            _dist, pred, row_of = self.dijkstra(chunk, self.weight)
            if len(row_of) != len(chunk):
                raise ValueError("solve_into needs distinct, known keys")
            out[at[lo:lo + len(chunk)]] = pred
            # Free this chunk's matrices before the next is solved.
            del _dist, pred

    def share_into(
        self,
        keys: Sequence[Hashable],
        out: "np.ndarray",
        at: Iterable[int],
    ) -> int:
        """Write the row of every destination in *keys* into
        ``out[at[i]]`` and cache those rows of *out* as views.

        A row the cache already holds is copied; the others are solved
        straight into *out* (:meth:`solve_into`).  Afterwards the cache
        and the caller share one copy of every row, so *out* must never
        be rewritten, nor view a mapping that is closed while the core
        lives (a pool's stack goes through :meth:`solve_into` instead).
        Every key must be a distinct node of the graph.  Returns the
        number of rows solved.
        """
        index, rows = self.index, self._rows
        at = list(at)
        solve_keys: List[Hashable] = []
        solve_at: List[int] = []
        for key, i in zip(keys, at):
            row = rows.get(index[key])
            if row is None:
                solve_keys.append(key)
                solve_at.append(i)
            else:
                out[i] = row
        self.solve_into(solve_keys, out, solve_at)
        for key, i in zip(keys, at):
            rows[index[key]] = out[i]
        return len(solve_keys)

    def _row(self, dst_index: int) -> "np.ndarray":
        row = self._rows.get(dst_index)
        if row is None:
            self.prepare([self.nodes[dst_index]])
            row = self._rows[dst_index]
        return row

    def predecessors(self, dst: Hashable) -> Optional["np.ndarray"]:
        """The predecessor row of the Dijkstra tree rooted at *dst*
        (``None`` for an unknown node)."""
        d = self.index.get(dst)
        return None if d is None else self._row(d)

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
        return self._key_path(self._row(d), s, d)

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
                self._row(d), d, s
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
        """Shortest-path cost, ``inf`` when unreachable or unknown.

        The core caches no distances: each call solves one uncached
        row rooted at *dst*, the same row (and float) a batched solve
        would give.
        """
        s = self.index.get(src)
        if s is None or dst not in self.index:
            return float("inf")
        dist, _pred, _row_of = self.dijkstra([dst], self.weight)
        return float(dist[0, s])
