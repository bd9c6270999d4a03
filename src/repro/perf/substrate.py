"""The compiled graph core, and the conduit-graph substrate built on it.

:class:`GraphView` is the package's one compiled graph: int-indexed
parallel edge arrays with named weights, solved by batched scipy
Dijkstra and walked as predecessor arrays.  Everything that routes
compiles into it — the §4.3 router-level topology through
:class:`~repro.perf.routing.RoutingCore` (a GraphView plus a
per-destination row cache); the §4.3 overlay's cores, the Figure 1
summaries and the §5, resilience and §6 backup, opacity and Pareto
studies through the substrate below; ground-truth
synthesis and §2 step-3 alignment through clones of :func:`row_view`
carrying their own weight array.

Every §5 mitigation analysis (robustness suggestions, ROW augmentation,
propagation delay) and the resilience cut studies answer shortest-path
and connectivity questions over graphs derived from one
:class:`~repro.fibermap.elements.FiberMap`.  The substrate compiles the
fiber map **once** into int-indexed parallel arrays (conduit endpoints,
tenant counts, lengths, per-ISP tenancy masks) and derives cheap
*views* from them:

* a collapsed simple-graph view (parallel conduits reduced to one
  representative per city pair) with **named weight arrays** — risk
  (tenant count), ``length_km``, or any caller-supplied weight;
* **failures as data**: dead conduits are a per-call edge mask and
  weight override over a cached view (:meth:`ConduitSubstrate.exclusion`,
  :meth:`ConduitSubstrate.footprint_failure`), never a view of their
  own; "add this private conduit" is an O(1) array edit on a view;
* **batched multi-source Dijkstra**: one
  :func:`scipy.sparse.csgraph.dijkstra` call answers every source of a
  greedy step at once;
* **K-shortest simple paths** as one compiled
  :func:`scipy.sparse.csgraph.yen` call per pair (the §5.3 study's
  alternative paths);
* **union-find connectivity** for cumulative cut sequences, so a
  targeted-attack step costs one reverse union sweep instead of a full
  per-step graph rebuild.

:func:`substrate_for` is the one way to get a compiled fiber map: a
weak-keyed, single-flight memo, so every analysis of one map (a
scenario's experiments, the what-if service's handlers, a test's bare
``FiberMap``) shares one :class:`ConduitSubstrate`.  :func:`row_view`
memoizes the compiled right-of-way graphs of a transportation network
the same way, one per kind set.  Compiling costs milliseconds, so
neither is persisted.

scipy is a hard dependency and this module is the only place the
package builds a CSR matrix or calls scipy's Dijkstra, Yen or maximum
flow (:func:`minimum_cut`, the §4 partition metric).  The package does not
import NetworkX: the NetworkX references live in ``tests/oracles/``,
where the parity suites cross-check them against the compiled core on
both map families and randomized graphs.
"""

from __future__ import annotations

import copy
import threading
import weakref
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
from scipy.sparse.csgraph import yen as _csgraph_yen

from repro.obs.tracer import get_tracer

#: scipy's sentinel for "no predecessor" in predecessor matrices.
_NO_PREDECESSOR = -9999

_T = TypeVar("_T")

#: Guards every substrate's §5.1 optimum memo.
_MEMO_LOCK = threading.Lock()


def walk_many(
    pred: "np.ndarray", row: "np.ndarray", src: "np.ndarray",
    dst: "np.ndarray",
) -> "np.ndarray":
    """Every ``src[i] -> dst[i]`` path, walked simultaneously.

    ``pred[row[i]]`` is the predecessor row of the tree rooted at
    ``dst[i]``, and every pair must be reachable.  Returns one row of
    node indices per pair (``src[i], pred[src[i]], ...``); a path that
    reaches its root first holds there while longer ones keep walking,
    so a step is real where a node differs from the one before it.
    """
    frontier = np.asarray(src, dtype=np.int64)
    cols = [frontier]
    done = frontier == dst
    for _ in range(pred.shape[1]):
        if done.all():
            return np.stack(cols, axis=1)
        frontier = np.where(done, frontier, pred[row, frontier])
        cols.append(frontier)
        done = frontier == dst
    raise RuntimeError("predecessor walk did not terminate")  # cycle guard


# ----------------------------------------------------------------------
# Union-find: incremental connectivity for cut sequences
# ----------------------------------------------------------------------
class UnionFind:
    """Classic disjoint-set forest with path halving and union by size.

    Edges can only be *added*; cumulative cut sequences (which only
    remove conduits) are therefore processed in reverse, adding each
    step's severed conduits back while answering that step's
    connectivity queries (offline decremental connectivity).
    """

    def __init__(self, size: int):
        self._parent = list(range(size))
        self._rank = [0] * size

    def find(self, node: int) -> int:
        parent = self._parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


# ----------------------------------------------------------------------
# Graph views: one collapsed simple graph as parallel arrays
# ----------------------------------------------------------------------
class GraphView:
    """A compiled simple undirected graph over a shared node index.

    Nodes are sorted keys with a dense ``index`` (a substrate's views
    share its global city index, so they never re-hash node keys);
    edges are parallel arrays ``eu``/``ev`` of int node indices with
    ``eu <= ev``, named float weight arrays, and optional integer
    payload arrays (e.g. the representative conduit row per edge).
    "Node in graph" semantics follow NetworkX: a node is *present* when
    at least one edge touches it (:meth:`present`).  Each construction
    bumps the tracer counter ``substrate.view_builds``.
    """

    def __init__(
        self,
        nodes: List[Hashable],
        index: Dict[Hashable, int],
        eu,
        ev,
        weights: Dict[str, "np.ndarray"],
        payload: Optional[Dict[str, "np.ndarray"]] = None,
    ):
        self.nodes = nodes
        self.index = index
        self.eu = np.asarray(eu, dtype=np.int32)
        self.ev = np.asarray(ev, dtype=np.int32)
        self.weights = {k: np.asarray(v, dtype=float) for k, v in weights.items()}
        self.payload = {
            k: np.asarray(v) for k, v in (payload or {}).items()
        }
        self._edge_of: Dict[Tuple[int, int], int] = {
            pair: i
            for i, pair in enumerate(zip(self.eu.tolist(), self.ev.tolist()))
        }
        self._incident: Optional["np.ndarray"] = None
        self._structs: Dict[str, tuple] = {}
        get_tracer().count("substrate.view_builds")

    # -- structure -----------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return int(self.eu.shape[0])

    def clone(self) -> "GraphView":
        """A mutable copy sharing the node index (arrays are copied, the
        edge lookup is copied rather than rebuilt from them)."""
        view = GraphView.__new__(GraphView)
        view.nodes = self.nodes
        view.index = self.index
        view.eu = self.eu.copy()
        view.ev = self.ev.copy()
        view.weights = {k: v.copy() for k, v in self.weights.items()}
        view.payload = {k: v.copy() for k, v in self.payload.items()}
        view._edge_of = dict(self._edge_of)
        view._incident = None
        view._structs = {}
        get_tracer().count("substrate.view_builds")
        return view

    def _incidence(self) -> "np.ndarray":
        if self._incident is None:
            incident = np.zeros(self.num_nodes, dtype=bool)
            incident[self.eu] = True
            incident[self.ev] = True
            self._incident = incident
        return self._incident

    def present(self, key: str, edge_mask: Optional["np.ndarray"] = None) -> bool:
        """NetworkX node-membership: the key has at least one edge (one
        that *edge_mask* keeps, when given)."""
        i = self.index.get(key)
        if i is None:
            return False
        if edge_mask is None:
            return bool(self._incidence()[i])
        return bool(edge_mask[(self.eu == i) | (self.ev == i)].any())

    def present_many(self, keys: Sequence[Hashable]) -> "np.ndarray":
        """:meth:`present` of every key, as one boolean array."""
        idx = np.array([self.index.get(k, -1) for k in keys], dtype=np.int64)
        return (idx >= 0) & self._incidence()[np.maximum(idx, 0)]

    def edge_index(self, a_key: str, b_key: str) -> Optional[int]:
        ai, bi = self.index.get(a_key), self.index.get(b_key)
        if ai is None or bi is None:
            return None
        return self._edge_of.get((min(ai, bi), max(ai, bi)))

    def upsert_edge(
        self,
        a_key: str,
        b_key: str,
        order_weight: str,
        weights: Dict[str, float],
        payload: Optional[Dict[str, int]] = None,
    ) -> bool:
        """Add an edge, or replace an existing one if strictly better.

        Mirrors the "keep the smaller *order_weight*" collapse rule used
        everywhere in §5: a new parallel edge only displaces the current
        representative when its weight is strictly smaller.  Returns
        ``True`` when the view changed.  This is the "add this private
        conduit" array edit, and a router's reuse discount.  Replacing
        an edge patches the cached solver matrices in place; only a new
        edge changes the sparsity structure and drops them.
        """
        ai, bi = self.index[a_key], self.index[b_key]
        pair = (min(ai, bi), max(ai, bi))
        existing = self._edge_of.get(pair)
        if existing is not None:
            if not weights[order_weight] < float(
                self.weights[order_weight][existing]
            ):
                return False
            for name, value in weights.items():
                self.weights[name][existing] = value
                struct = self._structs.get(name)
                if struct is not None:
                    mat, _edge_at_pos, pos_of_edge = struct
                    mat.data[pos_of_edge[existing]] = value
            for name, value in (payload or {}).items():
                self.payload[name][existing] = value
            return True
        self.eu = np.append(self.eu, np.int32(pair[0]))
        self.ev = np.append(self.ev, np.int32(pair[1]))
        for name, value in weights.items():
            self.weights[name] = np.append(self.weights[name], float(value))
        for name, value in (payload or {}).items():
            self.payload[name] = np.append(self.payload[name], value)
        self._edge_of[pair] = self.num_edges - 1
        self._incident = None
        self._structs.clear()
        return True

    # -- shortest paths ------------------------------------------------
    def dijkstra(
        self,
        source_keys: Sequence[str],
        weight: str,
        edge_mask: Optional["np.ndarray"] = None,
        override: Optional["np.ndarray"] = None,
    ) -> Tuple["np.ndarray", "np.ndarray", Dict[str, int]]:
        """Batched multi-source Dijkstra: one scipy call for all sources.

        Returns ``(dist, pred, row_of)`` where ``dist``/``pred`` have one
        row per source and ``row_of`` maps source key to its row.  Keys
        missing from the node index are silently dropped (callers check
        :meth:`present` for NetworkX ``NodeNotFound`` semantics).
        *edge_mask* removes the edges it marks ``False``; *override*, one
        value per edge, replaces the stored *weight* for this call only.
        """
        row_of: Dict[str, int] = {}
        indices: List[int] = []
        for key in source_keys:
            i = self.index.get(key)
            if i is None or key in row_of:
                continue
            row_of[key] = len(indices)
            indices.append(i)
        if not indices:
            empty = np.empty((0, self.num_nodes))
            return empty, empty.astype(np.int32), row_of
        dist, pred = _csgraph_dijkstra(
            self._solver_matrix(weight, edge_mask, override),
            directed=True,  # the matrix is symmetric; skips the transpose
            indices=indices,
            return_predecessors=True,
        )
        return np.atleast_2d(dist), np.atleast_2d(pred), row_of

    def _solver_matrix(
        self,
        weight: str,
        edge_mask: Optional["np.ndarray"],
        override: Optional["np.ndarray"] = None,
    ):
        """The symmetric CSR handed to scipy, with structure caching.

        The sparsity structure (indptr/indices plus the data-position of
        every edge) is computed once per weight and kept across
        :meth:`upsert_edge` replacements; a masked or overridden call (a
        cut, a §5.1 exclusion, a backup's penalty) gets a shallow copy that
        shares that structure but owns a fresh data vector — the
        override's values, with masked edges set to ``inf``, which
        Dijkstra never relaxes across, i.e. edge removal without a
        matrix rebuild.  Nothing shared is written, so masked and
        overridden solves on one view are safe from concurrent threads.
        """
        struct = self._structs.get(weight)
        if struct is None:
            n = self.num_nodes
            edge_ids = np.arange(self.num_edges, dtype=float)
            mat = csr_matrix(
                (
                    np.concatenate([edge_ids, edge_ids]),
                    (
                        np.concatenate([self.eu, self.ev]),
                        np.concatenate([self.ev, self.eu]),
                    ),
                ),
                shape=(n, n),
            )
            edge_at_pos = mat.data.astype(np.int64)
            mat.data = self.weights[weight][edge_at_pos]
            # Both data positions of every edge, for in-place patches.
            pos_of_edge = np.argsort(edge_at_pos, kind="stable").reshape(-1, 2)
            struct = (mat, edge_at_pos, pos_of_edge)
            self._structs[weight] = struct
        mat, edge_at_pos, _pos_of_edge = struct
        if edge_mask is None and override is None:
            return mat
        values = (self.weights[weight] if override is None else override)[
            edge_at_pos
        ]
        patched = copy.copy(mat)
        patched.data = (
            values if edge_mask is None
            else np.where(edge_mask[edge_at_pos], values, np.inf)
        )
        return patched

    def walk(
        self, pred_row: "np.ndarray", src_idx: int, dst_idx: int
    ) -> Optional[List[int]]:
        """Node-index path from the Dijkstra tree root to *dst_idx*.

        ``pred_row`` must be the predecessor row of the source; returns
        the path ``src -> dst`` or ``None`` when unreachable.
        """
        if src_idx == dst_idx:
            return [src_idx]
        if pred_row[dst_idx] == _NO_PREDECESSOR:
            return None
        out = [dst_idx]
        node = dst_idx
        for _ in range(self.num_nodes):
            node = int(pred_row[node])
            out.append(node)
            if node == src_idx:
                out.reverse()
                return out
        return None  # pragma: no cover - cycle guard, unreachable

    def path_edges(self, path: Sequence[int]) -> List[int]:
        """The edge id of every hop along a node-index path, in order."""
        edge_of = self._edge_of
        return [edge_of[(min(u, v), max(u, v))] for u, v in zip(path, path[1:])]

    def edge_weights(self, path: Sequence[Hashable], weight: str) -> List[float]:
        """The *weight* of every edge along a node-key path, in order."""
        ids = [self.index[key] for key in path]
        weights = self.weights[weight]
        edge_of = self._edge_of
        return [
            float(weights[edge_of[(u, v) if u < v else (v, u)]])
            for u, v in zip(ids, ids[1:])
        ]

    def path_length(self, path: Sequence[int], weight: str) -> float:
        """Sum of edge weights in path order (left-associated, matching
        ``networkx.path_weight`` / Dijkstra accumulation bit-for-bit)."""
        total = 0.0
        weights = self.weights[weight]
        edge_of = self._edge_of
        for u, v in zip(path, path[1:]):
            total += float(weights[edge_of[(min(u, v), max(u, v))]])
        return total

    def shortest_path(
        self,
        a_key: str,
        b_key: str,
        weight: str,
        edge_mask: Optional["np.ndarray"] = None,
        override: Optional["np.ndarray"] = None,
    ) -> Optional[List[int]]:
        """Single-pair shortest path as node indices, ``None`` if none."""
        ai, bi = self.index.get(a_key), self.index.get(b_key)
        if ai is None or bi is None:
            return None
        _dist, pred, row_of = self.dijkstra([a_key], weight, edge_mask, override)
        return self.walk(pred[row_of[a_key]], ai, bi)

    # -- K shortest simple paths (one compiled Yen call) ---------------
    def k_shortest_paths(
        self, a_key: str, b_key: str, weight: str, k: int
    ) -> List[Tuple[List[int], float]]:
        """Up to *k* simple paths in non-decreasing length, like the
        first *k* of ``networkx.shortest_simple_paths``.

        One :func:`scipy.sparse.csgraph.yen` call over the cached solver
        matrix; each path is walked from its predecessor row and
        returned as ``(node_index_path, length)`` with the length
        recomputed by :meth:`path_length` — exactly the float the §5.3
        study derives from each path.  Raises ``KeyError`` when the
        pair is unknown or unconnected.
        """
        ai, bi = self.index.get(a_key), self.index.get(b_key)
        if ai is not None and bi is not None:
            _dist, pred = _csgraph_yen(
                self._solver_matrix(weight, None),
                ai,
                bi,
                k,
                directed=True,  # the matrix is symmetric; skips the transpose
                return_predecessors=True,
            )
            if len(pred):
                paths = [self.walk(row, ai, bi) for row in pred]
                return [(path, self.path_length(path, weight)) for path in paths]
        raise KeyError(f"no path between {a_key} and {b_key}")


# ----------------------------------------------------------------------
# The conduit substrate: the fiber map compiled once
# ----------------------------------------------------------------------
class ConduitSubstrate:
    """Int-indexed arrays over every conduit of one fiber map.

    Row *i* describes the i-th conduit in sorted-id order: endpoints
    (global city indices), tenant count, length.  Per-ISP tenancy is a
    row-index array per provider.  Collapsed :class:`GraphView`\\ s are
    derived (and cached) from these arrays; the collapse rule — keep the
    row with the strictly smallest order weight, first-in-id-order on
    ties — reproduces every NetworkX builder in §4/§5.
    """

    def __init__(self, fiber_map):
        self.nodes: List[str] = sorted(fiber_map.nodes)
        self.index: Dict[str, int] = {k: i for i, k in enumerate(self.nodes)}
        self.cids: List[str] = sorted(fiber_map.conduits)
        self.row_of: Dict[str, int] = {c: i for i, c in enumerate(self.cids)}
        cu, cv, tenants, length = [], [], [], []
        tenant_sets: List[FrozenSet[str]] = []
        for cid in self.cids:
            conduit = fiber_map.conduits[cid]
            a, b = conduit.edge
            cu.append(self.index[a])
            cv.append(self.index[b])
            tenants.append(conduit.num_tenants)
            length.append(conduit.length_km)
            tenant_sets.append(frozenset(conduit.tenants))
        self.cu = np.asarray(cu, dtype=np.int32)
        self.cv = np.asarray(cv, dtype=np.int32)
        self.tenants = np.asarray(tenants, dtype=np.int64)
        self.length_km = np.asarray(length, dtype=float)
        self.tenant_sets = tenant_sets
        self._isp_rows: Dict[str, "np.ndarray"] = {}
        for isp in sorted({t for s in tenant_sets for t in s}):
            self._isp_rows[isp] = np.asarray(
                [i for i, s in enumerate(tenant_sets) if isp in s],
                dtype=np.int64,
            )
        self._views: Dict[object, GraphView] = {}
        self._optima: Dict[str, object] = {}
        self._link_index: Optional[tuple] = None

    @property
    def num_conduits(self) -> int:
        return len(self.cids)

    def rows_for_isp(self, isp: str) -> "np.ndarray":
        """Conduit rows (sorted-id order) the provider occupies."""
        return self._isp_rows.get(isp, np.empty(0, dtype=np.int64))

    def path_conduits(self, view: GraphView, path: Sequence[int]) -> Tuple[str, ...]:
        """The conduit id of every hop of a node-index path on a view."""
        rows = view.payload["conduit"][view.path_edges(path)]
        return tuple(self.cids[row] for row in rows)

    def footprint_cities(self, isp: str) -> set:
        """City keys touched by the provider's conduits."""
        rows = self.rows_for_isp(isp)
        return {self.nodes[i] for i in self.cu[rows]} | {
            self.nodes[i] for i in self.cv[rows]
        }

    # -- view construction ---------------------------------------------
    def build_view(
        self,
        rows: "np.ndarray",
        order: "np.ndarray",
        weights: Dict[str, "np.ndarray"],
        payload: Optional[Dict[str, "np.ndarray"]] = None,
        *,
        cache_key: Hashable,
    ) -> GraphView:
        """Collapse *rows* (aligned with *order*/weights/payload arrays)
        into a simple-graph view, built once per *cache_key*: per city
        pair, the row with the strictly smallest order weight wins,
        first in *rows* order on ties (NetworkX ``data is None or
        w < data[...]`` semantics)."""
        cached = self._views.get(cache_key)
        if cached is not None:
            return cached
        best: Dict[Tuple[int, int], int] = {}
        cu, cv = self.cu, self.cv
        for pos in range(len(rows)):
            row = rows[pos]
            pair = (int(cu[row]), int(cv[row]))
            held = best.get(pair)
            if held is None or order[pos] < order[held]:
                best[pair] = pos
        keep = np.asarray(sorted(best.values()), dtype=np.int64)
        view = GraphView(
            self.nodes,
            self.index,
            cu[rows[keep]] if len(keep) else np.empty(0, dtype=np.int32),
            cv[rows[keep]] if len(keep) else np.empty(0, dtype=np.int32),
            {k: v[keep] for k, v in weights.items()},
            {
                "conduit": rows[keep],
                **{k: v[keep] for k, v in (payload or {}).items()},
            },
        )
        self._views[cache_key] = view
        return view

    def conduit_view(self) -> GraphView:
        """The collapsed conduit graph: min-tenant representative per
        pair, with ``risk`` and ``length_km`` weight views.

        Reproduces the NetworkX ``simple_conduit_graph`` builder and the
        robustness ``_risk_graph`` (``tests/oracles/``), which share
        the same collapse.
        """
        rows = np.arange(self.num_conduits, dtype=np.int64)
        return self.build_view(
            rows,
            self.tenants,
            {
                "risk": self.tenants.astype(float),
                "length_km": self.length_km,
            },
            cache_key="conduit",
        )

    def tenant_view(self, isp: Optional[str] = None) -> GraphView:
        """The conduit graph, or *isp*'s footprint, collapsed to the
        least-shared conduit per pair: a ``length_km`` weight and each
        edge's tenant count as the ``risk`` payload (the §4.3 overlay's
        per-provider graphs and the Pareto sweep)."""
        rows = (
            np.arange(self.num_conduits, dtype=np.int64)
            if isp is None
            else self.rows_for_isp(isp)
        )
        return self.build_view(
            rows,
            self.tenants[rows],
            {"length_km": self.length_km[rows]},
            payload={"risk": self.tenants[rows]},
            cache_key=("fewest_tenants", isp),
        )

    def conduit_degrees(self) -> List[Tuple[str, int]]:
        """Every city's degree in :meth:`conduit_view`, cities in the
        order they first appear among conduit endpoints in sorted-id
        order — the node order NetworkX gives the same graph, which the
        Figure 1 hub marks keep on degree ties."""
        view = self.conduit_view()
        n = len(self.nodes)
        degree = np.bincount(view.eu, minlength=n) + np.bincount(
            view.ev, minlength=n
        )
        ends = np.column_stack([self.cu, self.cv]).ravel()
        _, first = np.unique(ends, return_index=True)
        return [(self.nodes[i], int(degree[i])) for i in ends[np.sort(first)]]

    # -- failures: dead rows as data over a cached view ----------------
    def _failure(
        self,
        view: GraphView,
        rows: "np.ndarray",
        order: "np.ndarray",
        dead_rows: Iterable[int],
    ) -> "Failure":
        """*dead_rows* removed from *view*, the cached collapse of *rows*
        by *order*, as data over it.

        A pair whose representative dies falls back to its next row in
        the collapse order (the first such row in *rows* order on ties,
        the collapse's strict ``<``) or, with none left, loses its edge:
        exactly what collapsing the surviving rows would keep.  A pair
        whose representative survives keeps it.
        """
        held = view.payload["conduit"]
        dead = np.fromiter(dead_rows, dtype=np.int64)
        hit = np.flatnonzero(np.isin(held, dead))
        mask: Optional["np.ndarray"] = None
        edges: List[int] = []
        replacements: List[int] = []
        if hit.size:
            alive = ~np.isin(rows, dead)
            cu, cv = self.cu[rows], self.cv[rows]
            for edge in hit.tolist():
                row = held[edge]
                pos = np.flatnonzero(
                    alive & (cu == self.cu[row]) & (cv == self.cv[row])
                )
                if pos.size:
                    edges.append(edge)
                    # argmin keeps the first best row in rows order.
                    replacements.append(int(rows[pos[np.argmin(order[pos])]]))
                else:
                    if mask is None:
                        mask = np.ones(view.num_edges, dtype=bool)
                    mask[edge] = False
        return Failure(
            mask,
            np.asarray(edges, dtype=np.int64),
            np.asarray(replacements, dtype=np.int64),
        )

    def exclusion(self, conduit_id: str) -> "Failure":
        """One conduit barred from :meth:`conduit_view` (§5.1): its pair
        falls back to the first fewest-tenant parallel conduit, or loses
        its edge when it has none."""
        return self._failure(
            self.conduit_view(),
            np.arange(self.num_conduits, dtype=np.int64),
            self.tenants,
            (self.row_of[conduit_id],),
        )

    def footprint_failure(self, isp: str, dead_rows: Iterable[int]) -> "Failure":
        """*dead_rows* cut from :meth:`footprint_view`: each
        pair falls back to the provider's first shortest surviving
        parallel conduit, or loses its edge."""
        rows = self.rows_for_isp(isp)
        return self._failure(
            self.footprint_view(isp),
            rows,
            self.length_km[rows],
            dead_rows,
        )

    def footprint_view(self, isp: str) -> GraphView:
        """The provider's conduit graph collapsed to the shortest
        parallel conduit (the impact, backup and opacity graph); a cut's
        survivors are a :meth:`footprint_failure` over it."""
        rows = self.rows_for_isp(isp)
        order = self.length_km[rows]
        return self.build_view(
            rows, order, {"length_km": order}, cache_key=("survivors", isp)
        )

    def optimum(self, conduit_id: str, solve: Callable[[], _T]) -> _T:
        """``solve()`` once per conduit for this substrate's lifetime: the
        §5.1 optimum around a conduit depends on the map alone, so every
        provider, Figure 10 and every ``audit`` share it.  Concurrent
        first calls may each solve; all get the first stored value.
        """
        memo = self._optima
        with _MEMO_LOCK:
            if conduit_id in memo:
                return memo[conduit_id]
        value = solve()
        with _MEMO_LOCK:
            return memo.setdefault(conduit_id, value)

    def links_crossing(self, fiber_map, conduit_ids: Iterable[str]) -> list:
        """Every link of *fiber_map* (this substrate's map) riding one of
        *conduit_ids*, in the map's link order — which is also each
        provider's ``links_of`` order.  The conduit -> links index is
        built on first use."""
        index = self._link_index
        if index is None:
            links = list(fiber_map.links.values())
            by_conduit: Dict[str, List[int]] = {}
            for i, link in enumerate(links):
                for cid in link.conduit_ids:
                    by_conduit.setdefault(cid, []).append(i)
            index = self._link_index = (links, by_conduit)
        links, by_conduit = index
        hit = {i for cid in conduit_ids for i in by_conduit.get(cid, ())}
        return [links[i] for i in sorted(hit)]


class Failure(NamedTuple):
    """Dead conduit rows as data over one cached collapsed view.

    ``edge_mask`` is ``False`` on each edge whose city pair lost every
    row (``None`` when none did); ``edges[i]`` lost its representative
    but kept a parallel row, ``rows[i]``, which takes over.
    """

    edge_mask: Optional["np.ndarray"]
    edges: "np.ndarray"
    rows: "np.ndarray"

    def override(
        self, view: GraphView, weight: str, per_row: "np.ndarray"
    ) -> Optional["np.ndarray"]:
        """*view*'s *weight* with each replaced edge taking its
        replacement row's value from *per_row* (``None``: unchanged)."""
        if not self.edges.size:
            return None
        values = view.weights[weight].copy()
        values[self.edges] = per_row[self.rows]
        return values

    def conduit_rows(self, view: GraphView, edges: Sequence[int]) -> "np.ndarray":
        """The conduit row each of *edges* rides under the failure."""
        edges = np.asarray(edges, dtype=np.int64)
        rows = view.payload["conduit"][edges]
        for edge, row in zip(self.edges.tolist(), self.rows.tolist()):
            rows[edges == edge] = row
        return rows


# ----------------------------------------------------------------------
# Minimum cuts (the §4 partition metric)
# ----------------------------------------------------------------------
def minimum_cut(
    capacity: Dict[Tuple[Hashable, Hashable], int],
    source: Hashable,
    sink: Hashable,
) -> Tuple[int, FrozenSet[Hashable]]:
    """Minimum *source*-*sink* cut of an undirected graph given as one
    integer capacity per node pair (key each pair once, in either order).

    Returns ``(value, sink_side)``.  The sink side is every node that
    can still reach *sink* in the residual graph of a maximum flow: the
    same set for every maximum flow, and NetworkX ``minimum_cut``'s east
    side.  It is not the complement of the nodes reachable from
    *source*, which differs whenever the minimum cut is not unique.
    """
    nodes = list(dict.fromkeys([source, sink, *(n for p in capacity for n in p)]))
    index = {node: i for i, node in enumerate(nodes)}
    u = [index[a] for a, _ in capacity]
    v = [index[b] for _, b in capacity]
    cap = np.asarray(list(capacity.values()), dtype=np.int32)
    # Undirected: the same capacity in both directions.
    graph = csr_matrix(
        (np.concatenate([cap, cap]), (u + v, v + u)),
        shape=(len(nodes), len(nodes)),
        dtype=np.int32,
    )
    flow = maximum_flow(graph, index[source], index[sink])
    residual = csr_matrix(graph - flow.flow)
    residual.eliminate_zeros()  # saturated arcs
    # Reaching the sink is reachability from it over reversed arcs.
    reaches_sink = breadth_first_order(
        residual.T, index[sink], directed=True, return_predecessors=False
    )
    return int(flow.flow_value), frozenset(nodes[i] for i in reaches_sink)


# ----------------------------------------------------------------------
# Transportation-network views (§5.2 candidates / §5.3 ROW paths)
# ----------------------------------------------------------------------
def compile_transport_view(network, kinds: Optional[Iterable[str]]) -> GraphView:
    """One kind-restricted right-of-way graph: per edge, the shortest
    covering geometry among the allowed kinds (every kind when *kinds*
    is ``None``).  Callers get it memoized through :func:`row_view`."""
    nodes = network.cities()
    index = {k: i for i, k in enumerate(nodes)}
    kind_set = frozenset(kinds) if kinds is not None else None
    eu, ev, lengths = [], [], []
    for record in network.edges():
        if kind_set is None:
            length = record.length_km
        else:
            usable = record.kinds & kind_set
            if not usable:
                continue
            length = min(
                record.geometries[name].length_km
                for name in record.corridor_names
                if record.kind_of[name] in usable
            )
        eu.append(index[record.edge[0]])
        ev.append(index[record.edge[1]])
        lengths.append(length)
    return GraphView(
        nodes,
        index,
        np.asarray(eu, dtype=np.int32),
        np.asarray(ev, dtype=np.int32),
        {"length_km": np.asarray(lengths, dtype=float)},
    )


# ----------------------------------------------------------------------
# The memos: one compiled substrate per fiber map, one ROW view per kind set
# ----------------------------------------------------------------------
#: Weak-keyed, so a compiled map lives exactly as long as its fiber map
#: (or network); the lock makes each build single-flight across threads.
_SUBSTRATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_ROW_VIEWS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_LOCK = threading.Lock()


def substrate_for(fiber_map) -> ConduitSubstrate:
    """The compiled substrate of a fiber map, built once per map."""
    with _LOCK:
        substrate = _SUBSTRATES.get(fiber_map)
        if substrate is None:
            substrate = _SUBSTRATES[fiber_map] = ConduitSubstrate(fiber_map)
    return substrate


def row_view(network, kinds: Optional[Iterable[str]] = None) -> GraphView:
    """The compiled right-of-way graph of a network over a kind set
    (``None``: every kind), built on first use per kind set.  Networks
    are not edited once their builder returns, so a view never goes
    stale."""
    key = frozenset(kinds) if kinds is not None else None
    with _LOCK:
        views = _ROW_VIEWS.setdefault(network, {})
        view = views.get(key)
        if view is None:
            view = views[key] = compile_transport_view(network, key)
    return view
