"""RNG contract v2: counter-based, batch-vectorized trace streams.

Contract v1 (the historical default) gives every trace index a private
``random.Random(blake2b(f"{seed}:{index}"))`` stream.  That preserves
order independence, but constructing the hash and the Mersenne state
costs ~14.5 µs per trace — a Python floor that no amount of sharding
removes once the columnar pipeline made everything after the draws
vectorized.

Contract v2 keeps the *property* (every draw's position depends only on
``(seed, purpose, round, trace index)``) but moves the streams onto
counter-based :class:`numpy.random.Philox` generators so a shard
materializes the draws for thousands of traces in a handful of numpy
calls.  The stream specification (normative; see DESIGN §14):

* A **stream** is ``Philox(key=[seed mod 2**64, purpose << 32 | sub])``
  with the counter starting at zero.  Positions within a stream are
  counted in Philox counter *blocks*; one block yields exactly
  ``BLOCK_DRAWS = 4`` float64 uniforms (``Generator.random``'s
  consumption order), and ``Philox.advance(k)`` seeks to block ``k``.
* **ENDPOINT** streams (``purpose=1``, ``sub=r`` for redraw round
  ``r``): trace index ``i`` owns block ``i`` — four uniforms consumed
  as (client-ISP, dest-ISP, client-city, dest-city).  A weighted pick
  maps a uniform ``u`` onto cumulative weights ``cum`` as
  ``bisect_right(cum, u * cum[-1])`` clamped to the last entry — the
  same semantics as contract v1's ``_pick``.  A degenerate draw
  (identical endpoints) or an unreachable pair moves the trace to
  round ``r + 1``; the retry budget is :data:`MAX_ATTEMPTS_PER_TRACE`
  rounds, as in v1.
* The **NOISE** stream (``purpose=2``, ``sub=0``): trace index ``i``
  owns blocks ``[i * 16, (i + 1) * 16)`` — ``HOP_NOISE_BUDGET = 64``
  unit uniforms, of which visible hop ``j`` consumes slot ``j``.  The
  RTT of hop ``j`` is ``double_cum[j] + QUEUE_NOISE_MS * u_j``, the
  same float expression as under v1.  A path with more than 64 visible
  hops is a contract violation (raised by the v2 draw, never
  truncated; v1 has no such limit); the deepest path in any shipped
  topology is far below the budget.
* The **GEO** stream (``purpose=3``, ``sub=0``): enumeration index
  ``i`` of the geolocation build (sorted providers, each provider's
  sorted routers) owns block ``i``; slot 0 picks the near-miss city as
  ``pool[floor(u * len(pool))]`` over the sorted candidate pool.

Because positions are absolute, serial and sharded campaigns are
byte-identical at every worker count and batch size by construction —
the property the fault-tolerance ladder (shard replay) and the sweep
layer rely on.

The batch machinery here serves both contracts: the plan's sampling
tables (:class:`_PlanTables`), the routing core's arrays and the
destination-row stack (:class:`_CoreTables`), the hop-template store
(:class:`_TemplateStore`), the column gather (:func:`_gather_into`)
and the batch loop (:func:`generate_columns`).  A contract is one
batch draw over them (:data:`BatchDraw`): :func:`_batch_rows` for v2,
``campaign._v1_batch_rows`` for v1 — so both run the same pool
protocol, rows phase included, and both gather straight into one
presized output.

Versioning rules: a change to any stream definition, draw order, pick
semantics, or budget above is a **new contract version**, never an
in-place edit — v1 and v2 artifacts must never collide, so the version
is threaded through ``CampaignConfig``, stage cache keys, shard
manifests, and npz payloads.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np
from numpy.random import Generator, Philox

from repro.perf.substrate import _NO_PREDECESSOR, walk_many
from repro.traceroute.columns import TRACE_DTYPE, ColumnSchema, TraceColumns
from repro.traceroute.probe import ACCESS_DELAY_MS, QUEUE_NOISE_MS, ProbeEngine

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.traceroute.campaign import CampaignConfig, _CampaignPlan
    from repro.traceroute.topology import InternetTopology

#: The supported RNG contract versions.
RNG_CONTRACT_V1 = 1
RNG_CONTRACT_V2 = 2
SUPPORTED_RNG_CONTRACTS = (RNG_CONTRACT_V1, RNG_CONTRACT_V2)

#: Retry budget within one trace's private stream: degenerate draws
#: (same endpoint, unreachable pair) are redrawn — from the same
#: Mersenne stream under v1, from the next round's Philox stream under
#: v2 — which keeps every trace independent of all others.
MAX_ATTEMPTS_PER_TRACE = 128

#: float64 uniforms per Philox counter block (what ``advance(1)`` skips).
BLOCK_DRAWS = 4
#: Noise blocks owned by one trace; ``* BLOCK_DRAWS`` slots of budget.
HOP_NOISE_BLOCKS = 16
#: Per-trace visible-hop budget of the v2 noise stream.
HOP_NOISE_BUDGET = HOP_NOISE_BLOCKS * BLOCK_DRAWS

#: Traces materialized per vectorized batch.  Never affects the column
#: bytes (stream positions are absolute trace indices).
DEFAULT_BATCH_SIZE = 8192

_MASK64 = (1 << 64) - 1
_PURPOSE_ENDPOINT = 1
_PURPOSE_NOISE = 2
_PURPOSE_GEO = 3


def default_rng_contract() -> int:
    """The contract version new configs default to.

    ``REPRO_RNG_CONTRACT`` overrides (the rng-compat CI job runs the
    golden suite under ``REPRO_RNG_CONTRACT=1``); otherwise v2.
    """
    raw = os.environ.get("REPRO_RNG_CONTRACT", "").strip()
    if not raw:
        return RNG_CONTRACT_V2
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_RNG_CONTRACT must be an integer, got {raw!r}"
        ) from None
    if value not in SUPPORTED_RNG_CONTRACTS:
        raise ValueError(
            f"REPRO_RNG_CONTRACT must be one of "
            f"{SUPPORTED_RNG_CONTRACTS}, got {value}"
        )
    return value


def _stream(
    seed: int, purpose: int, sub: int, block_offset: int = 0
) -> Generator:
    """The v2 stream ``(seed, purpose, sub)`` positioned at a block."""
    key = np.array(
        [seed & _MASK64, ((purpose & 0xFFFFFFFF) << 32) | (sub & 0xFFFFFFFF)],
        dtype=np.uint64,
    )
    bits = Philox(key=key)
    if block_offset:
        bits.advance(int(block_offset))
    return Generator(bits)


def _pick_indices(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized v1 ``_pick``: ``bisect(cum, u * cum[-1])`` clamped."""
    idx = np.searchsorted(cum, u * cum[-1], side="right")
    return np.minimum(idx, len(cum) - 1)


class _PlanTables:
    """The campaign plan's sampling tables as numpy arrays, plus the
    endpoint-pair coding the template store is keyed on.

    Node ``gid``s are global (shared by the client and dest sides), so
    ``client_gid[cn] == dest_gid[dn]`` is exactly v1's degenerate-pair
    test (same city *and* same ISP).
    """

    def __init__(self, plan: "_CampaignPlan"):
        self.client_cum = np.asarray(plan.client_cum, dtype=np.float64)
        self.dest_cum = np.asarray(plan.dest_cum, dtype=np.float64)
        gid_of: Dict[Tuple[str, str], int] = {}

        def build_side(names, tables):
            city_cums: List[np.ndarray] = []
            bases: List[int] = []
            nodes: List[Tuple[str, str]] = []
            gids: List[int] = []
            for isp in names:
                cities, cum = tables[isp]
                bases.append(len(nodes))
                city_cums.append(np.asarray(cum, dtype=np.float64))
                for city in cities:
                    node = (isp, city)
                    nodes.append(node)
                    gids.append(gid_of.setdefault(node, len(gid_of)))
            return city_cums, np.asarray(bases), nodes, np.asarray(gids)

        (self.client_city_cum, self.client_base,
         self.client_nodes, self.client_gid) = build_side(
            plan.client_names, plan.client_cities
        )
        (self.dest_city_cum, self.dest_base,
         self.dest_nodes, self.dest_gid) = build_side(
            plan.dest_names, plan.dest_cities
        )
        self.n_dest_nodes = len(self.dest_nodes)


class _CoreTables:
    """Vectorized views of the routing core for batch template building.

    Per-node schema ids and MPLS flags indexed by core node number, the
    predecessor rows of every campaign destination, and a flat sorted
    ``(u * n + v) -> weight`` edge table, so a whole batch of new
    endpoint pairs becomes a handful of fancy-indexing calls.

    ``pred`` is the caller's ``(len(tables.dest_nodes), n_nodes)`` int32
    stack, row ``d`` for destination ``d``; construction never reads it.
    The serial path fills it through the core's row cache, which then
    views its rows (:meth:`fill_from_core`): the campaign and the core
    share one copy.  A pool hands in a shared anonymous mapping that its
    forked workers fill slice by slice (:meth:`solve_rows`).  Either way
    rows are solved in the core's bounded chunks, never all at once.
    """

    def __init__(
        self,
        topology: "InternetTopology",
        schema: ColumnSchema,
        tables: _PlanTables,
        pred: np.ndarray,
    ):
        core = self.core = topology.routing_core()
        nodes = core.nodes
        n = len(nodes)
        self.n_nodes = n
        self.router_id = np.empty(n, dtype=np.int32)
        self.isp_id = np.empty(n, dtype=np.int32)
        self.city_id = np.empty(n, dtype=np.int32)
        self.mpls = np.zeros(n, dtype=bool)
        mpls_of: Dict[str, bool] = {}
        for i, (isp, city) in enumerate(nodes):
            self.router_id[i] = schema.router_index[(isp, city)]
            self.isp_id[i] = schema.isp_index[isp]
            self.city_id[i] = schema.city_index[city]
            flag = mpls_of.get(isp)
            if flag is None:
                flag = mpls_of[isp] = topology.uses_mpls(isp)
            self.mpls[i] = flag
        index = core.index

        def core_of(node: Tuple[str, str]) -> int:
            # Mirror the scalar builder's precheck: a node without a
            # router is unreachable even if it appears in the graph.
            if not topology.has_router(*node):
                return -1
            return index.get(node, -1)

        self.client_core = np.array(
            [core_of(node) for node in tables.client_nodes], dtype=np.int64
        )
        self.dest_core = np.array(
            [core_of(node) for node in tables.dest_nodes], dtype=np.int64
        )
        self.pred = pred
        # Both directions of every edge, sorted by ``u * n + v``.
        eu = core.eu.astype(np.int64)
        ev = core.ev.astype(np.int64)
        keys = np.concatenate([eu * n + ev, ev * n + eu])
        order = np.argsort(keys, kind="stable")
        self.edge_key = keys[order]
        self.edge_w = np.tile(core.weights[core.weight], 2)[order]

    def fill_from_core(self) -> None:
        """Fill the stack through the core's row cache
        (:meth:`RoutingCore.share_into`): a row the core already holds
        is copied, the others are solved straight into the stack, and
        the core then caches the stack's rows as views.  Later path
        queries on the same topology (a traffic shift's routes) read the
        campaign's copy of each row instead of a second one.  Only the
        serial path calls this; a pool's stack is a mapping closed after
        the campaign, which the core must never view."""
        nodes = self.core.nodes
        live = np.flatnonzero(self.dest_core >= 0)
        self.pred[self.dest_core < 0] = _NO_PREDECESSOR
        self.core.share_into(
            [nodes[ci] for ci in self.dest_core[live].tolist()],
            self.pred, live.tolist(),
        )

    def solve_rows(self, part: int, parts: int) -> int:
        """Solve destination rows ``part::parts`` straight into the
        stack, in the core's bounded chunks but bypassing its row cache
        (:meth:`RoutingCore.solve_into`); returns the rows solved.  A
        part owns fixed rows, so solving it again rewrites the same
        bytes."""
        rows = np.arange(part, len(self.dest_core), parts)
        cores = self.dest_core[rows]
        self.pred[rows[cores < 0]] = _NO_PREDECESSOR
        live = rows[cores >= 0]
        nodes = self.core.nodes
        self.core.solve_into(
            [nodes[ci] for ci in cores[cores >= 0].tolist()],
            self.pred, live,
        )
        return int(live.size)


def _grown(array: np.ndarray, used: int, need: int) -> np.ndarray:
    """*array* with room for *need* leading entries (its first *used*
    kept), doubling its length when it must grow."""
    if need <= len(array):
        return array
    grown = np.zeros((max(need, 2 * len(array)),) + array.shape[1:],
                     dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


class _TemplateStore:
    """Hop templates in flat arrays behind a dense pair table.

    Template ``t`` (one per resolved endpoint pair) owns ``counts[t]``
    consecutive entries of the flat ``hop_router`` and ``cum`` arrays
    (its visible-hop router ids and doubled cumulative latencies) from
    ``start[t]`` on; ``counts[t] == -1`` marks an unreachable pair.
    ``endpoints[t]`` holds its four schema endpoint ids.  ``row_of`` is
    indexed by the pair code ``cn * n_dest_nodes + dn`` and holds each
    pair's template id, ``-1`` until it is built, so a batch's lookup
    is one gather.  Templates are built in vectorized batches against
    the routing core; they are bit-identical to one engine template per
    pair (the scalar oracle in ``tests/oracles/campaign.py``) because a
    row-wise ``cumsum`` over the path's edge weights replays the scalar
    path's sequential left-to-right latency accumulation exactly.
    Templates persist across batches and shards within a worker.
    """

    def __init__(self, tables: _PlanTables) -> None:
        self.row_of = np.full(
            len(tables.client_nodes) * tables.n_dest_nodes, -1,
            dtype=np.int32,
        )
        self.start = np.zeros(1024, dtype=np.int64)
        self.counts = np.zeros(1024, dtype=np.int64)
        self.endpoints = np.zeros((1024, 4), dtype=np.int32)
        self.hop_router = np.zeros(8192, dtype=np.int32)
        self.cum = np.zeros(8192, dtype=np.float64)
        #: Templates and flat hop entries in use.
        self.size = 0
        self.num_hops = 0

    @property
    def nbytes(self) -> int:
        """Bytes held by the store's arrays (allocated, not just used)."""
        return sum(
            getattr(self, name).nbytes
            for name in ("row_of", "start", "counts", "endpoints",
                         "hop_router", "cum")
        )

    def append(
        self,
        codes: np.ndarray,
        counts: np.ndarray,
        hop_router: np.ndarray,
        cum: np.ndarray,
        endpoints: np.ndarray,
    ) -> None:
        """Store one template per pair code: *counts* (``-1`` for an
        unreachable pair), the hops of every reachable pair back to back
        in *hop_router*/*cum*, and the ``(m, 4)`` *endpoints*."""
        m, h = len(codes), len(hop_router)
        t0, h0 = self.size, self.num_hops
        for name in ("start", "counts", "endpoints"):
            setattr(self, name, _grown(getattr(self, name), t0, t0 + m))
        for name in ("hop_router", "cum"):
            setattr(self, name, _grown(getattr(self, name), h0, h0 + h))
        ends = h0 + np.cumsum(np.maximum(counts, 0))
        self.start[t0:t0 + m] = ends - np.maximum(counts, 0)
        self.counts[t0:t0 + m] = counts
        self.endpoints[t0:t0 + m] = endpoints
        self.hop_router[h0:h0 + h] = hop_router
        self.cum[h0:h0 + h] = cum
        self.row_of[codes] = np.arange(t0, t0 + m, dtype=np.int32)
        self.size += m
        self.num_hops += h

    def _build(
        self, ct: _CoreTables, tables: _PlanTables, codes: np.ndarray
    ) -> None:
        """All of ``codes``' templates in one pass over the core arrays."""
        counts = np.full(len(codes), -1, dtype=np.int64)
        endpoints = np.zeros((len(codes), 4), dtype=np.int32)
        cn, dn = np.divmod(codes, tables.n_dest_nodes)
        src = ct.client_core[cn]
        dst = ct.dest_core[dn]
        reach = (src >= 0) & (dst >= 0)
        safe_src = np.where(src >= 0, src, 0)
        reach &= ct.pred[dn, safe_src] != _NO_PREDECESSOR
        ridx = np.flatnonzero(reach)
        if not ridx.size:
            self.append(
                codes, counts, np.zeros(0, dtype=np.int32),
                np.zeros(0, dtype=np.float64), endpoints,
            )
            return
        src_r, dst_r = src[ridx], dst[ridx]
        paths = walk_many(ct.pred, dn[ridx], src_r, dst_r)
        length = paths.shape[1]
        # Real steps vs hold-at-destination padding.
        valid = np.ones(paths.shape, dtype=bool)
        valid[:, 1:] = paths[:, 1:] != paths[:, :-1]
        path_len = valid.sum(axis=1)
        # cumsum([access/2, w1, w2, ...]) replays the scalar builder's
        # sequential partial sums bit for bit.
        weights = np.zeros(paths.shape, dtype=np.float64)
        weights[:, 0] = ACCESS_DELAY_MS / 2.0
        if length > 1:
            step = valid[:, 1:]
            keys = paths[:, :-1][step] * ct.n_nodes + paths[:, 1:][step]
            pos = np.searchsorted(ct.edge_key, keys)
            if not np.array_equal(ct.edge_key[pos], keys):
                raise RuntimeError("path step without a graph edge")
            weights[:, 1:][step] = ct.edge_w[pos]
        one_way = np.cumsum(weights, axis=1)
        # MPLS edge visibility: a hop is hidden only strictly inside an
        # MPLS provider's segment (not first/last, same ISP both sides).
        isp = ct.isp_id[paths]
        prev_differs = np.ones(paths.shape, dtype=bool)
        prev_differs[:, 1:] = isp[:, 1:] != isp[:, :-1]
        next_differs = np.ones(paths.shape, dtype=bool)
        next_differs[:, :-1] = isp[:, :-1] != isp[:, 1:]
        position = np.arange(length)
        visible = valid & (
            ~ct.mpls[paths]
            | (position == 0)[None, :]
            | (position[None, :] == (path_len - 1)[:, None])
            | prev_differs
            | next_differs
        )
        counts[ridx] = visible.sum(axis=1)
        # Row-major nonzero lists the visible hops template by template,
        # which is the flat store's layout.
        vr, vc = np.nonzero(visible)
        endpoints[ridx, 0] = ct.city_id[src_r]
        endpoints[ridx, 1] = ct.isp_id[src_r]
        endpoints[ridx, 2] = ct.city_id[dst_r]
        endpoints[ridx, 3] = ct.isp_id[dst_r]
        self.append(
            codes, counts, ct.router_id[paths[vr, vc]],
            2.0 * one_way[vr, vc], endpoints,
        )

    def rows_for(
        self, tables: _PlanTables, core_tables: _CoreTables, codes: np.ndarray
    ) -> np.ndarray:
        """The template id of every pair code, building only the codes
        no template holds yet."""
        rows = self.row_of[codes]
        missing = rows < 0
        if missing.any():
            self._build(core_tables, tables, np.unique(codes[missing]))
            rows[missing] = self.row_of[codes[missing]]
        return rows


def build_v2_tables(
    topology: "InternetTopology",
    schema: ColumnSchema,
    plan: "_CampaignPlan",
    pred: np.ndarray,
) -> Tuple[_PlanTables, _CoreTables]:
    """A campaign plan's sampling tables and the routing core's arrays:
    what every shard of one campaign shares (a pool builds them once,
    before it forks).  *pred* is the destination-row stack the core
    tables read (see :class:`_CoreTables`); the caller fills it."""
    tables = _PlanTables(plan)
    return tables, _CoreTables(topology, schema, tables, pred)


def _v2_state(
    engine: ProbeEngine,
    plan: "_CampaignPlan",
    prebuilt: Optional[Tuple[_PlanTables, _CoreTables]] = None,
) -> Tuple[_PlanTables, _CoreTables, _TemplateStore]:
    """Per-(engine, plan) vectorization state, cached on the engine so
    it persists across the batches and shards one worker processes.
    *prebuilt* supplies :func:`build_v2_tables`' result instead of
    building it here (from the core's row cache)."""
    state = getattr(engine, "_rngv2_state", None)
    if state is None or state[0] is not plan:
        if prebuilt is None:
            pred = np.empty(
                (len(plan.dest_nodes), engine._core.num_nodes),
                dtype=np.int32,
            )
            prebuilt = build_v2_tables(
                engine._topology, engine.column_schema(), plan, pred
            )
            prebuilt[1].fill_from_core()
        tables, core_tables = prebuilt
        state = (plan, tables, core_tables, _TemplateStore(tables))
        engine._rngv2_state = state
    return state[1], state[2], state[3]


#: A contract's batch draw, :func:`_batch_rows` or
#: ``campaign._v1_batch_rows``: ``(tables, core_tables, store, config,
#: b0, b1) -> (rows, noise)``, the template id of every trace in
#: ``[b0, b1)`` and a callable that returns the batch's unit noise
#: draws, one per visible hop, trace by trace.
BatchDraw = Callable[..., Tuple[np.ndarray, Callable[[], np.ndarray]]]


def _gather_into(
    out: TraceColumns,
    t: int,
    store: _TemplateStore,
    rows: np.ndarray,
    noise: np.ndarray,
) -> None:
    """Write the columns of traces whose endpoint pairs resolved to
    template ids *rows* into *out*, from trace ``t`` on, under either
    contract (``out.hop_offsets[t]`` already holds the first hop's
    position).  *noise* holds one unit draw per visible hop, trace by
    trace."""
    n = len(rows)
    counts = store.counts[rows]
    offsets = out.hop_offsets[t:t + n + 1]
    k = int(offsets[0])
    np.cumsum(counts, out=offsets[1:])
    offsets[1:] += k
    h = int(offsets[-1]) - k
    # One flat gather: hop ``j`` of trace ``i`` reads its template's
    # entry ``start + j``.
    position = np.arange(h, dtype=np.int64)
    at = np.repeat(store.start[rows] - (offsets[:-1] - k), counts) + position
    # rtt = 2*one_way + noise, hop by hop: float64-identical to the
    # scalar path's ``double_one_way + uniform(0.0, QUEUE_NOISE_MS)``.
    np.add(store.cum[at], QUEUE_NOISE_MS * noise, out=out.hop_rtt[k:k + h])
    out.hop_router[k:k + h] = store.hop_router[at]
    traces = out.traces[t:t + n]
    endpoints = store.endpoints[rows]
    traces["src_city"] = endpoints[:, 0]
    traces["src_isp"] = endpoints[:, 1]
    traces["dst_city"] = endpoints[:, 2]
    traces["dst_isp"] = endpoints[:, 3]
    traces["reached"] = True


def _batch_rows(
    tables: _PlanTables,
    core_tables: _CoreTables,
    store: _TemplateStore,
    config: "CampaignConfig",
    b0: int,
    b1: int,
) -> Tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The contract-v2 template rows of traces ``[b0, b1)``, fully
    vectorized, and their noise draw (:func:`_batch_noise`), which the
    NOISE stream's absolute positions let the caller make later."""
    n = b1 - b0
    seed = config.seed
    rows = np.full(n, -1, dtype=np.int64)
    unresolved = np.arange(n, dtype=np.int64)
    for rnd in range(MAX_ATTEMPTS_PER_TRACE):
        # One contiguous draw covering the unresolved span; round 0
        # covers the whole batch, later rounds shrink to the stragglers.
        lo = int(unresolved[0])
        hi = int(unresolved[-1]) + 1
        u = _stream(seed, _PURPOSE_ENDPOINT, rnd, b0 + lo).random(
            BLOCK_DRAWS * (hi - lo)
        ).reshape(-1, BLOCK_DRAWS)[unresolved - lo]
        ci = _pick_indices(tables.client_cum, u[:, 0])
        di = _pick_indices(tables.dest_cum, u[:, 1])
        cn = np.empty(len(unresolved), dtype=np.int64)
        dn = np.empty(len(unresolved), dtype=np.int64)
        for k, cum in enumerate(tables.client_city_cum):
            m = ci == k
            if m.any():
                cn[m] = tables.client_base[k] + _pick_indices(cum, u[m, 2])
        for k, cum in enumerate(tables.dest_city_cum):
            m = di == k
            if m.any():
                dn[m] = tables.dest_base[k] + _pick_indices(cum, u[m, 3])
        distinct = tables.client_gid[cn] != tables.dest_gid[dn]
        codes = cn[distinct] * tables.n_dest_nodes + dn[distinct]
        cand_rows = store.rows_for(tables, core_tables, codes)
        reached = store.counts[cand_rows] >= 0
        hit = np.flatnonzero(distinct)[reached]
        rows[unresolved[hit]] = cand_rows[reached]
        keep = np.ones(len(unresolved), dtype=bool)
        keep[hit] = False
        unresolved = unresolved[keep]
        if unresolved.size == 0:
            break
    else:
        raise RuntimeError(
            f"traces {b0}..{b1}: no reachable (src, dst) pair after "
            f"{MAX_ATTEMPTS_PER_TRACE} draws; topology too disconnected"
        )
    return rows, functools.partial(_batch_noise, store, rows, seed, b0)


def _batch_noise(
    store: _TemplateStore, rows: np.ndarray, seed: int, b0: int
) -> np.ndarray:
    """The contract-v2 unit noise of the traces ``b0, b0 + 1, ...`` that
    resolved to template ids *rows*: one draw per visible hop."""
    n = len(rows)
    counts = store.counts[rows]
    # The budget is v2's alone (v1 draws noise without a hop limit): a
    # trace with more visible hops than it owns slots is a contract
    # violation, raised, never truncated.
    max_hops = int(counts.max(initial=0))
    if max_hops > HOP_NOISE_BUDGET:
        raise RuntimeError(
            f"a path has {max_hops} visible hops; RNG contract v2 "
            f"budgets {HOP_NOISE_BUDGET} noise slots per trace"
        )
    # Visible hop ``k`` of trace ``t`` reads noise slot ``t * 64 + k``
    # of the block the stream draws (every trace owns all 64 slots,
    # whatever it reads).
    first = np.cumsum(counts) - counts
    slot = np.repeat(
        np.arange(0, n * HOP_NOISE_BUDGET, HOP_NOISE_BUDGET) - first, counts
    ) + np.arange(int(counts.sum()), dtype=np.int64)
    noise = _stream(
        seed, _PURPOSE_NOISE, 0, b0 * HOP_NOISE_BLOCKS
    ).random(n * HOP_NOISE_BUDGET)
    return noise[slot]


def generate_columns(
    engine: ProbeEngine,
    plan: "_CampaignPlan",
    config: "CampaignConfig",
    start: int,
    stop: int,
    draw_batch: BatchDraw,
) -> TraceColumns:
    """Trace indices ``[start, stop)`` as columns, ``config.batch_size``
    traces per call of a contract's batch draw (:data:`BatchDraw`).

    Two passes over the batches.  The first resolves every batch's
    template rows (8 B per trace, plus whatever noise its contract
    cannot draw later: v1's, 8 B per hop), which sizes the output from
    the store's hop counts.  The second gathers each batch straight
    into its slice of the output and drops its draws.  The campaign
    never holds its batches' columns beside their concatenation.

    Either contract's draw gives identical output for any split into
    shards or batches, because every trace's streams derive from its
    absolute index alone.
    """
    tables, core_tables, store = _v2_state(engine, plan)
    batch = max(1, config.batch_size)
    drawn: List[Optional[Tuple[np.ndarray, Callable[[], np.ndarray]]]] = [
        draw_batch(
            tables, core_tables, store, config, b0, min(b0 + batch, stop)
        )
        for b0 in range(start, stop, batch)
    ]
    n = sum(len(rows) for rows, _noise in drawn)
    h = sum(int(store.counts[rows].sum()) for rows, _noise in drawn)
    out = TraceColumns(
        engine.column_schema(),
        np.zeros(n, dtype=TRACE_DTYPE),
        np.zeros(n + 1, dtype=np.int64),
        np.empty(h, dtype=np.int32),
        np.empty(h, dtype=np.float64),
        rng_contract=config.rng_contract,
    )
    t = 0
    for i, (rows, noise) in enumerate(drawn):
        drawn[i] = None
        _gather_into(out, t, store, rows, noise())
        t += len(rows)
    return out


def generate_columns_v2(
    engine: ProbeEngine,
    plan: "_CampaignPlan",
    config: "CampaignConfig",
    start: int,
    stop: int,
) -> TraceColumns:
    """Trace indices ``[start, stop)`` as columns under contract v2."""
    return generate_columns(engine, plan, config, start, stop, _batch_rows)


def geo_unit_draws(seed: int, count: int) -> np.ndarray:
    """Slot-0 uniforms of the GEO stream for enumeration indices
    ``[0, count)`` (the geolocation database's near-miss picks)."""
    if count == 0:
        return np.zeros(0, dtype=np.float64)
    return _stream(seed, _PURPOSE_GEO, 0).random(
        BLOCK_DRAWS * count
    ).reshape(-1, BLOCK_DRAWS)[:, 0]
