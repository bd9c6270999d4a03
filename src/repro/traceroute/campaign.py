"""Campaign generation: the Edgescope-style measurement workload.

The paper's data come from BitTorrent clients in diverse locations
(Edgescope [80]) probing peers and services: clients sit in residential
access networks (cable MSOs and consumer ISPs) weighted by population,
and destinations concentrate in content cities hosted on transit
backbones — which is why Level 3 dominates the observed conduit usage
(Table 4).

Every trace index owns a private RNG stream derived from
``(config.seed, index)``, so a campaign is an order-independent map
over trace indices: the serial loop and the sharded
``ProcessPoolExecutor`` path produce byte-identical columns, and any
subrange can be regenerated without replaying the whole campaign.  Two
stream *contracts* implement that property (``config.rng_contract``):

* **v1** — per-trace ``random.Random(blake2b(seed:index))`` streams,
  the historical contract, kept bit-for-bit for every pinned golden;
* **v2** (default) — counter-based Philox streams positioned by the
  absolute trace index (:mod:`repro.traceroute.rngv2`), which lets a
  shard draw thousands of traces per numpy call instead of paying the
  ~14.5 µs/trace Python RNG floor.

The contracts differ only in their draws.  Both generate a batch of
traces the same way: draw each trace's endpoint pair (redrawing
degenerate and unreachable pairs), resolve the batch's pairs to hop
templates in one lookup (:class:`~repro.traceroute.rngv2._TemplateStore`,
built against the routing core's destination rows), draw one noise
value per visible hop, and gather the columns straight into the
campaign's presized output.  Contract v1's draw is the one function
:func:`_v1_batch_rows`.

A campaign materializes as :class:`~repro.traceroute.columns.TraceColumns`
— numpy columns plus interned string tables — not a list of record
objects; the columns still behave as a sequence of
:class:`~repro.traceroute.probe.TracerouteRecord` for every legacy
consumer.

The pool path runs in two phases on one forked pool, under either
contract.  The parent maps an anonymous shared stack with one
predecessor row per campaign destination and forks before any Dijkstra
runs; the workers inherit the mapping.  First, rows task ``k`` solves
destinations ``k::n_workers`` in one batched call and writes their rows
into the stack (a ``campaign.rows`` span each).  Then the shard tasks
trace over the filled stack: each worker fills a named
``multiprocessing.shared_memory`` segment with its shard's raw column
bytes and returns only the segment name and an array manifest (a
``campaign.shard`` span each).  Once every shard is in, the parent
sizes the final columns from the manifests and stitches the shards one
at a time, closing and unlinking each segment as soon as it is copied,
so the stitch holds the output plus one shard, never every shard twice
(a finally-scoped sweep also covers segments the stitch never reached,
segments orphaned by crashed workers, and a KeyboardInterrupt, so
``/dev/shm`` never accumulates).

That same per-index property makes the pool path *fault-tolerant for
free*: when a worker process dies (OOM kill, segfault, injected crash)
the broken pool is torn down, re-spawned after a bounded exponential
backoff, and only the incomplete rows tasks and shards are requeued —
a rows task rewrites its own fixed rows and replaying a shard cannot
change its columns.  After ``max_pool_restarts`` consecutive restarts
with no progress the remaining tasks degrade to an in-process serial
run, so a campaign always completes with the exact column stream a
fault-free run would have produced.  Recovery is observable: each
restart emits a ``campaign.retry`` tracer event and the serial
fallback emits ``campaign.degraded``, both visible in run manifests.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import mmap
import multiprocessing
import os
import random
import time
from bisect import bisect
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import accumulate
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

try:  # the POSIX C helper behind SharedMemory; lets the janitor unlink
    import _posixshmem  # segments too malformed to attach to
except ImportError:  # pragma: no cover - non-POSIX platforms
    _posixshmem = None

from repro.data.cities import city_by_name
from repro.obs.faults import FaultInjector, get_fault_injector, set_fault_injector
from repro.obs.tracer import get_tracer
from repro.perf.substrate import _NO_PREDECESSOR
from repro.traceroute.columns import ColumnSchema, TraceColumns, unpack_shard
from repro.traceroute.probe import ProbeEngine
from repro.traceroute.rngv2 import (
    DEFAULT_BATCH_SIZE,
    MAX_ATTEMPTS_PER_TRACE,
    SUPPORTED_RNG_CONTRACTS,
    _CoreTables,
    _PlanTables,
    _TemplateStore,
    _v2_state,
    build_v2_tables,
    default_rng_contract,
    generate_columns,
    generate_columns_v2,
)
from repro.traceroute.topology import InternetTopology

#: Residential access providers clients sit behind, with mix weights.
DEFAULT_CLIENT_ISPS: Tuple[Tuple[str, float], ...] = (
    ("Comcast", 4.0),
    ("TWC", 3.0),
    ("Cox", 2.0),
    ("Suddenlink", 1.0),
    ("Verizon", 2.5),
    ("AT&T", 2.5),
)

#: Destination hosting providers, with mix weights.  Level 3's dominance
#: here reflects its role as the largest content-transit backbone.
DEFAULT_DEST_ISPS: Tuple[Tuple[str, float], ...] = (
    ("Level 3", 6.0),
    ("Cogent", 2.0),
    ("SoftLayer", 2.0),
    ("AT&T", 1.5),
    ("Verizon", 1.2),
    ("Comcast", 1.5),
    ("CenturyLink", 1.0),
    ("MFN", 0.8),
    ("XO", 0.8),
    ("Zayo", 0.7),
    ("NTT", 0.6),
    ("Cox", 0.6),
    ("Sprint", 0.6),
    ("GTT", 0.4),
)

#: Destination cities are weighted by population to this power
#: (content concentrates in big metros).
DEST_POPULATION_EXPONENT = 1.3

#: Client cities are weighted by population to this power.
CLIENT_POPULATION_EXPONENT = 0.9

#: Smallest shard handed to one worker task; keeps task dispatch
#: overhead negligible next to the tracing work.
_MIN_CHUNK = 250

#: Ceiling on the exponential backoff between pool restarts.
_RETRY_BACKOFF_CAP_S = 2.0

#: Distinguishes segment names across campaigns within one process.
_SEGMENT_SEQ = itertools.count()

#: Contract-v1 streams (~2.5 kB of Mersenne state each) a batch holds
#: at once: every this many traces it draws their hop noise and drops
#: them, instead of holding one per trace until the batch ends.
_V1_MAX_STREAMS = 1024


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one measurement campaign."""

    num_traces: int = 20000
    seed: int = 41
    client_isps: Tuple[Tuple[str, float], ...] = DEFAULT_CLIENT_ISPS
    dest_isps: Tuple[Tuple[str, float], ...] = DEFAULT_DEST_ISPS
    #: Worker processes: 1 runs in-process, 0 auto-detects CPU cores.
    #: The column stream is identical for every worker count.
    workers: int = 1
    #: Consecutive no-progress pool restarts tolerated before the
    #: remaining shards degrade to an in-process serial run.
    max_pool_restarts: int = 3
    #: First retry delay; doubles per consecutive restart, capped at
    #: :data:`_RETRY_BACKOFF_CAP_S`.
    retry_backoff_s: float = 0.05
    #: RNG contract version: 1 = per-trace ``random.Random`` streams
    #: (the historical contract, kept for golden compatibility), 2 =
    #: counter-based vectorized Philox streams (see
    #: :mod:`repro.traceroute.rngv2`).  Defaults from the
    #: ``REPRO_RNG_CONTRACT`` environment, else v2.
    rng_contract: int = field(default_factory=default_rng_contract)
    #: Traces drawn per batch (one template lookup, one column
    #: gather); never affects the column bytes, only peak working-set
    #: size.
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.rng_contract not in SUPPORTED_RNG_CONTRACTS:
            raise ValueError(
                f"rng_contract must be one of {SUPPORTED_RNG_CONTRACTS}, "
                f"got {self.rng_contract!r}"
            )
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


def _city_table(
    topology: InternetTopology, isp: str, exponent: float
) -> Tuple[List[str], List[float]]:
    cities = topology.cities_of(isp)
    cum_weights = list(
        accumulate(
            max(1.0, float(city_by_name(c).population)) ** exponent
            for c in cities
        )
    )
    return cities, cum_weights


class _CampaignPlan:
    """Deterministic sampling tables, identical in every worker."""

    def __init__(self, topology: InternetTopology, config: CampaignConfig):
        available = set(topology.providers())
        client = [(i, w) for i, w in config.client_isps if i in available]
        dest = [(i, w) for i, w in config.dest_isps if i in available]
        if not client or not dest:
            raise ValueError("no usable client or destination providers")
        self.client_names = [i for i, _ in client]
        self.client_cum = list(accumulate(w for _, w in client))
        self.dest_names = [i for i, _ in dest]
        self.dest_cum = list(accumulate(w for _, w in dest))
        self.client_cities: Dict[str, Tuple[List[str], List[float]]] = {
            isp: _city_table(topology, isp, CLIENT_POPULATION_EXPONENT)
            for isp in self.client_names
        }
        self.dest_cities: Dict[str, Tuple[List[str], List[float]]] = {
            isp: _city_table(topology, isp, DEST_POPULATION_EXPONENT)
            for isp in self.dest_names
        }
        #: Every router node a campaign trace can target — the batch the
        #: array routing core precomputes in one C Dijkstra call.
        self.dest_nodes: List[Tuple[str, str]] = [
            (isp, city)
            for isp in self.dest_names
            for city in self.dest_cities[isp][0]
        ]


def _trace_seed(seed: int, index: int) -> int:
    """A well-mixed, process-stable seed for one trace's RNG stream."""
    data = f"{seed}:{index}".encode()
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def _unreachable(index: int) -> RuntimeError:
    return RuntimeError(
        f"trace {index}: no reachable (src, dst) pair after "
        f"{MAX_ATTEMPTS_PER_TRACE} draws; topology too disconnected"
    )


def _v1_batch_rows(
    tables: _PlanTables,
    core_tables: _CoreTables,
    store: _TemplateStore,
    config: CampaignConfig,
    b0: int,
    b1: int,
) -> Tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The contract-v1 template rows of traces ``[b0, b1)`` and their
    noise (see :data:`~repro.traceroute.rngv2.BatchDraw`).

    Trace ``i`` draws from its private ``random.Random(_trace_seed(seed,
    i))``: each attempt picks the client ISP, the destination ISP, the
    client city and the destination city (one ``random()`` each, a
    ``bisect`` over the cumulative weights), and a degenerate pair (the
    same router node) or an unreachable one (no predecessor in the
    shared destination-row stack) is redrawn, for at most
    :data:`MAX_ATTEMPTS_PER_TRACE` attempts.  Each trace then draws one
    ``random()`` per visible hop from the same stream — the object
    reference in ``tests/oracles/campaign.py`` draw for draw.  The
    noise is drawn every :data:`_V1_MAX_STREAMS` traces, after one
    template lookup for their pairs, so a batch never holds more
    streams than that.  A trace's noise follows its endpoint draws in
    its one stream, so unlike v2's it is drawn here and held (8 B per
    hop) until the gather.
    """
    client_cum = tables.client_cum.tolist()
    dest_cum = tables.dest_cum.tolist()
    client_cities = [
        (int(base), cum.tolist())
        for base, cum in zip(tables.client_base, tables.client_city_cum)
    ]
    dest_cities = [
        (int(base), cum.tolist())
        for base, cum in zip(tables.dest_base, tables.dest_city_cum)
    ]
    client_gid = tables.client_gid.tolist()
    dest_gid = tables.dest_gid.tolist()
    client_core = core_tables.client_core.tolist()
    pred = core_tables.pred
    streams: List[random.Random] = []
    codes: List[int] = []
    noise: List[float] = []

    def draw_noise() -> None:
        # The held streams belong to the last len(streams) traces.
        rows = store.rows_for(
            tables, core_tables,
            np.asarray(codes[len(codes) - len(streams):], dtype=np.int64),
        )
        for rng, hops in zip(streams, store.counts[rows].tolist()):
            draw = rng.random
            noise.extend([draw() for _ in range(hops)])
        streams.clear()

    for index in range(b0, b1):
        rng = random.Random(_trace_seed(config.seed, index))
        draw = rng.random
        for _ in range(MAX_ATTEMPTS_PER_TRACE):
            ci = bisect(client_cum, draw() * client_cum[-1],
                        0, len(client_cum) - 1)
            di = bisect(dest_cum, draw() * dest_cum[-1],
                        0, len(dest_cum) - 1)
            base, cum = client_cities[ci]
            cn = base + bisect(cum, draw() * cum[-1], 0, len(cum) - 1)
            base, cum = dest_cities[di]
            dn = base + bisect(cum, draw() * cum[-1], 0, len(cum) - 1)
            if client_gid[cn] == dest_gid[dn]:
                continue
            # A destination without a router has an all-unreachable row.
            src = client_core[cn]
            if src >= 0 and pred[dn, src] != _NO_PREDECESSOR:
                break
        else:
            raise _unreachable(index)
        streams.append(rng)
        codes.append(cn * tables.n_dest_nodes + dn)
        if len(streams) == _V1_MAX_STREAMS:
            draw_noise()
    if streams:
        draw_noise()
    rows = store.rows_for(
        tables, core_tables, np.asarray(codes, dtype=np.int64)
    )
    held = np.asarray(noise, dtype=np.float64)
    return rows, lambda: held


def _shard_columns(
    engine: ProbeEngine,
    plan: _CampaignPlan,
    config: CampaignConfig,
    start: int,
    stop: int,
) -> TraceColumns:
    """Columns of trace indices ``[start, stop)`` under the active
    contract — the one code path serial runs, pool workers, and the
    serial fallback all share, so every execution mode is identical by
    construction."""
    if config.rng_contract == 2:
        return generate_columns_v2(engine, plan, config, start, stop)
    return generate_columns(
        engine, plan, config, start, stop, _v1_batch_rows
    )


def _templates_held(engine: ProbeEngine) -> int:
    """Hop templates *engine*'s template store holds (``campaign.shard``
    spans report the growth)."""
    state = getattr(engine, "_rngv2_state", None)
    return 0 if state is None else state[3].size


def resolve_workers(workers: int) -> int:
    """Worker count with 0 meaning one per CPU core."""
    if workers == 0:
        return max(1, os.cpu_count() or 1)
    return max(1, workers)


# ----------------------------------------------------------------------
# Shared-memory shard transport
# ----------------------------------------------------------------------
def _segment_name(token: str, start: int) -> str:
    """Predictable segment name: the parent can sweep a crashed
    worker's segment without ever having heard back from it."""
    return f"repro-{token}-{start:x}"


def _unlink_stale_segment(name: str) -> None:
    """Remove a leftover segment that may not be attachable.

    A worker killed between ``shm_open`` and ``ftruncate`` (e.g. by the
    executor tearing down its siblings after another worker crashed)
    leaves a zero-size segment that ``SharedMemory(name=...)`` refuses
    to map ("cannot mmap an empty file").  Attach-and-unlink handles
    the well-formed case — and keeps the resource tracker's register/
    unregister ledger balanced — while the raw ``shm_unlink`` fallback
    removes unmappable stales (which died before the tracker ever
    registered them).
    """
    try:
        stale = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    except (ValueError, OSError):
        if _posixshmem is not None:
            with contextlib.suppress(OSError):
                _posixshmem.shm_unlink("/" + name)
        return
    stale.unlink()
    with contextlib.suppress(BufferError):
        stale.close()


def _create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a named segment, displacing any stale leftover.

    A worker killed between creating its segment and returning leaves
    the name behind; the shard's replay (same name, derived from the
    shard start) unlinks the leftover and starts clean.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        _unlink_stale_segment(name)
        return shared_memory.SharedMemory(name=name, create=True, size=size)


class _ShardSegments:
    """Parent-side ownership of every segment one campaign can create.

    Workers create segments under predictable names; the parent attaches
    to harvest and — in a ``finally`` — closes and unlinks everything it
    expected, whether or not the worker that owned a name ever reported
    back.  This is the guard against ``/dev/shm`` leaks on pool crashes
    and KeyboardInterrupt.
    """

    def __init__(self, token: str):
        self.token = token
        self._expected: set = set()
        self._attached: Dict[str, shared_memory.SharedMemory] = {}

    def expect(self, start: int) -> None:
        self._expected.add(_segment_name(self.token, start))

    def attach(self, name: str) -> shared_memory.SharedMemory:
        segment = shared_memory.SharedMemory(name=name)
        self._expected.add(name)
        self._attached[name] = segment
        return segment

    def release(self, name: str) -> None:
        """Close and unlink one harvested segment, which frees its
        memory; raises ``BufferError`` (leaving the segment to
        :meth:`cleanup`) while a view into it is still alive."""
        segment = self._attached[name]
        segment.close()
        segment.unlink()
        del self._attached[name]
        self._expected.discard(name)

    def cleanup(self) -> None:
        for segment in self._attached.values():
            # A close can fail only while numpy views into the buffer
            # are still alive (error paths); the unlink sweep below
            # still removes the name, and the mapping dies with the
            # process.
            with contextlib.suppress(BufferError):
                segment.close()
        self._attached.clear()
        for name in self._expected:
            _unlink_stale_segment(name)
        self._expected.clear()


# ----------------------------------------------------------------------
# Worker-process state.  Populated once per worker by the pool
# initializer; the pool forks, so the topology (and its compiled
# routing core), the column schema, the plan and the sampling and core
# tables the parent built are inherited copy-on-write — all but the
# tables' destination-row stack, a shared anonymous mapping every
# worker writes through.
_WORKER_STATE: Optional[
    Tuple[ProbeEngine, _CampaignPlan, CampaignConfig, str]
] = None


def _init_worker(
    topology: InternetTopology,
    config: CampaignConfig,
    plan: _CampaignPlan,
    tables: Tuple[_PlanTables, _CoreTables],
    schema: ColumnSchema,
    fault_injector: Optional[FaultInjector] = None,
    segment_token: str = "",
) -> None:
    global _WORKER_STATE
    # Explicit initargs plumbing (rather than relying on fork
    # inheritance) keeps injection working under any start method and
    # across pool respawns.
    set_fault_injector(fault_injector)
    engine = _engine_with_schema(topology, config, schema)
    _v2_state(engine, plan, tables)
    _WORKER_STATE = (engine, plan, config, segment_token)


def _engine_with_schema(
    topology: InternetTopology, config: CampaignConfig, schema: ColumnSchema
) -> ProbeEngine:
    """A campaign engine that adopts the parent's column schema instead
    of rebuilding it from the topology on its first shard."""
    engine = ProbeEngine(topology, seed=config.seed + 1)
    engine._schema = schema
    return engine


def _run_rows(part_of: Tuple[int, int]) -> Tuple[int, float]:
    """One rows task: destination rows ``part::parts`` of the campaign's
    stack, solved in one batched Dijkstra and written in place into the
    parent's shared-memory segment.  Returns ``(rows solved, seconds)``
    for the parent's ``campaign.rows`` span."""
    part, parts = part_of
    injector = get_fault_injector()
    if injector is not None:
        injector.maybe_crash_rows(part)
    engine, plan, _config, _token = _WORKER_STATE
    started = time.perf_counter()
    solved = _v2_state(engine, plan)[1].solve_rows(part, parts)
    return solved, time.perf_counter() - started


def _run_chunk(
    bounds: Tuple[int, int]
) -> Tuple[str, Dict[str, Any], float, int]:
    """One shard's columns, delivered through shared memory.

    The shard's columns are drawn in batches, packed into a named
    segment as raw array bytes, and only ``(segment name, array
    manifest, wall time, templates built)`` crosses the
    ``ProcessPoolExecutor`` result pipe — no pickling of records, no
    copy of the columns.  The wall time and the number of hop
    templates the shard had to build are measured inside the worker and
    attributed to a ``campaign.shard`` span in the parent, which is how
    per-shard observability crosses the process boundary.
    """
    start, stop = bounds
    injector = get_fault_injector()
    if injector is not None:
        injector.maybe_crash_worker(start)
    engine, plan, config, token = _WORKER_STATE
    held = _templates_held(engine)
    started = time.perf_counter()
    columns = _shard_columns(engine, plan, config, start, stop)
    elapsed = time.perf_counter() - started
    built = _templates_held(engine) - held
    name = _segment_name(token, start)
    segment = _create_segment(name, columns.transport_size())
    try:
        manifest = columns.pack_into(segment.buf)
    finally:
        segment.close()
    return name, manifest, elapsed, built


def run_campaign(
    topology: InternetTopology,
    config: Optional[CampaignConfig] = None,
    engine: Optional[ProbeEngine] = None,
    workers: Optional[int] = None,
) -> TraceColumns:
    """Generate a full campaign of traceroutes, deterministically.

    Returns :class:`~repro.traceroute.columns.TraceColumns` — the
    columnar campaign store, which still reads as a sequence of
    :class:`~repro.traceroute.probe.TracerouteRecord` for legacy
    consumers.  Degenerate picks (identical endpoints, client provider
    absent from a city, etc.) are redrawn within the trace's own RNG
    stream, so the result always has exactly ``num_traces`` reached
    records unless the topology is pathologically disconnected.

    *workers* overrides ``config.workers`` (0 auto-detects cores).  The
    column stream is byte-identical for every worker count; *engine* is
    only used by the in-process path — shards build their own engines.
    """
    config = config if config is not None else CampaignConfig()
    plan = _CampaignPlan(topology, config)
    n_workers = resolve_workers(
        config.workers if workers is None else workers
    )
    if n_workers > 1 and config.num_traces < 2 * _MIN_CHUNK:
        n_workers = 1  # not worth forking for a tiny campaign
    tracer = get_tracer()
    if n_workers <= 1:
        with tracer.span(
            "campaign.run", traces=config.num_traces, workers=1,
            mode="serial", rng_contract=config.rng_contract,
            batch_size=config.batch_size,
        ):
            if engine is None:
                engine = ProbeEngine(topology, seed=config.seed + 1)
            columns = _shard_columns(
                engine, plan, config, 0, config.num_traces
            )
            tracer.count("records", len(columns))
            return columns
    with tracer.span(
        "campaign.run", traces=config.num_traces, workers=n_workers,
        mode="pool", rng_contract=config.rng_contract,
        batch_size=config.batch_size,
    ):
        chunk = max(_MIN_CHUNK, -(-config.num_traces // (n_workers * 4)))
        bounds = [
            (start, min(start + chunk, config.num_traces))
            for start in range(0, config.num_traces, chunk)
        ]
        columns = _run_sharded(topology, plan, config, n_workers, bounds)
        if tracer.enabled:
            tracer.annotate(shards=len(bounds))
        tracer.count("records", len(columns))
        return columns


def _run_sharded(
    topology: InternetTopology,
    plan: _CampaignPlan,
    config: CampaignConfig,
    n_workers: int,
    bounds: List[Tuple[int, int]],
) -> TraceColumns:
    """Run every shard to completion, surviving worker-process deaths.

    One pool runs two phases.  Rows tasks come first:
    task ``k`` solves destinations ``k::n_workers`` of ``plan.dest_nodes``
    in one batched Dijkstra and writes their predecessor rows into the
    campaign's ``(n_dest, n_nodes)`` stack, an anonymous shared mapping
    the parent creates but never fills and the forked workers inherit,
    so the parent runs no Dijkstra.
    Once every row is in, the shard tasks trace over the stack.

    A dead worker breaks the whole ``ProcessPoolExecutor``; rows and
    shard segments harvested before the break are kept, the pool is
    re-spawned after an exponentially backed-off delay, and only
    incomplete tasks are requeued.  Requeueing is safe because a rows
    task rewrites its own fixed rows and each trace index owns a
    private RNG stream: replaying either reproduces its bytes exactly.
    Consecutive no-progress restarts beyond ``config.max_pool_restarts``
    degrade the remaining tasks to an in-process serial run (a pool
    that cannot hold workers — fork bomb protection, rlimits, cgroup
    OOM — must not make the campaign unfinishable).

    Harvesting a shard checks its contract and schema digest and maps
    its segment without reading it.  Once every shard is harvested,
    :meth:`TraceColumns.concatenate` sizes the output from the shards'
    manifests and copies the shards in order, releasing each one (its
    views dropped, its segment closed and unlinked) before the next is
    read: the parent's peak is the output plus one shard.  Every
    segment the stitch never reached is closed and unlinked in the
    ``finally`` sweep, including segments orphaned by crashed workers
    and segments in flight when a KeyboardInterrupt lands.
    """
    tracer = get_tracer()
    injector = get_fault_injector()
    schema = ColumnSchema.from_topology(topology)
    # One tracker process shared (via fork) by parent and workers, so a
    # worker-registered segment is the same tracked resource the parent
    # unlinks — no spurious leak warnings at interpreter exit.
    resource_tracker.ensure_running()
    token = f"{os.getpid():x}-{next(_SEGMENT_SEQ):x}"
    segments = _ShardSegments(token)
    results: Dict[Tuple[int, int], TraceColumns] = {}
    parts: List[TraceColumns] = []
    pending = list(bounds)
    row_parts = list(range(n_workers))
    restarts = 0
    backoff = max(0.0, config.retry_backoff_s)
    pool: Optional[ProcessPoolExecutor] = None
    shape = (len(plan.dest_nodes), topology.routing_core().num_nodes)
    stack = mmap.mmap(-1, max(1, 4 * shape[0] * shape[1]))
    try:
        # Built once here rather than in every worker's initializer.
        tables = build_v2_tables(
            topology, schema, plan,
            np.ndarray(shape, dtype=np.int32, buffer=stack),
        )
        while row_parts or pending:
            harvested = 0
            try:
                with ProcessPoolExecutor(
                    max_workers=min(
                        n_workers, max(len(row_parts), len(pending))
                    ),
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_worker,
                    initargs=(
                        topology, config, plan, tables, schema,
                        injector, token,
                    ),
                ) as pool:
                    futures = {
                        pool.submit(_run_rows, (k, n_workers)): k
                        for k in row_parts
                    }
                    for future in as_completed(futures):
                        solved, elapsed = future.result()
                        row_parts.remove(futures[future])
                        harvested += 1
                        tracer.record_span(
                            "campaign.rows", elapsed,
                            part=futures[future], rows_solved=solved,
                        )
                    futures = {}
                    for b in pending:
                        segments.expect(b[0])
                        futures[pool.submit(_run_chunk, b)] = b
                    for future in as_completed(futures):
                        start, stop = futures[future]
                        name, manifest, elapsed, built = future.result()
                        # No local binding of the unpacked shard: its
                        # arrays view the segment buffer, and every
                        # view must be droppable (its release, or
                        # results.clear) before the segment is closed.
                        results[(start, stop)] = unpack_shard(
                            schema, segments.attach(name).buf, manifest,
                            config.rng_contract,
                            functools.partial(segments.release, name),
                        )
                        harvested += 1
                        tracer.record_span(
                            "campaign.shard", elapsed,
                            start=start, stop=stop,
                            records=int(manifest["num_traces"]),
                            templates_built=built,
                        )
            except BrokenProcessPool:
                pending = [b for b in pending if b not in results]
                restarts = restarts + 1 if harvested == 0 else 1
                if restarts > config.max_pool_restarts:
                    tracer.event(
                        "campaign.degraded", mode="serial",
                        rows_remaining=len(row_parts),
                        shards_remaining=len(pending),
                        restarts=restarts - 1,
                    )
                    _run_serial_fallback(
                        topology, plan, config, pending, results,
                        tables, schema, row_parts, n_workers,
                    )
                    break
                tracer.event(
                    "campaign.retry", attempt=restarts,
                    rows_remaining=len(row_parts),
                    shards_remaining=len(pending), backoff_s=backoff,
                )
                if backoff > 0.0:
                    time.sleep(backoff)
                backoff = min(
                    max(backoff, config.retry_backoff_s) * 2,
                    _RETRY_BACKOFF_CAP_S,
                )
            else:
                pending = [b for b in pending if b not in results]
        # The executor keeps its initargs; drop it and the tables
        # (whose row stack views the mapping) before stitching, so they
        # do not add to the peak footprint.  The stitch releases each
        # shard's segment as soon as it has copied it.
        del pool, tables
        parts.extend(results[b] for b in bounds)
        return TraceColumns.concatenate(schema, parts)
    finally:
        # Drop every view into the segments (even when an exception is
        # propagating) before the cleanup sweep closes the mappings.
        results.clear()
        parts.clear()
        segments.cleanup()
        with contextlib.suppress(BufferError):
            stack.close()


def _run_serial_fallback(
    topology: InternetTopology,
    plan: _CampaignPlan,
    config: CampaignConfig,
    pending: List[Tuple[int, int]],
    results: Dict[Tuple[int, int], TraceColumns],
    tables: Tuple[_PlanTables, _CoreTables],
    schema: ColumnSchema,
    row_parts: List[int],
    n_parts: int,
) -> None:
    """Finish the rows tasks in *row_parts* and the *pending* shards
    in-process (same bytes as any worker)."""
    engine = _engine_with_schema(topology, config, schema)
    tracer = get_tracer()
    for part in row_parts:
        started = time.perf_counter()
        solved = tables[1].solve_rows(part, n_parts)
        tracer.record_span(
            "campaign.rows", time.perf_counter() - started,
            part=part, rows_solved=solved, degraded=True,
        )
    _v2_state(engine, plan, tables)
    for start, stop in pending:
        held = _templates_held(engine)
        started = time.perf_counter()
        results[(start, stop)] = _shard_columns(
            engine, plan, config, start, stop
        )
        tracer.record_span(
            "campaign.shard", time.perf_counter() - started,
            start=start, stop=stop, records=stop - start, degraded=True,
            templates_built=_templates_held(engine) - held,
        )
