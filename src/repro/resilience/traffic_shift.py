"""Traffic shift under failures: what users feel when a conduit dies.

The impact module measures topology-level damage; this one measures the
traffic-level consequence.  After a cut event, every router adjacency
whose fiber ran through a severed conduit disappears; affected
traceroutes re-route over the degraded topology (or black-hole).  The
result is the RTT-inflation distribution the measurement hosts would
observe — the paper's localized-outage discussion (§7) made concrete.

The degraded network is never built as a graph.  The topology's
compiled routing core stays as it is; the cut becomes an edge mask
over it (the dead adjacencies come from the topology's conduit -> edge
index).  What does not depend on the cut — the sampled pairs, their
intact routes and hop tails, the RTTs before the cut — is computed once
per (campaign, sample size, seed) and kept in the core's baseline memo;
a cut then re-solves only the destinations of pairs whose intact path
rides a dead adjacency, in one masked, batched Dijkstra.  The per-call
NetworkX copy this replaced is the test oracle in
``tests/oracles/resilience.py``; the masked solve over every
destination is the one in ``tests/oracles/routing.py``.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.routing import PairRoutes, RoutingCore
from repro.resilience.cuts import CutEvent
from repro.traceroute.columns import TraceColumns
from repro.traceroute.probe import QUEUE_NOISE_MS, ProbeEngine
from repro.traceroute.topology import InternetTopology

#: A router-graph node: (isp, city_key).
RouterNode = Tuple[str, str]


def dead_edge_mask(topology: InternetTopology, event: CutEvent) -> np.ndarray:
    """Routing-core edge mask of the topology after *event*: ``False``
    on every router adjacency whose fiber runs through a cut conduit."""
    mask = np.ones(topology.routing_core().num_edges, dtype=bool)
    conduit_edges = topology.conduit_edges()
    for cid in event.conduit_ids:
        mask[list(conduit_edges.get(cid, ()))] = False
    return mask


@dataclass(frozen=True)
class TrafficShiftReport:
    """RTT consequences of one cut for a traced workload."""

    event_description: str
    #: Traces re-examined (those whose endpoints could be affected).
    traces_examined: int
    #: Traces whose end-to-end RTT grew.
    traces_slower: int
    #: Traces that lost connectivity entirely.
    traces_blackholed: int
    #: Mean / p95 end-to-end RTT inflation (ms) over slower traces.
    mean_inflation_ms: float
    p95_inflation_ms: float

    @property
    def affected_fraction(self) -> float:
        if self.traces_examined == 0:
            return 0.0
        return (self.traces_slower + self.traces_blackholed) / self.traces_examined


def _sample_pairs(
    campaign: TraceColumns, max_traces: Optional[int]
) -> List[Tuple[RouterNode, RouterNode]]:
    """The distinct (source, destination) router nodes of the first
    *max_traces* traces, in first-seen order, read straight from the
    trace columns."""
    traces = campaign.traces[:max_traces] if max_traces else campaign.traces
    cities, isps = campaign.schema.cities, campaign.schema.isps
    ids = dict.fromkeys(
        zip(
            traces["src_city"].tolist(), traces["src_isp"].tolist(),
            traces["dst_city"].tolist(), traces["dst_isp"].tolist(),
        )
    )
    return [
        ((isps[si], cities[sc]), (isps[di], cities[dc]))
        for sc, si, dc, di in ids
    ]


def _hop_tail(
    engine: ProbeEngine, path: Optional[Sequence[RouterNode]]
) -> Optional[Tuple[int, float]]:
    """``(visible hops, 2.0 * one_way at the last one)`` of a router
    path, from the probe engine's own visible-hop walk (``None`` when
    unreached)."""
    if path is None:
        return None
    visible = list(engine._visible_hops(path))
    return len(visible), visible[-1][1]


def _last_rtts(
    tails: Sequence[Optional[Tuple[int, float]]], seed: int
) -> List[Optional[float]]:
    """The last observed hop's RTT per trace, drawing the noise
    :meth:`ProbeEngine.trace` would: one ``uniform(0, QUEUE_NOISE_MS)``
    per visible hop, in trace order, on one ``random.Random(seed)``
    stream; unreached traces draw nothing."""
    uniform = random.Random(seed).uniform
    out: List[Optional[float]] = []
    for tail in tails:
        if tail is None:
            out.append(None)
            continue
        count, double_one_way = tail
        for _ in range(count - 1):
            uniform(0.0, QUEUE_NOISE_MS)
        out.append(double_one_way + uniform(0.0, QUEUE_NOISE_MS))
    return out


class _WeakIdentity:
    """A memo key for an object by identity that holds it weakly: it
    keeps no object alive, and a key of a collected object equals no
    other key (its ``id`` may be reused)."""

    __slots__ = ("_ref", "_id")

    def __init__(self, obj: object):
        self._ref = weakref.ref(obj)
        self._id = id(obj)

    def __hash__(self) -> int:
        return self._id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _WeakIdentity):
            return NotImplemented
        obj = self._ref()
        return obj is not None and obj is other._ref()


@dataclass(frozen=True)
class _Baseline:
    """The cut-independent half of a re-trace: the sample's intact
    routes, their hop tails and the RTTs before any cut."""

    routes: PairRoutes
    tails: Tuple[Optional[Tuple[int, float]], ...]
    before: Tuple[Optional[float], ...]


def _baseline(
    core: RoutingCore,
    topology: InternetTopology,
    campaign: TraceColumns,
    max_traces: Optional[int],
    seed: int,
) -> _Baseline:
    """The baseline of one (campaign, *max_traces*, *seed*), memoized on
    the topology's routing *core*."""

    def build() -> _Baseline:
        routes = core.routes(_sample_pairs(campaign, max_traces))
        engine = ProbeEngine(topology)
        tails = tuple(_hop_tail(engine, path) for path in routes.paths)
        return _Baseline(routes, tails, tuple(_last_rtts(tails, seed)))

    key = ("traffic_shift", _WeakIdentity(campaign), max_traces, seed)
    return core.baseline(key, build)


def traffic_shift(
    topology: InternetTopology,
    event: CutEvent,
    campaign: TraceColumns,
    seed: int = 67,
    max_traces: Optional[int] = 2000,
) -> TrafficShiftReport:
    """Re-trace a campaign over the degraded topology after *event*.

    Each distinct (src, dst) of the first *max_traces* traces is traced
    on both the intact and the degraded topology, each on its own noise
    stream seeded with *seed*, so the RTT difference isolates the
    routing change.  The intact side is the memoized baseline; the
    degraded paths come from a masked solve over the destinations the
    cut touches.
    """
    core = topology.routing_core()
    base = _baseline(core, topology, campaign, max_traces, seed)
    degraded = core.paths_without(base.routes, dead_edge_mask(topology, event))
    engine = ProbeEngine(topology)
    # Most traces never touched the cut: they keep their path object,
    # hence their hop tail.
    degraded_tails = [
        tail if path is old else _hop_tail(engine, path)
        for path, old, tail in zip(degraded, base.routes.paths, base.tails)
    ]
    after = _last_rtts(degraded_tails, seed)
    slower = 0
    blackholed = 0
    inflations: List[float] = []
    for rtt_before, rtt_after in zip(base.before, after):
        if rtt_before is None:
            continue
        if rtt_after is None:
            blackholed += 1
            continue
        delta = rtt_after - rtt_before
        if delta > 0.5:  # beyond queueing noise
            slower += 1
            inflations.append(delta)
    inflations.sort()
    mean = sum(inflations) / len(inflations) if inflations else 0.0
    p95 = (
        inflations[int(0.95 * (len(inflations) - 1))] if inflations else 0.0
    )
    return TrafficShiftReport(
        event_description=event.description,
        traces_examined=len(base.routes.pairs),
        traces_slower=slower,
        traces_blackholed=blackholed,
        mean_inflation_ms=mean,
        p95_inflation_ms=p95,
    )
