"""Resilience reference implementations over per-call NetworkX graphs.

Moved verbatim out of :mod:`repro.resilience`: per-link NetworkX
reroute solves for one cut (its hit links found by a scan of every
tenant's links; the package looks them up in one conduit -> links
index), the cumulative attack that re-assesses
every step from scratch (the package answers it with one reverse
union-find sweep per provider), and the traffic shift that re-traces
every record over a NetworkX copy of the router graph with the cut
adjacencies removed (the package masks those edges on the topology's
compiled routing core instead); and the §4 west-east partition metric
over ``nx.minimum_cut`` (the package solves it with one scipy maximum
flow per cut, :func:`repro.perf.substrate.minimum_cut`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import networkx as nx

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.perf.routing import RoutingCore
from repro.resilience.cuts import CutEvent, edge_cut
from repro.resilience.impact import CutImpact, _assess_cut, probes_crossing
from repro.resilience.montecarlo import (
    AttackResult,
    _random_edge_sequences,
    _targeted_edges,
)
from repro.resilience.partition import (
    _EAST_LON,
    _WEST_LON,
    EAST_LANDINGS,
    WEST_LANDINGS,
    PartitionReport,
)
from repro.resilience.traffic_shift import TrafficShiftReport
from repro.traceroute.overlay import TrafficOverlay
from repro.traceroute.probe import ProbeEngine, TracerouteRecord
from repro.traceroute.topology import InternetTopology
from repro.transport.network import EdgeKey
from tests.oracles.graphs import core_from_networkx, topology_graph


def _surviving_graph(fiber_map: FiberMap, isp: str, event: CutEvent) -> nx.Graph:
    """The provider's conduit graph with the severed conduits removed."""
    graph = nx.Graph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if isp not in conduit.tenants or cid in event.conduit_ids:
            continue
        a, b = conduit.edge
        data = graph.get_edge_data(a, b)
        if data is None or conduit.length_km < data["length_km"]:
            graph.add_edge(a, b, length_km=conduit.length_km)
    return graph


def hit_links_by_scan(fiber_map: FiberMap, event: CutEvent) -> dict:
    """Each provider's links that ride a cut conduit, in ``links_of``
    order, found by scanning every link of every tenant."""
    tenants = set()
    for conduit_id in event.conduit_ids:
        tenants |= fiber_map.conduit(conduit_id).tenants
    hits = {}
    for isp in sorted(tenants):
        hit_links = [
            link
            for link in fiber_map.links_of(isp)
            if any(cid in event.conduit_ids for cid in link.conduit_ids)
        ]
        if hit_links:
            hits[isp] = hit_links
    return hits


def assess_cut_reference(
    fiber_map: FiberMap,
    event: CutEvent,
    overlay: Optional[TrafficOverlay] = None,
) -> CutImpact:
    """:func:`repro.resilience.impact.assess_cut` with every reroute
    distance a NetworkX solve over the provider's surviving graph."""

    def rerouter_for(isp, hit_links):
        survivors = _surviving_graph(fiber_map, isp, event)

        def rerouted(a: str, b: str) -> Optional[float]:
            try:
                return nx.shortest_path_length(
                    survivors, a, b, weight="length_km"
                )
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                return None

        return rerouted

    return _assess_cut(
        fiber_map, event, overlay, rerouter_for, hit_links_by_scan(fiber_map, event)
    )


def _apply_sequence_reference(
    fiber_map: FiberMap,
    edges: Sequence[EdgeKey],
    overlay: Optional[TrafficOverlay],
) -> AttackResult:
    """Assess a sequence of ROW cuts with cumulative conduit removal.

    One :func:`assess_cut` per step; the per-step probe count comes from
    the overlay's traffic table directly instead of a second full
    assessment of the single-edge event.
    """
    traffic = overlay.traffic() if overlay is not None else None
    events: List[CutEvent] = []
    dead: set = set()
    cumulative_disconnected: List[int] = []
    cumulative_isps: List[int] = []
    probes: List[int] = []
    for edge in edges:
        event = edge_cut(fiber_map, *edge)
        # Accumulate: everything severed so far goes dark together.
        dead |= event.conduit_ids
        combined = CutEvent(
            description=f"cumulative cuts through {event.description}",
            conduit_ids=frozenset(dead),
            location=event.location,
        )
        impact = assess_cut_reference(fiber_map, combined)
        events.append(event)
        cumulative_disconnected.append(impact.total_pairs_disconnected)
        cumulative_isps.append(
            sum(1 for i in impact.per_isp if i.pairs_disconnected > 0)
        )
        probes.append(
            probes_crossing(traffic, event.conduit_ids)
            if traffic is not None
            else 0
        )
    return AttackResult(
        events=tuple(events),
        cumulative_disconnected=tuple(cumulative_disconnected),
        cumulative_isps_harmed=tuple(cumulative_isps),
        probes_affected=tuple(probes),
    )


def targeted_attack_reference(
    fiber_map: FiberMap, matrix, cuts: int = 5, overlay=None
) -> AttackResult:
    return _apply_sequence_reference(
        fiber_map, _targeted_edges(fiber_map, matrix, cuts), overlay
    )


def random_cut_study_reference(
    fiber_map: FiberMap, cuts: int = 5, trials: int = 10, seed: int = 13,
    overlay=None,
) -> List[AttackResult]:
    return [
        _apply_sequence_reference(fiber_map, edges, overlay)
        for edges in _random_edge_sequences(fiber_map, cuts, trials, seed)
    ]


class DegradedTopology:
    """A read-only view of a topology with cut conduits removed.

    Implements the subset of the :class:`InternetTopology` interface the
    probe engine uses, so traces can be re-run over the degraded network
    without rebuilding routers or addressing.
    """

    def __init__(self, topology: InternetTopology, event: CutEvent):
        self._topology = topology
        self._event = event
        graph = topology_graph(topology)
        dead_edges = []
        for u, v, data in graph.edges(data=True):
            if data.get("kind") != "intra":
                continue
            isp = data.get("isp")
            conduits = topology.conduits_for_hop(isp, u[1], v[1])
            if set(conduits) & event.conduit_ids:
                dead_edges.append((u, v))
        graph.remove_edges_from(dead_edges)
        self._graph = graph
        self._dead_edges = tuple(dead_edges)
        self._routing_core: Optional[RoutingCore] = None

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def dead_router_adjacencies(self) -> Tuple:
        return self._dead_edges

    # Delegated interface (what ProbeEngine needs).
    def routing_core(self) -> RoutingCore:
        """A fresh compile of the degraded graph."""
        if self._routing_core is None:
            self._routing_core = core_from_networkx(self._graph)
        return self._routing_core

    def uses_mpls(self, isp: str) -> bool:
        return self._topology.uses_mpls(isp)

    def router(self, isp: str, city_key: str):
        return self._topology.router(isp, city_key)

    def has_router(self, isp: str, city_key: str) -> bool:
        return self._topology.has_router(isp, city_key)


def traffic_shift_reference(
    topology: InternetTopology,
    event: CutEvent,
    records: Sequence[TracerouteRecord],
    seed: int = 67,
    max_traces: Optional[int] = 2000,
) -> TrafficShiftReport:
    """:func:`repro.resilience.traffic_shift.traffic_shift` re-tracing
    every record object on two probe engines, one over a
    :class:`DegradedTopology`."""
    degraded = DegradedTopology(topology, event)
    baseline_engine = ProbeEngine(topology, seed=seed)
    degraded_engine = ProbeEngine(degraded, seed=seed)  # type: ignore[arg-type]
    sample = list(records[:max_traces]) if max_traces else list(records)
    examined = 0
    slower = 0
    blackholed = 0
    inflations: List[float] = []
    seen = set()
    for record in sample:
        key = (record.src_city, record.src_isp, record.dst_city, record.dst_isp)
        if key in seen:
            continue
        seen.add(key)
        examined += 1
        before = baseline_engine.trace(*key)
        after = degraded_engine.trace(*key)
        if not before.reached or not before.hops:
            continue
        if not after.reached or not after.hops:
            blackholed += 1
            continue
        delta = after.hops[-1].rtt_ms - before.hops[-1].rtt_ms
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
        traces_examined=examined,
        traces_slower=slower,
        traces_blackholed=blackholed,
        mean_inflation_ms=mean,
        p95_inflation_ms=p95,
    )


def _coastal_anchors(fiber_map: FiberMap) -> Tuple[List[str], List[str]]:
    west, east = [], []
    for city_key in fiber_map.nodes:
        lon = city_by_name(city_key).lon
        if lon <= _WEST_LON:
            west.append(city_key)
        elif lon >= _EAST_LON:
            east.append(city_key)
    return sorted(west), sorted(east)


def _row_graph(fiber_map: FiberMap) -> nx.Graph:
    """ROW-level graph: one unit-capacity edge per city pair."""
    graph = nx.Graph()
    for conduit in fiber_map.conduits.values():
        graph.add_edge(*conduit.edge, capacity=1)
    return graph


def partition_report_reference(fiber_map: FiberMap) -> PartitionReport:
    """:func:`repro.resilience.partition.partition_report` over
    ``nx.minimum_cut``; the west side is NetworkX's first partition."""
    west, east = _coastal_anchors(fiber_map)
    if not west or not east:
        raise ValueError("map lacks coastal anchor cities")
    graph = _row_graph(fiber_map)
    source, sink = "__WEST__", "__EAST__"
    for city in west:
        if city in graph:
            graph.add_edge(source, city, capacity=10**6)
    for city in east:
        if city in graph:
            graph.add_edge(sink, city, capacity=10**6)
    cut_value, (west_side, _east_side) = nx.minimum_cut(
        graph, source, sink, capacity="capacity"
    )
    cut_edges = tuple(
        sorted(
            (u, v) if u <= v else (v, u)
            for u, v in nx.edge_boundary(graph, west_side)
            if source not in (u, v) and sink not in (u, v)
        )
    )
    bypass = graph.copy()
    landings = [
        c for c in WEST_LANDINGS + EAST_LANDINGS if c in fiber_map.nodes
    ]
    for i, a in enumerate(landings):
        for b in landings[i + 1:]:
            bypass.add_edge(a, b, capacity=10**6)
    cut_with_sea, _ = nx.minimum_cut(bypass, source, sink, capacity="capacity")
    return PartitionReport(
        cut_edges=cut_edges,
        min_cuts=int(cut_value),
        min_cuts_with_undersea=(
            int(cut_with_sea) if cut_with_sea < 10**6 else None
        ),
    )


def isp_partition_cuts_reference(fiber_map: FiberMap, isp: str) -> int:
    """:func:`repro.resilience.partition.isp_partition_cuts` over
    ``nx.minimum_cut``."""
    sub = nx.Graph()
    for conduit in fiber_map.conduits.values():
        if isp in conduit.tenants:
            sub.add_edge(*conduit.edge, capacity=1)
    west = [c for c in sub if city_by_name(c).lon <= _WEST_LON]
    east = [c for c in sub if city_by_name(c).lon >= _EAST_LON]
    if not west or not east:
        return 0
    source, sink = "__W__", "__E__"
    for city in west:
        sub.add_edge(source, city, capacity=10**6)
    for city in east:
        sub.add_edge(sink, city, capacity=10**6)
    value, _ = nx.minimum_cut(sub, source, sink, capacity="capacity")
    return int(value)
