"""Resilience reference implementations over per-call NetworkX graphs.

Moved verbatim out of :mod:`repro.resilience`: per-link NetworkX
reroute solves for one cut, and the cumulative attack that re-assesses
every step from scratch (the package answers it with one reverse
union-find sweep per provider).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import networkx as nx

from repro.fibermap.elements import FiberMap
from repro.resilience.cuts import CutEvent, edge_cut
from repro.resilience.impact import CutImpact, _assess_cut, probes_crossing
from repro.resilience.montecarlo import (
    AttackResult,
    _random_edge_sequences,
    _targeted_edges,
)
from repro.traceroute.overlay import TrafficOverlay
from repro.transport.network import EdgeKey


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

    return _assess_cut(fiber_map, event, overlay, rerouter_for)


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
