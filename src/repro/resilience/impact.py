"""Impact assessment: what one cut event does to each provider.

For every tenant of a severed conduit: which of its links crossed the
cut, which of its POP pairs lose connectivity entirely (no alternate
path over its remaining footprint), and how much one-way delay the
survivable pairs gain when rerouted.  Optionally, a traffic overlay
quantifies how much probe traffic crossed the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.perf.substrate import substrate_for
from repro.resilience.cuts import CutEvent
from repro.traceroute.overlay import TrafficOverlay


@dataclass(frozen=True)
class IspImpact:
    """One provider's exposure to one cut event."""

    isp: str
    #: Links whose conduit path crosses the cut.
    links_hit: int
    #: POP pairs (of the hit links) with no surviving alternate path.
    pairs_disconnected: int
    #: Mean extra one-way delay (ms) for the survivable hit pairs.
    mean_reroute_delay_ms: float
    #: Worst extra one-way delay (ms).
    max_reroute_delay_ms: float


@dataclass(frozen=True)
class CutImpact:
    """Full assessment of one cut event."""

    event: CutEvent
    per_isp: Tuple[IspImpact, ...]
    #: Probe traffic that crossed the severed conduits (0 if no overlay).
    probes_affected: int

    @property
    def isps_affected(self) -> int:
        return sum(1 for i in self.per_isp if i.links_hit > 0)

    @property
    def total_links_hit(self) -> int:
        return sum(i.links_hit for i in self.per_isp)

    @property
    def total_pairs_disconnected(self) -> int:
        return sum(i.pairs_disconnected for i in self.per_isp)


def probes_crossing(traffic: Dict[str, object], conduit_ids) -> int:
    """Probe traffic that crossed the given conduits (overlay units)."""
    probes = 0
    for conduit_id in conduit_ids:
        item = traffic.get(conduit_id)
        if item is not None:
            probes += item.total
    return probes


#: Rerouted distance (km) between two POPs over a provider's surviving
#: footprint, ``None`` when the cut disconnects them.
Rerouter = Callable[[str, str], Optional[float]]


def _substrate_rerouter(
    fiber_map: FiberMap, event: CutEvent, isp: str, hit_links
) -> Rerouter:
    """One batched Dijkstra over the provider's cached footprint view,
    with the cut as an edge mask and a ``length_km`` override, answers
    every hit link's reroute distance."""
    conduits = substrate_for(fiber_map)
    dead_rows = [
        conduits.row_of[cid]
        for cid in event.conduit_ids
        if cid in conduits.row_of
    ]
    view = conduits.footprint_view(isp)
    failure = conduits.footprint_failure(isp, dead_rows)
    mask = failure.edge_mask
    dist, _pred, row_of = view.dijkstra(
        [link.endpoints[0] for link in hit_links],
        "length_km",
        mask,
        failure.override(view, "length_km", conduits.length_km),
    )

    def rerouted(a: str, b: str) -> Optional[float]:
        if not view.present(a, mask) or not view.present(b, mask):
            return None
        km = float(dist[row_of[a], view.index[b]])
        if km == float("inf"):
            return None
        return km

    return rerouted


def _reroute_stats(
    fiber_map: FiberMap, hit_links, rerouted: Rerouter
) -> Tuple[int, List[float]]:
    """Disconnected-pair count and reroute delays for one provider."""
    disconnected = 0
    delays: List[float] = []
    for link in hit_links:
        a, b = link.endpoints
        original_km = sum(
            fiber_map.conduit(cid).length_km for cid in link.conduit_ids
        )
        rerouted_km = rerouted(a, b)
        if rerouted_km is None:
            disconnected += 1
            continue
        delays.append(
            max(0.0, fiber_delay_ms(rerouted_km) - fiber_delay_ms(original_km))
        )
    return disconnected, delays


def assess_cut(
    fiber_map: FiberMap,
    event: CutEvent,
    overlay: Optional[TrafficOverlay] = None,
) -> CutImpact:
    """Assess one cut event across every tenant of the severed conduits.

    Each provider's hit links come from the substrate's conduit ->
    links index, and its reroute distances from one batched Dijkstra
    over its cached footprint view with the cut as data over it.
    """
    hits: Dict[str, list] = {}
    for link in substrate_for(fiber_map).links_crossing(
        fiber_map, event.conduit_ids
    ):
        hits.setdefault(link.isp, []).append(link)
    return _assess_cut(
        fiber_map,
        event,
        overlay,
        partial(_substrate_rerouter, fiber_map, event),
        hits,
    )


def _assess_cut(
    fiber_map: FiberMap,
    event: CutEvent,
    overlay: Optional[TrafficOverlay],
    rerouter_for: Callable[[str, list], Rerouter],
    hits: Dict[str, list],
) -> CutImpact:
    """:func:`assess_cut` with the per-provider rerouter and each
    provider's hit links (in ``links_of`` order) supplied by the caller
    (the test oracles supply their own)."""
    tenants = set()
    for conduit_id in event.conduit_ids:
        tenants |= fiber_map.conduit(conduit_id).tenants
    per_isp: List[IspImpact] = []
    for isp in sorted(tenants):
        hit_links = hits.get(isp, [])
        if not hit_links:
            per_isp.append(IspImpact(isp, 0, 0, 0.0, 0.0))
            continue
        disconnected, delays = _reroute_stats(
            fiber_map, hit_links, rerouter_for(isp, hit_links)
        )
        per_isp.append(
            IspImpact(
                isp=isp,
                links_hit=len(hit_links),
                pairs_disconnected=disconnected,
                mean_reroute_delay_ms=(
                    sum(delays) / len(delays) if delays else 0.0
                ),
                max_reroute_delay_ms=max(delays, default=0.0),
            )
        )
    probes = 0
    if overlay is not None:
        probes = probes_crossing(overlay.traffic(), event.conduit_ids)
    return CutImpact(event=event, per_isp=tuple(per_isp), probes_affected=probes)
