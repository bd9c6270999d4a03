"""The "link exchange" model of §6.3.

The paper proposes adapting the IXP model to conduits: consortia of
providers jointly fund the key long-haul links identified by the §5.2
analysis, "especially if the cost for participating providers would be
competitive".  This module makes that concrete: rank candidate conduits
by their aggregate risk-reduction benefit across all providers, form a
consortium per conduit from the providers that benefit, and split the
construction cost in proportion to benefit — reporting how much cheaper
membership is than building alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fibermap.elements import FiberMap
from repro.mitigation.augmentation import (
    LENGTH_EPSILON,
    _demand_costs,
    _footprint_view,
    candidate_gain,
    candidate_new_edges,
)
from repro.perf.substrate import substrate_for
from repro.transport.network import EdgeKey, TransportationNetwork

#: Construction cost per conduit kilometer (arbitrary cost units; only
#: ratios matter).
COST_PER_KM = 1.0
#: Minimum exposure gain for a provider to join a consortium.
MIN_GAIN = 1e-6


@dataclass(frozen=True)
class ExchangeMember:
    """One provider's stake in a jointly built conduit."""

    isp: str
    gain: float
    cost_share: float
    solo_cost: float

    @property
    def savings_factor(self) -> float:
        """How many times cheaper membership is than building alone."""
        if self.cost_share <= 0:
            return float("inf")
        return self.solo_cost / self.cost_share


@dataclass(frozen=True)
class ExchangeConduit:
    """One conduit the exchange would build."""

    edge: EdgeKey
    length_km: float
    total_gain: float
    members: Tuple[ExchangeMember, ...]

    @property
    def num_members(self) -> int:
        return len(self.members)


def plan_exchange(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    isps: Sequence[str],
    num_conduits: int = 5,
    candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
) -> List[ExchangeConduit]:
    """Plan the *num_conduits* most beneficial jointly funded conduits.

    Benefit per provider is the §5.2 exposure-gain estimate
    (:func:`~repro.mitigation.augmentation.candidate_gain` over the
    provider's footprint on the routing substrate); cost shares are
    proportional to benefit (providers that gain nothing pay nothing and
    stay out).
    """
    if num_conduits <= 0:
        raise ValueError("num_conduits must be positive")
    if candidates is None:
        candidates = candidate_new_edges(fiber_map, network)
    conduits = substrate_for(fiber_map)
    # Provider-outer: one batched Dijkstra per provider answers every
    # candidate, and each candidate's gains fill in *isps* order.
    gains: List[Dict[str, float]] = [{} for _ in candidates]
    for isp in dict.fromkeys(isps):
        view = _footprint_view(conduits, isp)
        demands = sorted({l.endpoints for l in fiber_map.links_of(isp)})
        usable = [
            pos
            for pos, (edge, _length) in enumerate(candidates)
            if view.present(edge[0]) and view.present(edge[1])
        ]
        sources = [a for a, _ in demands] + [
            e for pos in usable for e in candidates[pos][0]
        ]
        dist, _pred, row_of = view.dijkstra(sources, "w")
        ai, bi, costs = _demand_costs(view, dist, row_of, demands)
        for pos in usable:
            (u, v), length = candidates[pos]
            gain = candidate_gain(
                dist[row_of[u]], dist[row_of[v]], ai, bi, costs,
                1.0 + LENGTH_EPSILON * length,
            )
            if gain > MIN_GAIN:
                gains[pos][isp] = gain
    scored: List[Tuple[EdgeKey, float, float, Dict[str, float]]] = []
    for (edge, length), member_gains in zip(candidates, gains):
        total = sum(member_gains.values())
        if total > MIN_GAIN:
            scored.append((edge, length, total, member_gains))
    scored.sort(key=lambda item: (-item[2], item[0]))
    result = []
    for edge, length, total, member_gains in scored[:num_conduits]:
        cost = length * COST_PER_KM
        members = tuple(
            ExchangeMember(
                isp=isp,
                gain=gain,
                cost_share=cost * gain / total,
                solo_cost=cost,
            )
            for isp, gain in sorted(member_gains.items())
        )
        result.append(
            ExchangeConduit(
                edge=edge, length_km=length, total_gain=total, members=members
            )
        )
    return result
