"""Quantifying the Title II open-access trade-off (§6.2).

If conduits must be opened to third parties, new entrants "take
advantage of expensive already-existing long-haul infrastructure to
facilitate the build out of their own infrastructure at considerably
lower cost" — and every conduit they enter becomes a bigger shared-risk
group.  We simulate *n* entrants building national footprints under two
regimes:

* **open access** — entrants pull fiber through existing conduits
  (cost: a lease fraction of trenching);
* **build-own** — the counterfactual where each entrant must trench its
  own conduits along the same routes.

The outcome is the paper's trade-off, measured: capital saved by the
entrants vs the growth of conduit sharing (Figure 6 statistics before
and after).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.perf.substrate import ConduitSubstrate, GraphView, substrate_for

#: Leasing into an existing conduit costs this fraction of trenching.
LEASE_COST_FRACTION = 0.12
#: Entrant footprint size (POPs).
ENTRANT_POPS = 25


@dataclass(frozen=True)
class OpenAccessOutcome:
    """Sharing and cost effects of admitting open-access entrants."""

    entrants: Tuple[str, ...]
    #: Conduit-km entrants occupy.
    leased_km: float
    #: What trenching the same routes would have cost (km).
    build_own_km: float
    #: Fraction of conduits shared by >= k providers, before and after.
    sharing_before: Dict[int, float]
    sharing_after: Dict[int, float]
    #: Mean tenants per conduit, before and after.
    mean_tenants_before: float
    mean_tenants_after: float

    @property
    def capital_savings_fraction(self) -> float:
        """Fraction of build-own capital the entrants avoided."""
        if self.build_own_km <= 0:
            return 0.0
        leased_cost = self.leased_km * LEASE_COST_FRACTION
        return 1.0 - leased_cost / self.build_own_km

    @property
    def sharing_increase(self) -> float:
        """Growth of mean conduit tenancy (shared-risk proxy)."""
        return self.mean_tenants_after - self.mean_tenants_before


@dataclass(frozen=True)
class _Ground:
    """What every entrant of one walk builds on: the map's conduit view
    (and its substrate), the cities it touches and their cumulative
    population weights."""

    substrate: ConduitSubstrate
    view: GraphView
    cities: Tuple[str, ...]
    cum_weights: Tuple[int, ...]

    @classmethod
    def of(cls, fiber_map: FiberMap) -> "_Ground":
        cs = substrate_for(fiber_map)
        view = cs.conduit_view()
        cities = tuple(c for c in view.nodes if view.present(c))
        weights = accumulate(city_by_name(c).population for c in cities)
        return cls(cs, view, cities, tuple(weights))


def _entrant_tenancy(
    ground: _Ground,
    rng: random.Random,
    name: str,
) -> Tuple[List[str], float]:
    """Conduits one entrant leases, plus the route mileage.

    Each POP after the most populous joins its nearest connected POP by
    the shortest conduit path; every POP's shortest-path tree comes
    from one batched Dijkstra over all of them.
    """
    pops = sorted(set(rng.choices(
        ground.cities, cum_weights=ground.cum_weights, k=ENTRANT_POPS
    )))
    if len(pops) < 2:
        return [], 0.0
    cs, view = ground.substrate, ground.view
    ordered = sorted(pops, key=lambda c: -city_by_name(c).population)
    _dist, pred, row_of = view.dijkstra(ordered[1:], "length_km")
    connected = [ordered[0]]
    conduit_ids: List[str] = []
    total_km = 0.0
    for city in ordered[1:]:
        partner = min(
            connected,
            key=lambda c: city_by_name(city).distance_km(city_by_name(c)),
        )
        path = view.walk(
            pred[row_of[city]], view.index[city], view.index[partner]
        )
        if path is None:  # pragma: no cover
            continue
        connected.append(city)
        conduit_ids.extend(cs.path_conduits(view, path))
        for km in view.weights["length_km"][view.path_edges(path)]:
            total_km += float(km)
    return conduit_ids, total_km


def _sharing_stats(counts: Sequence[int]) -> Tuple[Dict[int, float], float]:
    total = max(1, len(counts))
    fractions = {
        k: sum(1 for c in counts if c >= k) / total for k in (2, 3, 4)
    }
    mean = sum(counts) / total
    return fractions, mean


def _open_access_walk(
    fiber_map: FiberMap, max_entrants: int, seed: int
) -> Iterator[OpenAccessOutcome]:
    """The outcome after each of 0..*max_entrants* entrants, in order.

    One ``random.Random(seed)`` serves the entrants in turn, so the
    outcome for *n* entrants is a prefix of the walk: each entrant's
    tenancy is solved once, its mileage added to the running
    ``leased_km`` in entrant order, and its distinct conduits to the
    running tenant counts (a copy — the input map is not mutated).
    """
    rng = random.Random(seed)
    ground = _Ground.of(fiber_map)
    conduits = list(fiber_map.conduits.values())
    position = {c.conduit_id: i for i, c in enumerate(conduits)}
    counts = [c.num_tenants for c in conduits]
    before, mean_before = _sharing_stats(counts)
    entrants = tuple(f"Entrant-{i + 1}" for i in range(max_entrants))
    leased_km = 0.0
    for n in range(max_entrants + 1):
        if n:
            conduit_ids, km = _entrant_tenancy(ground, rng, entrants[n - 1])
            leased_km += km
            for cid in set(conduit_ids):
                counts[position[cid]] += 1
        after, mean_after = _sharing_stats(counts)
        yield OpenAccessOutcome(
            entrants=entrants[:n],
            leased_km=leased_km,
            build_own_km=leased_km,  # same routes, own trench
            sharing_before=dict(before),
            sharing_after=after,
            mean_tenants_before=mean_before,
            mean_tenants_after=mean_after,
        )


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the savings-vs-risk trade-off curve."""

    num_entrants: int
    capital_savings_fraction: float
    mean_tenants_after: float
    sharing_increase: float


def open_access_tradeoff(
    fiber_map: FiberMap,
    max_entrants: int = 8,
    seed: int = 19,
) -> List[TradeoffPoint]:
    """The §6.2 trade-off curve: entrants vs savings vs shared risk.

    One walk over the entrants: the point for *n* entrants reads the
    walk's prefix, so each entrant's tenancy is solved once.
    """
    return [
        TradeoffPoint(
            num_entrants=len(outcome.entrants),
            capital_savings_fraction=outcome.capital_savings_fraction,
            mean_tenants_after=outcome.mean_tenants_after,
            sharing_increase=outcome.sharing_increase,
        )
        for outcome in _open_access_walk(fiber_map, max_entrants, seed)
    ]
