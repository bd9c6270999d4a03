"""The §6.2 open-access simulation the prefix walk replaced.

Moved out of :mod:`repro.policy.titleii`: each entrant count is
simulated from scratch, with a fresh ``random.Random(seed)`` and a
fresh tenancy table, so the trade-off curve over 0..n entrants solves
entrant 1 n times, and each entrant connects its POPs with one
single-source Dijkstra per POP (:func:`entrant_tenancy_reference`).  The package walks the entrants once and reads every
point off the running prefix; the parity suite
(``tests/test_open_access_walk.py``) requires the two to agree exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.perf.substrate import substrate_for
from repro.policy.titleii import (
    ENTRANT_POPS,
    OpenAccessOutcome,
    TradeoffPoint,
    _sharing_stats,
)


def entrant_tenancy_reference(
    fiber_map: FiberMap,
    rng: random.Random,
    name: str,
) -> Tuple[List[str], float]:
    """``titleii._entrant_tenancy`` as it was before the walk shared
    one ground and one batched Dijkstra per entrant: the city list and
    weights rebuilt per entrant, one single-source solve per POP."""
    cs = substrate_for(fiber_map)
    view = cs.conduit_view()
    cities = [c for c in view.nodes if view.present(c)]
    weights = [city_by_name(c).population for c in cities]
    pops = sorted(set(rng.choices(cities, weights=weights, k=ENTRANT_POPS)))
    if len(pops) < 2:
        return [], 0.0
    ordered = sorted(pops, key=lambda c: -city_by_name(c).population)
    connected = [ordered[0]]
    conduit_ids: List[str] = []
    total_km = 0.0
    for city in ordered[1:]:
        partner = min(
            connected,
            key=lambda c: city_by_name(city).distance_km(city_by_name(c)),
        )
        path = view.shortest_path(city, partner, "length_km")
        if path is None:
            continue
        connected.append(city)
        conduit_ids.extend(cs.path_conduits(view, path))
        for km in view.weights["length_km"][view.path_edges(path)]:
            total_km += float(km)
    return conduit_ids, total_km


def simulate_open_access_reference(
    fiber_map: FiberMap,
    num_entrants: int = 3,
    seed: int = 19,
) -> OpenAccessOutcome:
    """The outcome after *num_entrants* entrants, simulated from
    scratch (the package reads it off ``titleii._open_access_walk``)."""
    rng = random.Random(seed)
    counts_before = [c.num_tenants for c in fiber_map.conduits.values()]
    before, mean_before = _sharing_stats(counts_before)
    extra: Dict[str, set] = {cid: set() for cid in fiber_map.conduits}
    entrants = tuple(f"Entrant-{i + 1}" for i in range(num_entrants))
    leased_km = 0.0
    build_own_km = 0.0
    for name in entrants:
        conduit_ids, km = entrant_tenancy_reference(fiber_map, rng, name)
        leased_km += km
        build_own_km += km  # same routes, own trench
        for cid in conduit_ids:
            extra[cid].add(name)
    counts_after = [
        c.num_tenants + len(extra[c.conduit_id])
        for c in fiber_map.conduits.values()
    ]
    after, mean_after = _sharing_stats(counts_after)
    return OpenAccessOutcome(
        entrants=entrants,
        leased_km=leased_km,
        build_own_km=build_own_km,
        sharing_before=before,
        sharing_after=after,
        mean_tenants_before=mean_before,
        mean_tenants_after=mean_after,
    )


def open_access_tradeoff_reference(
    fiber_map: FiberMap,
    max_entrants: int = 8,
    seed: int = 19,
) -> List[TradeoffPoint]:
    """:func:`repro.policy.titleii.open_access_tradeoff`, one
    from-scratch simulation per entrant count."""
    points = []
    for n in range(0, max_entrants + 1):
        outcome = simulate_open_access_reference(
            fiber_map, num_entrants=n, seed=seed
        )
        points.append(
            TradeoffPoint(
                num_entrants=n,
                capital_savings_fraction=outcome.capital_savings_fraction,
                mean_tenants_after=outcome.mean_tenants_after,
                sharing_increase=outcome.sharing_increase,
            )
        )
    return points
