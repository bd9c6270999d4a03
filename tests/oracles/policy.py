"""The §6.2 open-access simulation the prefix walk replaced.

Moved out of :mod:`repro.policy.titleii`: each entrant count is
simulated from scratch, with a fresh ``random.Random(seed)`` and a
fresh tenancy table, so the trade-off curve over 0..n entrants solves
entrant 1 n times.  The package walks the entrants once and reads every
point off the running prefix; the parity suite
(``tests/test_open_access_walk.py``) requires the two to agree exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.fibermap.elements import FiberMap
from repro.policy.titleii import (
    OpenAccessOutcome,
    TradeoffPoint,
    _entrant_tenancy,
    _sharing_stats,
)


def simulate_open_access_reference(
    fiber_map: FiberMap,
    num_entrants: int = 3,
    seed: int = 19,
) -> OpenAccessOutcome:
    """:func:`repro.policy.titleii.simulate_open_access`, per entrant
    count from scratch."""
    rng = random.Random(seed)
    counts_before = [c.num_tenants for c in fiber_map.conduits.values()]
    before, mean_before = _sharing_stats(counts_before)
    extra: Dict[str, set] = {cid: set() for cid in fiber_map.conduits}
    entrants = tuple(f"Entrant-{i + 1}" for i in range(num_entrants))
    leased_km = 0.0
    build_own_km = 0.0
    for name in entrants:
        conduit_ids, km = _entrant_tenancy(fiber_map, rng, name)
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
