"""Primary/backup path planning with SRLG avoidance.

For a provider and a city pair: the primary is its minimum-delay path
over its own footprint; the backup minimizes delay subject to avoiding
the primary's shared-risk groups — strictly when possible, otherwise
with a heavy penalty per shared group (the practical compromise when a
provider's footprint cannot offer full diversity, which, per §4.2, is
exactly Suddenlink's situation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.perf.substrate import substrate_for
from repro.routing.srlg import shared_srlgs
from repro.transport.network import EdgeKey

#: Penalty (km-equivalent) per shared risk group when strict disjointness
#: is impossible.
SRLG_PENALTY_KM = 5000.0


@dataclass(frozen=True)
class BackupPlan:
    """A primary/backup pair for one provider and city pair."""

    isp: str
    endpoints: EdgeKey
    primary_conduits: Tuple[str, ...]
    backup_conduits: Optional[Tuple[str, ...]]
    primary_delay_ms: float
    backup_delay_ms: Optional[float]
    shared_groups: FrozenSet[EdgeKey]

    @property
    def fully_diverse(self) -> bool:
        """True when the backup shares no risk group with the primary."""
        return self.backup_conduits is not None and not self.shared_groups

    @property
    def protected(self) -> bool:
        """True when any backup exists at all."""
        return self.backup_conduits is not None


def plan_backup(
    fiber_map: FiberMap,
    isp: str,
    a_key: str,
    b_key: str,
) -> Optional[BackupPlan]:
    """Plan a primary and an SRLG-diverse backup path.

    Returns ``None`` when the provider cannot connect the pair at all.
    The backup is ``None`` (unprotected) when removing the primary's
    risk groups disconnects the pair *and* no penalized alternative
    distinct from the primary exists.  Raises ``ValueError`` for
    identical endpoints, which need no path.

    Both paths are solved on the substrate's cached footprint view (the
    provider's conduits, shortest parallel conduit per city pair).  A
    risk group is a city pair and the view holds one edge per pair, so
    the primary's risk groups are exactly its own edges: the strict
    backup masks them, the penalized one surcharges them in a per-call
    weight override.
    """
    if a_key == b_key:
        raise ValueError(f"identical endpoints: {a_key}")
    cs = substrate_for(fiber_map)
    view = cs.footprint_view(isp)
    primary_path = view.shortest_path(a_key, b_key, "length_km")
    if primary_path is None:
        return None
    primary = cs.path_conduits(view, primary_path)
    primary_km = view.path_length(primary_path, "length_km")
    primary_edges = view.path_edges(primary_path)

    backup: Optional[Tuple[str, ...]] = None
    backup_km: Optional[float] = None
    strict = np.ones(view.num_edges, dtype=bool)
    strict[primary_edges] = False
    backup_path = view.shortest_path(a_key, b_key, "length_km", strict)
    if backup_path is not None:
        backup = cs.path_conduits(view, backup_path)
        backup_km = view.path_length(backup_path, "length_km")
    else:
        # Penalized attempt: allow overlap at a steep price.
        penalized = view.weights["length_km"].copy()
        penalized[primary_edges] += SRLG_PENALTY_KM
        backup_path = view.shortest_path(
            a_key, b_key, "length_km", override=penalized
        )
        candidate = cs.path_conduits(view, backup_path)
        if candidate != primary:
            backup = candidate
            backup_km = view.path_length(backup_path, "length_km")
    shared = (
        shared_srlgs(fiber_map, primary, backup)
        if backup is not None
        else frozenset()
    )
    return BackupPlan(
        isp=isp,
        endpoints=(a_key, b_key),
        primary_conduits=primary,
        backup_conduits=backup,
        primary_delay_ms=fiber_delay_ms(primary_km),
        backup_delay_ms=fiber_delay_ms(backup_km) if backup_km is not None else None,
        shared_groups=shared,
    )


def protection_report(
    fiber_map: FiberMap,
    isp: str,
    max_pairs: Optional[int] = 100,
) -> Tuple[int, int, int]:
    """(fully diverse, protected-but-shared, unprotected) counts over the
    provider's link pairs."""
    pairs = sorted({l.endpoints for l in fiber_map.links_of(isp)})
    if max_pairs is not None:
        pairs = pairs[:max_pairs]
    diverse = shared = unprotected = 0
    for a, b in pairs:
        plan = plan_backup(fiber_map, isp, a, b)
        if plan is None or not plan.protected:
            unprotected += 1
        elif plan.fully_diverse:
            diverse += 1
        else:
            shared += 1
    return diverse, shared, unprotected
