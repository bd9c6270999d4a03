"""Failure specifications: which conduits go dark together.

A *cut event* is the physical unit of failure.  The paper's central
observation makes it dangerous: a single trench cut ("The Backhoe: A
Real Cyberthreat", ref. [64]) severs the fiber of *every* tenant of the
conduit simultaneously — and of every parallel conduit in the same
trench if the event is at the right-of-way level.  Disasters take out
every conduit whose geometry passes near the event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.fibermap.elements import FiberMap
from repro.geo.coords import GeoPoint
from repro.transport.network import canonical_edge


@dataclass(frozen=True)
class CutEvent:
    """One failure event: a set of conduits severed together."""

    description: str
    conduit_ids: FrozenSet[str]
    #: Where it happened (informational; None for logical cuts).
    location: Optional[GeoPoint] = None

    def __post_init__(self) -> None:
        if not self.conduit_ids:
            raise ValueError("a cut event needs at least one conduit")

    @property
    def size(self) -> int:
        return len(self.conduit_ids)


def conduit_cut(fiber_map: FiberMap, conduit_id: str) -> CutEvent:
    """A backhoe cut of one specific conduit."""
    conduit = fiber_map.conduit(conduit_id)
    a, b = conduit.edge
    midpoint = conduit.geometry.point_at_km(conduit.geometry.length_km / 2)
    return CutEvent(
        description=f"conduit cut: {a} - {b} ({conduit_id})",
        conduit_ids=frozenset({conduit_id}),
        location=midpoint,
    )


def edge_cut(fiber_map: FiberMap, a_key: str, b_key: str) -> CutEvent:
    """A right-of-way level cut: every conduit between two cities.

    Parallel conduits along the same corridor usually share the trench
    or an adjacent one ("the fiber links either reside in the same fiber
    bundle, or in an adjacent conduit", §2.2), so a serious dig event
    takes them all.
    """
    conduits = fiber_map.conduits_between(a_key, b_key)
    if not conduits:
        raise KeyError(f"no conduits between {a_key} and {b_key}")
    edge = canonical_edge(a_key, b_key)
    geometry = conduits[0].geometry
    midpoint = geometry.point_at_km(geometry.length_km / 2)
    return CutEvent(
        description=f"right-of-way cut: {edge[0]} - {edge[1]}",
        conduit_ids=frozenset(c.conduit_id for c in conduits),
        location=midpoint,
    )


def disaster_cut(
    fiber_map: FiberMap,
    center: GeoPoint,
    radius_km: float,
    description: Optional[str] = None,
) -> CutEvent:
    """A geographically correlated failure (earthquake, flood, storm).

    Severs every conduit whose geometry passes within *radius_km* of
    *center* — the probabilistic-geographic-failure model of the
    paper's reference [74].
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive: {radius_km}")
    hit = set()
    for conduit_id, conduit in fiber_map.conduits.items():
        if conduit.geometry.distance_to_point_km(center) <= radius_km:
            hit.add(conduit_id)
    if not hit:
        raise ValueError(
            f"no conduit within {radius_km} km of {center}"
        )
    return CutEvent(
        description=description
        or f"disaster at {center} (radius {radius_km:.0f} km)",
        conduit_ids=frozenset(hit),
        location=center,
    )
