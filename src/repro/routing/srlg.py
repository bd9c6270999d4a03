"""Shared-risk link groups over the conduit map.

Two layer-3 links that look disjoint can die together if their fiber
shares a trench.  The SRLG of a conduit is its city-pair edge: parallel
conduits between the same cities usually follow the same or an adjacent
trench (§2.2), so a serious physical event correlates them.  A truly
diverse backup path therefore avoids the *edges* of the primary, not
just its conduits.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.fibermap.elements import FiberMap
from repro.transport.network import EdgeKey

Srlg = EdgeKey


def srlg_of_conduit(fiber_map: FiberMap, conduit_id: str) -> Srlg:
    """The shared-risk group of one conduit (its city-pair edge)."""
    return fiber_map.conduit(conduit_id).edge


def path_srlgs(fiber_map: FiberMap, conduit_ids: Iterable[str]) -> FrozenSet[Srlg]:
    """All risk groups a conduit path traverses."""
    return frozenset(
        srlg_of_conduit(fiber_map, cid) for cid in conduit_ids
    )


def shared_srlgs(
    fiber_map: FiberMap,
    path_a: Iterable[str],
    path_b: Iterable[str],
) -> FrozenSet[Srlg]:
    """Risk groups common to two conduit paths (ideally empty)."""
    return path_srlgs(fiber_map, path_a) & path_srlgs(fiber_map, path_b)
