"""Map diffing: what changed between two versions of the long-haul map.

§2.5 hopes for "a community effort aimed at gradually improving the
overall fidelity of our basic map by contributing to a growing database
of information about geocoded conduits and their tenants."  A growing
database needs review tooling: this module compares two maps at conduit
granularity — identity is (city-pair edge, right-of-way) — and reports
additions, removals, and tenancy changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.fibermap.elements import Conduit, FiberMap
from repro.transport.network import EdgeKey

ConduitKey = Tuple[EdgeKey, str]


def _conduit_index(fiber_map: FiberMap) -> Dict[ConduitKey, Conduit]:
    return {
        (c.edge, c.row_id): c for c in fiber_map.conduits.values()
    }


@dataclass(frozen=True)
class TenancyChange:
    """Tenant-set delta for one conduit present in both maps."""

    key: ConduitKey
    added: FrozenSet[str]
    removed: FrozenSet[str]


@dataclass(frozen=True)
class MapDiff:
    """Structured difference between two fiber maps."""

    #: Conduits only in the newer map.
    added_conduits: Tuple[ConduitKey, ...]
    #: Conduits only in the older map.
    removed_conduits: Tuple[ConduitKey, ...]
    #: Conduits in both whose tenant sets differ.
    tenancy_changes: Tuple[TenancyChange, ...]
    #: Conduits in both with identical tenancy.
    unchanged: int

    @property
    def tenancies_added(self) -> int:
        return sum(len(c.added) for c in self.tenancy_changes)

    @property
    def tenancies_removed(self) -> int:
        return sum(len(c.removed) for c in self.tenancy_changes)

    def summary(self) -> str:
        return (
            f"+{len(self.added_conduits)} conduits, "
            f"-{len(self.removed_conduits)} conduits, "
            f"{len(self.tenancy_changes)} tenancy changes "
            f"(+{self.tenancies_added}/-{self.tenancies_removed} tenancies), "
            f"{self.unchanged} unchanged"
        )


def diff_maps(old: FiberMap, new: FiberMap) -> MapDiff:
    """Compare two maps; *new* is the proposed update."""
    old_index = _conduit_index(old)
    new_index = _conduit_index(new)
    added = tuple(sorted(set(new_index) - set(old_index)))
    removed = tuple(sorted(set(old_index) - set(new_index)))
    changes: List[TenancyChange] = []
    unchanged = 0
    for key in sorted(set(old_index) & set(new_index)):
        before = old_index[key].tenants
        after = new_index[key].tenants
        if before == after:
            unchanged += 1
            continue
        changes.append(
            TenancyChange(
                key=key,
                added=frozenset(after - before),
                removed=frozenset(before - after),
            )
        )
    return MapDiff(
        added_conduits=added,
        removed_conduits=removed,
        tenancy_changes=tuple(changes),
        unchanged=unchanged,
    )


def fidelity_gain(
    ground_truth: FiberMap, old: FiberMap, new: FiberMap
) -> Tuple[float, float]:
    """(old, new) tenancy recall against a reference map.

    Measures whether an update actually improved fidelity — the check a
    community database maintainer runs before accepting a contribution.
    """
    truth_index = {
        key: c.tenants for key, c in _conduit_index(ground_truth).items()
    }

    def recall(candidate: FiberMap) -> float:
        candidate_index = {
            key: c.tenants for key, c in _conduit_index(candidate).items()
        }
        truth_pairs = 0
        found = 0
        for key, tenants in truth_index.items():
            truth_pairs += len(tenants)
            got = candidate_index.get(key, frozenset())
            found += len(tenants & got)
        return found / truth_pairs if truth_pairs else 0.0

    return recall(old), recall(new)
