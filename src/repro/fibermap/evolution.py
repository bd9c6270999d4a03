"""Map evolution: projecting growth under the same economics.

The paper stresses that the physical map changes slowly ("installed
conduits rarely become defunct, and deploying new conduits takes
considerable time") and that sharing-friendly policy accelerates conduit
reuse.  This module grows a ground-truth world forward year by year —
each provider adds links at a configurable rate, deployed by the same
route-and-occupy step (:func:`~repro.fibermap.synthesis.deploy_links`)
and rules as the original synthesis — and records the
sharing trajectory: does growth mostly pile into the existing tubes?
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

from repro.fibermap.elements import FiberMap, MapStats
from repro.fibermap.serialization import fiber_map_from_dict, fiber_map_to_dict
from repro.fibermap.synthesis import GroundTruth, deploy_links
from repro.transport.network import EdgeKey, canonical_edge


@dataclass(frozen=True)
class YearSnapshot:
    """The map's risk posture after one simulated year."""

    year: int
    stats: MapStats
    mean_tenancy: float
    shared_ge4_fraction: float
    new_links: int
    new_conduits: int


@dataclass(frozen=True)
class GrowthResult:
    """Trajectory over the simulated horizon."""

    snapshots: Tuple[YearSnapshot, ...]

    @property
    def final(self) -> YearSnapshot:
        return self.snapshots[-1]

    @property
    def reuse_fraction(self) -> float:
        """Fraction of growth absorbed by existing conduits.

        1.0 means every new link rode existing tubes; the paper's
        economics predict values near 1.
        """
        links = sum(s.new_links for s in self.snapshots[1:])
        conduits = sum(s.new_conduits for s in self.snapshots[1:])
        if links == 0:
            return 1.0
        # Each link could in principle have demanded several new conduits.
        return max(0.0, 1.0 - conduits / links)


def _snapshot(fiber_map: FiberMap, year: int, new_links: int,
              new_conduits: int) -> YearSnapshot:
    tenancies = [c.num_tenants for c in fiber_map.conduits.values()]
    total = max(1, len(tenancies))
    return YearSnapshot(
        year=year,
        stats=fiber_map.stats(),
        mean_tenancy=sum(tenancies) / total,
        shared_ge4_fraction=sum(1 for t in tenancies if t >= 4) / total,
        new_links=new_links,
        new_conduits=new_conduits,
    )


def _new_pairs(
    pops: List[str],
    existing_pairs: Set[EdgeKey],
    budget: int,
    rng: random.Random,
) -> Iterator[Tuple[str, str]]:
    """Up to *budget* POP pairs the provider does not link yet, drawn
    lazily: each draw follows the previous link's row draws on *rng*."""
    added = 0
    attempts = 0
    while added < budget and attempts < budget * 50:
        attempts += 1
        a, b = rng.sample(pops, 2)
        pair = canonical_edge(a, b)
        if pair in existing_pairs:
            continue
        existing_pairs.add(pair)
        added += 1
        yield a, b


def simulate_growth(
    ground_truth: GroundTruth,
    years: int = 5,
    annual_link_growth: float = 0.03,
    seed: int = 29,
) -> GrowthResult:
    """Grow the world forward and record the sharing trajectory.

    The input ground truth is not mutated; growth happens on a deep copy
    of its fiber map.  Each year every provider adds
    ``round(annual_link_growth * current links)`` new links between
    randomly chosen pairs of its existing POPs, deployed under the
    ground truth's own rules (builders trench, lessees herd).
    """
    if years <= 0:
        raise ValueError("years must be positive")
    if annual_link_growth < 0:
        raise ValueError("growth rate must be non-negative")
    fiber_map = fiber_map_from_dict(fiber_map_to_dict(ground_truth.fiber_map))
    profiles = {p.name: p for p in ground_truth.profiles}
    rng = random.Random(seed)
    used_row_ids: Set[str] = {
        c.row_id for c in fiber_map.conduits.values()
    }
    snapshots: List[YearSnapshot] = [_snapshot(fiber_map, 0, 0, 0)]
    for year in range(1, years + 1):
        links_before = len(fiber_map.links)
        conduits_before = len(fiber_map.conduits)
        for isp in fiber_map.isps():
            current = fiber_map.links_of(isp)
            budget = round(annual_link_growth * len(current))
            if budget <= 0:
                continue
            pops = sorted({e for link in current for e in link.endpoints})
            if len(pops) < 2:
                continue
            pairs = _new_pairs(
                pops, {link.endpoints for link in current}, budget, rng
            )
            deploy_links(
                fiber_map, ground_truth.registry, ground_truth.network,
                profiles[isp], pairs, used_row_ids, rng, ground_truth.rules,
            )
        snapshots.append(_snapshot(
            fiber_map, year,
            len(fiber_map.links) - links_before,
            len(fiber_map.conduits) - conduits_before,
        ))
    return GrowthResult(snapshots=tuple(snapshots))
