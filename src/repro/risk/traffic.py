"""Connectivity + traffic risk (§4.3).

Combines the risk matrix with a traceroute overlay: route popularity is
the proxy for traffic volume (following [99]), so conduits that are both
heavily shared and heavily probed are the true high-risk components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.risk.matrix import RiskMatrix
from repro.risk.metrics import sharing_cdf
from repro.traceroute.overlay import (
    EAST_TO_WEST,
    WEST_TO_EAST,
    TrafficOverlay,
)


@dataclass(frozen=True)
class TrafficRiskReport:
    """Everything §4.3 reports, in one bundle."""

    #: Tables 2 and 3: ((city_a, city_b), probe count).
    top_west_to_east: Tuple[Tuple[Tuple[str, str], int], ...]
    top_east_to_west: Tuple[Tuple[Tuple[str, str], int], ...]
    #: Table 4: (isp, conduits carrying its observed traffic).
    isp_conduit_usage: Tuple[Tuple[str, int], ...]
    #: Figure 9: the two CDFs, physical-only and traffic-overlaid.
    cdf_physical: Tuple[Tuple[int, float], ...]
    cdf_with_traffic: Tuple[Tuple[int, float], ...]
    #: Conduits with at least one provider inferred beyond the map.
    conduits_with_new_isps: int
    #: Largest number of additional providers inferred on one conduit.
    max_additional_isps: int


def traffic_risk_report(
    matrix: RiskMatrix,
    overlay: TrafficOverlay,
    top: int = 20,
) -> TrafficRiskReport:
    """Build the full §4.3 report from a matrix and a populated overlay."""
    extra_counts: List[int] = []
    conduits_with_new = 0
    for conduit_id in matrix.conduit_ids:
        extra = overlay.inferred_additional_isps(conduit_id)
        if extra:
            conduits_with_new += 1
            extra_counts.append(len(extra))
    return TrafficRiskReport(
        top_west_to_east=tuple(overlay.top_conduits(WEST_TO_EAST, top)),
        top_east_to_west=tuple(overlay.top_conduits(EAST_TO_WEST, top)),
        isp_conduit_usage=tuple(overlay.isp_conduit_usage()),
        cdf_physical=tuple(sharing_cdf(matrix)),
        cdf_with_traffic=tuple(overlay.sharing_cdf_with_traffic()),
        conduits_with_new_isps=conduits_with_new,
        max_additional_isps=max(extra_counts, default=0),
    )
