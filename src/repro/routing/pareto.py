"""Risk-latency Pareto routing (RiskRoute-style, paper reference [84]).

A path between two cities trades propagation delay against shared risk:
the fastest route usually rides the busiest trunk conduits.  This module
enumerates the Pareto frontier of (delay, risk) for a provider and a
city pair, so an operator can pick the exact trade-off — e.g. "the
fastest path whose worst conduit has at most 8 tenants".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.perf.substrate import substrate_for


@dataclass(frozen=True)
class ParetoPath:
    """One non-dominated (delay, risk) routing option."""

    conduit_ids: Tuple[str, ...]
    delay_ms: float
    #: Worst tenant count along the path (bottleneck risk).
    max_risk: int
    #: Total tenant count along the path (additive risk).
    total_risk: int

    @property
    def num_hops(self) -> int:
        return len(self.conduit_ids)


def pareto_paths(
    fiber_map: FiberMap,
    a_key: str,
    b_key: str,
    isp: Optional[str] = None,
) -> List[ParetoPath]:
    """The (delay, bottleneck-risk) Pareto frontier between two cities.

    Sweeps the bottleneck threshold: for each feasible maximum tenant
    count, the shortest-delay path using only conduits at or below it.
    Dominated options are discarded; the result is sorted fastest first.
    Restricting to *isp* uses only that provider's footprint.  Raises
    ``ValueError`` for identical endpoints, which have no path to rank.

    Parallel conduits collapse to the least-shared one per city pair,
    and each threshold is an edge mask on that one view.
    """
    if a_key == b_key:
        raise ValueError(f"identical endpoints: {a_key}")
    cs = substrate_for(fiber_map)
    view = cs.tenant_view(isp)
    if not view.present(a_key) or not view.present(b_key):
        return []
    risk = view.payload["risk"]
    options: List[ParetoPath] = []
    for level in np.unique(risk):
        path = view.shortest_path(a_key, b_key, "length_km", risk <= level)
        if path is None:
            continue
        risks = [int(r) for r in risk[view.path_edges(path)]]
        option = ParetoPath(
            conduit_ids=cs.path_conduits(view, path),
            delay_ms=fiber_delay_ms(view.path_length(path, "length_km")),
            max_risk=max(risks),
            total_risk=sum(risks),
        )
        options.append(option)
    # Keep the non-dominated set over (delay, max_risk).
    options.sort(key=lambda o: (o.delay_ms, o.max_risk))
    frontier: List[ParetoPath] = []
    best_risk = None
    for option in options:
        if best_risk is None or option.max_risk < best_risk:
            frontier.append(option)
            best_risk = option.max_risk
    return frontier
