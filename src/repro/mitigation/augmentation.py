"""Adding new conduits along unused rights-of-way (§5.2).

The paper's formulation: add up to *k* new city-to-city conduits (edges
not in G) so that overall robustness increases the most while deployment
cost (fiber miles) stays low.  Figure 11 then reports, per provider, the
improvement ratio after k = 1..10 additions: small-footprint providers
(Telia, Tata) gain substantially, infrastructure-rich ones (Level 3,
CenturyLink, Cogent) barely move, and Suddenlink is the anomaly that
shows no improvement because it depends on other providers' trunks to
reach its scattered markets.

Metric: a provider's exposure is the traffic-weighted average shared
risk of its links — total tenant count over all conduit hops its links
traverse, divided by the hop count — with every link routed on its
minimum-risk path over the provider's own footprint plus the new private
conduits (tenant count 1).  The improvement ratio is the relative drop
of that exposure, ``1 - after/before``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fibermap.elements import FiberMap
from repro.perf.substrate import ConduitSubstrate, GraphView
from repro.transport.network import EdgeKey, TransportationNetwork

#: Length contribution to routing weight (prefers short when risk ties).
LENGTH_EPSILON = 1.0 / 2000.0
#: Deployment-cost penalty per km when scoring candidate conduits — the
#: paper's DC term: between two candidates with equal risk gain, the
#: shorter trench wins.
COST_PENALTY_PER_KM = 1.0 / 500.0
#: Maximum candidates evaluated exactly per greedy step.
MAX_CANDIDATES = 150


@dataclass(frozen=True)
class AugmentationResult:
    """Figure 11 data for one provider."""

    isp: str
    baseline_risk: float
    #: Exposure after k additions, index 0 = k=1.
    risk_after: Tuple[float, ...]
    #: Edges added, in greedy order.
    added_edges: Tuple[EdgeKey, ...]
    #: Candidates actually scored (after footprint filter + cap).
    pool_size: int = 0
    #: Eligible candidates dropped by the ``MAX_CANDIDATES`` cap.
    pool_truncated: int = 0
    #: Optimizer driver that produced this plan.
    driver: str = "greedy"

    def improvement_ratio(self, k: int) -> float:
        """Relative exposure reduction after *k* added conduits."""
        if not 1 <= k <= len(self.risk_after):
            raise ValueError(f"k out of range: {k}")
        if self.baseline_risk <= 0:
            return 0.0
        return 1.0 - self.risk_after[k - 1] / self.baseline_risk

    @property
    def curve(self) -> List[Tuple[int, float]]:
        return [
            (k, self.improvement_ratio(k))
            for k in range(1, len(self.risk_after) + 1)
        ]


def candidate_new_edges(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    primary_only: bool = True,
) -> List[Tuple[EdgeKey, float]]:
    """Rights-of-way edges that host no conduit yet: the §5.2 candidate set.

    Returns ``(edge, length_km)`` pairs sorted by edge for determinism.
    """
    used = {c.edge for c in fiber_map.conduits.values()}
    result = []
    for record in network.edges():
        if record.edge in used:
            continue
        if primary_only and not record.is_primary:
            continue
        result.append((record.edge, record.length_km))
    return result


def candidate_gain(
    du,
    dv,
    ai,
    bi,
    costs,
    new_weight: float,
) -> float:
    """Vectorized §5.2 gain estimate for one candidate conduit ``(u, v)``.

    *du*/*dv* are dense distance rows from the candidate's endpoints,
    *ai*/*bi* index the demand endpoints into those rows, *costs* holds
    each demand's current path cost.  A demand saves ``cost - via`` when
    the cheaper of the two orientations through the new conduit beats its
    current path.

    The finiteness mask is on ``via`` — the orientation minimum — not on
    ``via_uv`` alone: a demand reachable only as ``v → a`` and ``u → b``
    still reroutes through the conduit.  (Masking ``via_uv`` silently
    scored such candidates as useless.  On undirected footprints the two
    masks coincide — any finite ``via_vu`` implies every endpoint shares
    ``u``'s component, making ``via_uv`` finite too — but only this form
    survives asymmetric reachability; see tests/test_drivers.py.)
    """
    via_uv = du[ai] + new_weight + dv[bi]
    via_vu = dv[ai] + new_weight + du[bi]
    via = np.minimum(via_uv, via_vu)
    better = np.isfinite(via) & (via < costs)
    if better.any():
        # Sequential (left-associated) accumulation so the gain is
        # bit-identical to the reference ``+=`` loop.
        return float((costs[better] - via[better]).cumsum()[-1])
    return 0.0


def _demand_costs(
    view: GraphView, dist, row_of: Dict[str, int], demands: Sequence[EdgeKey]
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """The :func:`candidate_gain` demand arrays ``(ai, bi, costs)``.

    *dist*/*row_of* come from one :meth:`GraphView.dijkstra` whose
    sources include every demand's first endpoint.  Demands whose source
    is off the footprint or whose current cost is infinite are dropped;
    the rest keep *demands* order, so gains accumulate in that order.
    """
    index = view.index
    cost_a: List[int] = []
    cost_b: List[int] = []
    cost_v: List[float] = []
    for a, b in demands:
        if not view.present(a):
            continue
        cost = dist[row_of[a], index[b]]
        if not np.isfinite(cost):
            continue
        cost_a.append(index[a])
        cost_b.append(index[b])
        cost_v.append(float(cost))
    return (
        np.asarray(cost_a, dtype=np.int64),
        np.asarray(cost_b, dtype=np.int64),
        np.asarray(cost_v, dtype=float),
    )


def _footprint_view(conduits: ConduitSubstrate, isp: str) -> GraphView:
    """The provider's footprint collapsed by routing weight ``w``
    (tenant count + length epsilon), cached on the substrate."""
    rows = conduits.rows_for_isp(isp)
    w = conduits.tenants[rows] + LENGTH_EPSILON * conduits.length_km[rows]
    return conduits.build_view(
        rows,
        w,
        {"w": w, "risk": conduits.tenants[rows].astype(float)},
        cache_key=("augment", isp),
    )


def improvement_curve(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    isp: str,
    max_k: int = 10,
    candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
    driver="greedy",
    driver_seed: int = 0,
    **driver_params,
) -> AugmentationResult:
    """§5.2 augmentation for one provider under a pluggable optimizer.

    The default *driver* is the paper's greedy search: each step scores
    candidates by the exposure drop of rerouting the provider's links
    with the candidate added, applies the best, and measures exactly.
    On the routing substrate the step is one batched Dijkstra plus
    vectorized scoring.

    *driver* may be any name registered in
    :data:`repro.mitigation.drivers.DRIVERS` (``greedy``, ``anneal``,
    ``evolutionary``, ``random``) or a :class:`~repro.mitigation.drivers.
    Driver` instance; *driver_seed* and extra keyword parameters are
    forwarded to the driver constructor.  Every driver is deterministic
    for a fixed seed.
    """
    from repro.mitigation.drivers import (
        AugmentationEnv,
        make_driver,
        run_driver,
    )

    env = AugmentationEnv(
        fiber_map,
        network,
        isp,
        max_k=max_k,
        candidates=candidates,
    )
    return run_driver(env, make_driver(driver, seed=driver_seed, **driver_params))


def improvement_curves(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    isps: Sequence[str],
    max_k: int = 10,
    candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
    driver="greedy",
    driver_seed: int = 0,
    **driver_params,
) -> Dict[str, AugmentationResult]:
    """Figure 11: the improvement curve for every provider.

    The candidate set is computed once and shared.  Results keep
    first-seen *isps* order; duplicate provider names collapse to one
    entry instead of silently dropping the extra work.
    """
    if not isinstance(driver, str):
        # A driver instance carries search state; sharing one across
        # providers would leak plans between searches.
        raise TypeError(
            "improvement_curves takes a driver *name* so each provider "
            f"gets a fresh search, got {driver!r}"
        )
    if candidates is None:
        candidates = candidate_new_edges(fiber_map, network)
    return {
        isp: improvement_curve(
            fiber_map,
            network,
            isp,
            max_k=max_k,
            candidates=candidates,
            driver=driver,
            driver_seed=driver_seed,
            **driver_params,
        )
        for isp in dict.fromkeys(isps)
    }
