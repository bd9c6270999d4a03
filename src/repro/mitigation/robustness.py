"""The robustness-suggestion framework (§5.1).

For a provider and a heavily shared conduit it depends on, find the
alternate path between the conduit's endpoints — over existing conduits
only — that minimizes shared risk:

    OP(i, j) = argmin over paths P in E_A of SR(P)

where E_A is the set of all conduit paths and SR sums the tenant counts
of the conduits on the path.  Two metrics evaluate the suggestion
(Figure 10): **path inflation** (PI), the extra hops of the optimized
path over the original single conduit, and **shared-risk reduction**
(SRR), the drop from the original conduit's tenant count to the worst
tenant count along the optimized path.

The optimization is *ISP-independent* — the alternate path around a
conduit is a property of the conduit graph alone — so each conduit's
optimum is solved once per map on the shared routing substrate (see
:mod:`repro.perf.substrate`), with the conduit's exclusion as an edge
mask and weight override over the cached conduit view, and kept there
for every tenant, Figure 10 and every ``audit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fibermap.elements import FiberMap
from repro.perf.substrate import ConduitSubstrate, substrate_for
from repro.risk.matrix import RiskMatrix
from repro.risk.metrics import most_shared_conduits


@dataclass(frozen=True)
class SuggestionOutcome:
    """Optimization result for one (provider, conduit) pair."""

    isp: str
    conduit_id: str
    original_risk: int
    optimized_conduits: Tuple[str, ...]
    optimized_max_risk: int

    @property
    def path_inflation(self) -> int:
        """Extra conduit hops of the optimized path (original = 1 hop)."""
        return len(self.optimized_conduits) - 1

    @property
    def shared_risk_reduction(self) -> int:
        """Original tenant count minus the optimized path's worst count."""
        return self.original_risk - self.optimized_max_risk


@dataclass(frozen=True)
class RobustnessSuggestion:
    """Aggregated Figure 10 bars for one provider."""

    isp: str
    outcomes: Tuple[SuggestionOutcome, ...]

    def _values(self, attr: str) -> List[int]:
        return [getattr(o, attr) for o in self.outcomes]

    @property
    def max_pi(self) -> int:
        return max(self._values("path_inflation"), default=0)

    @property
    def min_pi(self) -> int:
        return min(self._values("path_inflation"), default=0)

    @property
    def avg_pi(self) -> float:
        values = self._values("path_inflation")
        return sum(values) / len(values) if values else 0.0

    @property
    def max_srr(self) -> int:
        return max(self._values("shared_risk_reduction"), default=0)

    @property
    def min_srr(self) -> int:
        return min(self._values("shared_risk_reduction"), default=0)

    @property
    def avg_srr(self) -> float:
        values = self._values("shared_risk_reduction")
        return sum(values) / len(values) if values else 0.0


def _optimized_path(
    fiber_map: FiberMap, conduit_id: str
) -> Optional[Tuple[Tuple[str, ...], int]]:
    """The min-shared-risk alternate path around one conduit, as
    ``(conduit_ids, max_risk)``: solved once per conduit and kept on the
    map's substrate (:meth:`~repro.perf.substrate.ConduitSubstrate.optimum`)."""
    cs = substrate_for(fiber_map)
    return cs.optimum(conduit_id, partial(_solve_optimum, cs, conduit_id))


def _solve_optimum(
    cs: ConduitSubstrate, conduit_id: str
) -> Optional[Tuple[Tuple[str, ...], int]]:
    """One CSR Dijkstra over the cached collapsed conduit view, with the
    conduit's exclusion as an edge mask and a ``risk`` override."""
    view = cs.conduit_view()
    failure = cs.exclusion(conduit_id)
    mask = failure.edge_mask
    row = cs.row_of[conduit_id]
    a, b = cs.nodes[cs.cu[row]], cs.nodes[cs.cv[row]]
    if not view.present(a, mask) or not view.present(b, mask):
        return None
    path = view.shortest_path(
        a, b, "risk", mask, failure.override(view, "risk", cs.tenants)
    )
    if path is None:
        return None
    rows = failure.conduit_rows(view, view.path_edges(path))
    return tuple(cs.cids[r] for r in rows), int(cs.tenants[rows].max())


def _suggestion_for_isp(
    fiber_map: FiberMap,
    isp: str,
    conduit_ids: Sequence[str],
    solved: Dict[str, Optional[Tuple[Tuple[str, ...], int]]],
) -> RobustnessSuggestion:
    """Assemble one provider's Figure 10 bars from shared solves."""
    outcomes = []
    for conduit_id in conduit_ids:
        conduit = fiber_map.conduit(conduit_id)
        if isp not in conduit.tenants:
            continue
        result = solved[conduit_id]
        if result is None:
            continue
        conduits, max_risk = result
        outcomes.append(
            SuggestionOutcome(
                isp=isp,
                conduit_id=conduit_id,
                original_risk=conduit.num_tenants,
                optimized_conduits=conduits,
                optimized_max_risk=max_risk,
            )
        )
    return RobustnessSuggestion(isp=isp, outcomes=tuple(outcomes))


def _solve_conduits(
    fiber_map: FiberMap,
    conduit_ids: Sequence[str],
) -> Dict[str, Optional[Tuple[Tuple[str, ...], int]]]:
    """Each conduit's optimum, solved once."""
    return {
        cid: _optimized_path(fiber_map, cid)
        for cid in dict.fromkeys(conduit_ids)
    }


def optimize_isp_around_conduits(
    fiber_map: FiberMap,
    matrix: RiskMatrix,
    isp: str,
    conduit_ids: Optional[Sequence[str]] = None,
    top: int = 12,
) -> RobustnessSuggestion:
    """Run the §5.1 optimization for one provider.

    By default the targets are the *top* most heavily shared conduits the
    provider actually occupies (the paper's 12 highly shared links).
    """
    if conduit_ids is None:
        shared = most_shared_conduits(matrix, top=top)
        conduit_ids = [cid for cid, _ in shared]
    relevant = [
        cid for cid in conduit_ids
        if isp in fiber_map.conduit(cid).tenants
    ]
    solved = _solve_conduits(fiber_map, relevant)
    return _suggestion_for_isp(fiber_map, isp, conduit_ids, dict(solved))


def optimize_all_isps(
    fiber_map: FiberMap,
    matrix: RiskMatrix,
    top: int = 12,
) -> Dict[str, RobustnessSuggestion]:
    """Figure 10: the framework applied to every provider.

    Each target conduit is solved exactly once and the result shared
    across all its tenants (the per-(ISP, conduit) rebuild of the old
    implementation did ``len(isps)`` times the work for identical
    answers).
    """
    shared = [cid for cid, _ in most_shared_conduits(matrix, top=top)]
    solved = _solve_conduits(fiber_map, shared)
    return {
        isp: _suggestion_for_isp(fiber_map, isp, shared, solved)
        for isp in matrix.isps
    }
