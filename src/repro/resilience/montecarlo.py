"""Random-cut studies and targeted attacks.

How much worse is an adversary who reads the map than a random backhoe?
The targeted attack severs the most-shared rights-of-way first (the
"How to Destroy the Internet" scenario of the paper's reference [40]);
the random study samples ROW cuts uniformly.  Comparing the two
quantifies the security implication the paper raises in §4 ("certain
metrics ... have associated security implications").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fibermap.elements import FiberMap
from repro.perf.substrate import UnionFind, substrate_for
from repro.resilience.cuts import CutEvent, edge_cut
from repro.resilience.impact import probes_crossing
from repro.risk.matrix import RiskMatrix
from repro.traceroute.overlay import TrafficOverlay
from repro.transport.network import EdgeKey


@dataclass(frozen=True)
class AttackResult:
    """Cumulative damage as cuts accumulate."""

    #: Cut events in the order applied.
    events: Tuple[CutEvent, ...]
    #: After the i-th cut: total POP pairs disconnected across providers.
    cumulative_disconnected: Tuple[int, ...]
    #: After the i-th cut: providers with at least one disconnected pair.
    cumulative_isps_harmed: Tuple[int, ...]
    #: Probe traffic crossing each cut (0 without an overlay).
    probes_affected: Tuple[int, ...]


def _apply_sequence(
    fiber_map: FiberMap,
    edges: Sequence[EdgeKey],
    overlay: Optional[TrafficOverlay],
) -> AttackResult:
    """Cumulative-cut assessment via offline decremental connectivity.

    Cuts only ever remove conduits, so the cumulative step sequence is
    processed **in reverse** per provider: start from the footprint that
    survives every cut, then union conduit rows back in as steps rewind.
    Each provider therefore costs one union-find sweep over its rows
    instead of one shortest-path solve per hit link per step.
    """
    conduits = substrate_for(fiber_map)
    traffic = overlay.traffic() if overlay is not None else None
    events: List[CutEvent] = []
    death_step: Dict[int, int] = {}
    running_tenants: set = set()
    step_tenants: List[set] = []
    probes: List[int] = []
    for step, edge in enumerate(edges):
        event = edge_cut(fiber_map, *edge)
        events.append(event)
        for cid in event.conduit_ids:
            row = conduits.row_of.get(cid)
            if row is not None:
                death_step.setdefault(row, step)
            running_tenants |= fiber_map.conduit(cid).tenants
        step_tenants.append(set(running_tenants))
        probes.append(
            probes_crossing(traffic, event.conduit_ids)
            if traffic is not None
            else 0
        )
    num_steps = len(edges)
    n = len(conduits.nodes)
    disconnected: List[Dict[str, int]] = [{} for _ in range(num_steps)]
    for isp in sorted(running_tenants):
        rows = [int(r) for r in conduits.rows_for_isp(isp)]
        link_info: List[Tuple[int, Tuple[str, str]]] = []
        first_step = num_steps
        for link in fiber_map.links_of(isp):
            hit = min(
                (
                    death_step[conduits.row_of[cid]]
                    for cid in link.conduit_ids
                    if conduits.row_of.get(cid) in death_step
                ),
                default=None,
            )
            if hit is not None:
                link_info.append((hit, link.endpoints))
                first_step = min(first_step, hit)
        if not link_info:
            continue
        union = UnionFind(n)
        incident = [0] * n
        def add_row(row: int) -> None:
            ia = int(conduits.cu[row])
            ib = int(conduits.cv[row])
            incident[ia] += 1
            incident[ib] += 1
            union.union(ia, ib)
        revive: Dict[int, List[int]] = {}
        for row in rows:
            died = death_step.get(row)
            if died is None:
                add_row(row)
            else:
                revive.setdefault(died, []).append(row)
        for k in range(num_steps - 1, first_step - 1, -1):
            count = 0
            for hit, (a, b) in link_info:
                if hit > k:
                    continue
                ia = conduits.index[a]
                ib = conduits.index[b]
                if (
                    incident[ia] == 0
                    or incident[ib] == 0
                    or not union.connected(ia, ib)
                ):
                    count += 1
            disconnected[k][isp] = count
            for row in revive.get(k, ()):
                add_row(row)
    cumulative_disconnected = []
    cumulative_isps = []
    for k in range(num_steps):
        per_isp = [
            disconnected[k].get(isp, 0) for isp in sorted(step_tenants[k])
        ]
        cumulative_disconnected.append(sum(per_isp))
        cumulative_isps.append(sum(1 for c in per_isp if c > 0))
    return AttackResult(
        events=tuple(events),
        cumulative_disconnected=tuple(cumulative_disconnected),
        cumulative_isps_harmed=tuple(cumulative_isps),
        probes_affected=tuple(probes),
    )


def targeted_attack(
    fiber_map: FiberMap,
    matrix: RiskMatrix,
    cuts: int = 5,
    overlay: Optional[TrafficOverlay] = None,
) -> AttackResult:
    """Sever the most-shared rights-of-way, worst first."""
    return _apply_sequence(
        fiber_map, _targeted_edges(fiber_map, matrix, cuts), overlay
    )


def _targeted_edges(
    fiber_map: FiberMap, matrix: RiskMatrix, cuts: int
) -> List[EdgeKey]:
    """The *cuts* most-shared rights-of-way, worst first."""
    if cuts <= 0:
        raise ValueError("cuts must be positive")
    by_edge: Dict[EdgeKey, int] = {}
    for conduit in fiber_map.conduits.values():
        count = matrix.sharing_count(conduit.conduit_id)
        by_edge[conduit.edge] = max(by_edge.get(conduit.edge, 0), count)
    ranked = sorted(by_edge.items(), key=lambda kv: (-kv[1], kv[0]))
    return [edge for edge, _ in ranked[:cuts]]


def random_cut_study(
    fiber_map: FiberMap,
    cuts: int = 5,
    trials: int = 10,
    seed: int = 13,
    overlay: Optional[TrafficOverlay] = None,
) -> List[AttackResult]:
    """Repeated random ROW cut sequences, for baseline comparison."""
    return [
        _apply_sequence(fiber_map, edges, overlay)
        for edges in _random_edge_sequences(fiber_map, cuts, trials, seed)
    ]


def _random_edge_sequences(
    fiber_map: FiberMap, cuts: int, trials: int, seed: int
) -> List[List[EdgeKey]]:
    """*trials* uniform samples of *cuts* rights-of-way each."""
    if cuts <= 0 or trials <= 0:
        raise ValueError("cuts and trials must be positive")
    rng = random.Random(seed)
    all_edges = sorted({c.edge for c in fiber_map.conduits.values()})
    return [
        rng.sample(all_edges, min(cuts, len(all_edges)))
        for _ in range(trials)
    ]


def mean_final_disconnected(results: Sequence[AttackResult]) -> float:
    """Average final disconnected-pair count over trials."""
    if not results:
        return 0.0
    return sum(r.cumulative_disconnected[-1] for r in results) / len(results)
