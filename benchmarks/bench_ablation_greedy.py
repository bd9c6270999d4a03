"""Ablation: greedy estimated gain vs exhaustive exact gain (§5.2, k=1).

The Figure 11 optimizer scores candidates with a two-Dijkstra estimate.
For k=1 we can afford the exact answer (apply every candidate, measure
the exposure drop); this ablation quantifies how much the estimate gives
up.
"""

from repro.analysis.report import format_table
from repro.mitigation.augmentation import (
    candidate_new_edges,
    improvement_curve,
)
from tests.oracles.mitigation import _FootprintRouter

ISPS = ("Tata", "NTT", "TeliaSonera", "Sprint")


def _exact_best(fiber_map, network, isp, candidates):
    """Exhaustive k=1: apply each candidate and measure exactly."""
    base_router = _FootprintRouter(fiber_map, isp)
    demands = sorted({l.endpoints for l in fiber_map.links_of(isp)})
    footprint = set(base_router.graph.nodes)
    baseline = base_router.route_exposure(demands)
    best = baseline
    for edge, length in candidates:
        if edge[0] not in footprint or edge[1] not in footprint:
            continue
        router = _FootprintRouter(fiber_map, isp)
        router.add_private_conduit(edge, length)
        after = router.route_exposure(demands)
        if after < best:
            best = after
    if baseline <= 0:
        return 0.0
    return 1.0 - best / baseline


def _sweep(scenario):
    fiber_map = scenario.constructed_map
    network = scenario.network
    candidates = candidate_new_edges(fiber_map, network)
    rows = []
    for isp in ISPS:
        greedy = improvement_curve(
            fiber_map, network, isp, max_k=1, candidates=candidates
        ).improvement_ratio(1)
        exact = _exact_best(fiber_map, network, isp, candidates)
        rows.append((isp, f"{greedy:.3f}", f"{exact:.3f}"))
    return rows


def test_ablation_greedy(benchmark, scenario, report_output):
    rows = benchmark.pedantic(_sweep, args=(scenario,), rounds=1, iterations=1)
    text = format_table(
        ("ISP", "greedy estimate k=1", "exhaustive exact k=1"),
        rows,
        title="Ablation: greedy vs exhaustive candidate selection (k=1)",
    )
    report_output("ablation_greedy", text)
