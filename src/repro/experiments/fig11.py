"""Figure 11: improvement ratio vs number of added conduits (k = 1..10).

Paper: good improvement for providers with small US footprints (Telia,
Tata, ...), very little for infrastructure-rich Level 3, CenturyLink and
Cogent, and no improvement for Suddenlink (it depends on other
providers' trunks to reach its scattered markets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.analysis.report import format_table
from repro.mitigation.augmentation import (
    AugmentationResult,
    candidate_new_edges,
    improvement_curves,
)
from repro.scenario import Scenario


@dataclass(frozen=True)
class Fig11Result:
    results: Dict[str, AugmentationResult]
    max_k: int
    num_candidates: int


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("constructed_map", "ground_truth")


def run(
    scenario: Scenario,
    max_k: int = 10,
    isps: Optional[Sequence[str]] = None,
    driver: str = "greedy",
    driver_seed: int = 0,
) -> Fig11Result:
    fiber_map = scenario.constructed_map
    network = scenario.network
    candidates = candidate_new_edges(fiber_map, network)
    chosen = list(isps) if isps is not None else list(scenario.isps)
    results = improvement_curves(
        fiber_map,
        network,
        chosen,
        max_k=max_k,
        candidates=candidates,
        driver=driver,
        driver_seed=driver_seed,
    )
    return Fig11Result(
        results=results, max_k=max_k, num_candidates=len(candidates)
    )


def format_result(result: Fig11Result) -> str:
    ks = list(range(1, result.max_k + 1))
    rows = []
    for isp in sorted(result.results):
        r = result.results[isp]
        rows.append(
            [isp] + [f"{r.improvement_ratio(k):.3f}" for k in ks]
        )
    table = format_table(
        ["ISP"] + [f"k={k}" for k in ks],
        rows,
        title="Figure 11: improvement ratio after k added conduits",
    )
    final = sorted(
        (
            (isp, r.improvement_ratio(result.max_k))
            for isp, r in result.results.items()
        ),
        key=lambda kv: -kv[1],
    )
    best = ", ".join(f"{i} ({v:.2f})" for i, v in final[:3])
    worst = ", ".join(f"{i} ({v:.2f})" for i, v in final[-3:])
    return (
        f"{table}\ncandidate unused-ROW edges: {result.num_candidates}\n"
        f"largest gains: {best}\nsmallest gains: {worst}\n"
        "(paper: Telia/Tata gain most; Level 3/CenturyLink/Cogent least; "
        "Suddenlink none)"
    )
