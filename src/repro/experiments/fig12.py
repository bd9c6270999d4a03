"""Figure 12: propagation delay — existing paths vs ROW vs line of sight.

Paper: average delays of existing links often substantially exceed the
best link; ~65% of best paths are also the best ROW paths; the LOS-ROW
gap is under ~100 us for half the pairs but above 500 us for a quarter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_cdf
from repro.mitigation.latency import LatencyStudy, latency_study
from repro.scenario import Scenario


@dataclass(frozen=True)
class Fig12Result:
    study: LatencyStudy
    fraction_best_is_row_best: float
    gap_p50_ms: float
    gap_p75_ms: float
    mean_avg_over_best: float


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("constructed_map", "ground_truth")


def run(scenario: Scenario, max_pairs: int = 400) -> Fig12Result:
    study = latency_study(
        scenario.constructed_map,
        scenario.network,
        max_pairs=max_pairs,
        row_kinds=scenario.family.row_kinds[0],
    )
    p50, p75 = study.row_los_gap_percentiles((50.0, 75.0))
    ratios = [p.avg_ms / p.best_ms for p in study.pairs if p.best_ms > 0]
    return Fig12Result(
        study=study,
        fraction_best_is_row_best=study.fraction_best_is_row_best,
        gap_p50_ms=p50,
        gap_p75_ms=p75,
        mean_avg_over_best=sum(ratios) / len(ratios) if ratios else 0.0,
    )


def format_result(result: Fig12Result) -> str:
    study = result.study
    parts = ["Figure 12: one-way propagation delay CDFs (ms)"]
    for attr, label in (
        ("best_ms", "Best existing paths"),
        ("avg_ms", "Avg. of existing paths"),
        ("row_ms", "Best ROW paths"),
        ("los_ms", "LOS lower bound"),
    ):
        series = [(round(x, 3), f) for x, f in study.cdf(attr)]
        parts.append("")
        parts.append(format_cdf(series, title=label))
    parts.append("")
    parts.append(
        f"pairs studied: {len(study.pairs)}; "
        f"best == best-ROW: {result.fraction_best_is_row_best:.0%} (paper: ~65%)"
    )
    parts.append(
        f"ROW-LOS gap: p50={result.gap_p50_ms * 1000:.0f} us "
        f"(paper: <100 us), p75={result.gap_p75_ms * 1000:.0f} us "
        "(paper: >500 us)"
    )
    parts.append(
        f"avg-path / best-path delay ratio: {result.mean_avg_over_best:.2f}"
    )
    return "\n".join(parts)
