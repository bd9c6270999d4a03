"""Figure 10: path inflation and shared-risk reduction per provider.

Paper: optimizing the twelve most heavily shared conduits costs on
average one to two extra conduit hops and yields nearly all of the
achievable shared-risk reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.report import format_table
from repro.mitigation.robustness import RobustnessSuggestion, optimize_all_isps
from repro.scenario import Scenario


@dataclass(frozen=True)
class Fig10Result:
    suggestions: Dict[str, RobustnessSuggestion]


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("constructed_map", "risk_matrix")


def run(scenario: Scenario, top: int = 12) -> Fig10Result:
    return Fig10Result(
        suggestions=optimize_all_isps(
            scenario.constructed_map,
            scenario.risk_matrix,
            top=top,
        )
    )


def format_result(result: Fig10Result) -> str:
    rows = []
    for isp in sorted(result.suggestions):
        s = result.suggestions[isp]
        if not s.outcomes:
            continue
        rows.append(
            (
                isp,
                len(s.outcomes),
                s.min_pi,
                f"{s.avg_pi:.1f}",
                s.max_pi,
                s.min_srr,
                f"{s.avg_srr:.1f}",
                s.max_srr,
            )
        )
    table = format_table(
        ("ISP", "targets", "minPI", "avgPI", "maxPI", "minSRR", "avgSRR", "maxSRR"),
        rows,
        title="Figure 10: robustness suggestion over the 12 most-shared conduits",
    )
    avg_pi = [float(r[3]) for r in rows]
    overall = sum(avg_pi) / len(avg_pi) if avg_pi else 0.0
    return (
        f"{table}\noverall average path inflation: {overall:.1f} hops "
        "(paper: 'between one and two conduits')"
    )
