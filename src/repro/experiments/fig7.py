"""Figure 7: providers ranked by average conduit sharing.

Paper ordering: Suddenlink lowest (geographically diverse deployments),
then EarthLink and Level 3; Deutsche Telekom, NTT and XO use conduits
shared by the most other providers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.report import format_table
from repro.risk.metrics import IspRankRow, isp_ranking
from repro.scenario import Scenario

#: The paper's qualitative extremes.
PAPER_LOWEST = ("Suddenlink", "EarthLink", "Level 3")
PAPER_HIGHEST = ("Deutsche Telekom", "NTT", "XO")


@dataclass(frozen=True)
class Fig7Result:
    rows: Tuple[IspRankRow, ...]


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("risk_matrix",)


def run(scenario: Scenario) -> Fig7Result:
    return Fig7Result(rows=isp_ranking(scenario.risk_matrix))


def format_result(result: Fig7Result) -> str:
    table = format_table(
        ("rank", "ISP", "avg sharing", "stderr", "p25", "p75", "conduits"),
        [
            (
                i + 1,
                row.isp,
                f"{row.average:.2f}",
                f"{row.std_error:.2f}",
                f"{row.p25:.0f}",
                f"{row.p75:.0f}",
                row.num_conduits,
            )
            for i, row in enumerate(result.rows)
        ],
        title="Figure 7: ISPs by increasing average shared risk",
    )
    lowest = ", ".join(r.isp for r in result.rows[:3])
    highest = ", ".join(r.isp for r in result.rows[-3:])
    return (
        f"{table}\n"
        f"measured lowest: {lowest} (paper: {', '.join(PAPER_LOWEST)})\n"
        f"measured highest: {highest} (paper: {', '.join(PAPER_HIGHEST)})"
    )
