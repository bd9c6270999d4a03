"""Table 1: nodes and long-haul links per step-1 provider.

Paper values: AT&T 25/57, Comcast 26/71, Cogent 69/84, EarthLink
248/370, Integra 27/36, Level 3 240/336, Suddenlink 39/42, Verizon
116/151, Zayo 98/111 — 267 unique nodes, 1258 links, 512 conduits in the
initial map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.report import format_table
from repro.fibermap.pipeline import Table1Row
from repro.scenario import Scenario

#: The paper's Table 1, for side-by-side reporting.
PAPER_TABLE1: Dict[str, Tuple[int, int]] = {
    "AT&T": (25, 57),
    "Comcast": (26, 71),
    "Cogent": (69, 84),
    "EarthLink": (248, 370),
    "Integra": (27, 36),
    "Level 3": (240, 336),
    "Suddenlink": (39, 42),
    "Verizon": (116, 151),
    "Zayo": (98, 111),
}


@dataclass(frozen=True)
class Table1Result:
    rows: Tuple[Table1Row, ...]
    total_links: int


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("constructed_map",)


def run(scenario: Scenario) -> Table1Result:
    report = scenario.construction_report
    rows = tuple(sorted(report.table1, key=lambda r: r.isp))
    return Table1Result(
        rows=rows, total_links=sum(r.num_links for r in rows)
    )


def format_result(result: Table1Result) -> str:
    body = []
    for row in result.rows:
        paper_nodes, paper_links = PAPER_TABLE1.get(row.isp, ("-", "-"))
        body.append(
            (row.isp, row.num_nodes, paper_nodes, row.num_links, paper_links)
        )
    table = format_table(
        ("ISP", "nodes", "paper", "links", "paper"),
        body,
        title="Table 1: step-1 providers (measured vs paper)",
    )
    return f"{table}\ntotal links: {result.total_links} (paper: 1258)"
