"""Figure 1: the constructed US long-haul map and its prominent features.

Paper: 273 nodes, 2411 links, 542 conduits; dense northeast/coastal
deployments; hubs at Denver and Salt Lake City; infrastructure absence
in the upper plains and four-corners regions; parallel deployments;
spurs along northern routes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.connectivity import ConnectivityReport, connectivity_report
from repro.analysis.report import format_table
from repro.scenario import Scenario

PAPER_STATS = (273, 2411, 542)


@dataclass(frozen=True)
class Fig1Result:
    report: ConnectivityReport


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("constructed_map",)


def run(scenario: Scenario) -> Fig1Result:
    return Fig1Result(report=connectivity_report(scenario.constructed_map))


def format_result(result: Fig1Result) -> str:
    report = result.report
    lines = [
        "Figure 1: constructed US long-haul fiber map",
        f"measured: {report.stats}   (paper: {PAPER_STATS[0]} nodes, "
        f"{PAPER_STATS[1]} links, {PAPER_STATS[2]} conduits)",
        f"connected: {report.connected}, conduit-graph diameter: "
        f"{report.diameter_hops} hops",
        f"parallel-deployment edges: {len(report.parallel_edges)}, "
        f"spur endpoints: {len(report.spurs)}",
        "",
        format_table(
            ("hub city", "conduit degree"),
            report.top_hubs,
            title="Long-haul hubs (conduit degree)",
        ),
        "",
        format_table(
            ("region", "conduit-km"),
            sorted(
                ((r, round(v)) for r, v in report.region_density.items()),
                key=lambda kv: -kv[1],
            ),
            title="Deployment density by region",
        ),
    ]
    return "\n".join(lines)
