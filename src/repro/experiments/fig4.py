"""Figure 4: fraction of physical links co-located with transportation.

Paper findings: a significant fraction of links are co-located with
roadways; road co-location beats rail; the road-or-rail union is the
highest of all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.geography import GeographyReport, geography_report
from repro.analysis.report import format_histogram
from repro.scenario import Scenario


@dataclass(frozen=True)
class Fig4Result:
    report: GeographyReport
    mean_road: float
    mean_rail: float
    mean_union: float
    road_beats_rail: float


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("constructed_map", "ground_truth")


def run(scenario: Scenario, buffer_km: float = 15.0) -> Fig4Result:
    report = geography_report(
        scenario.constructed_map, scenario.network, buffer_km=buffer_km
    )
    return Fig4Result(
        report=report,
        mean_road=report.mean_fraction("road"),
        mean_rail=report.mean_fraction("rail"),
        mean_union=report.mean_fraction("road_or_rail"),
        road_beats_rail=report.road_beats_rail_fraction,
    )


def format_result(result: Fig4Result) -> str:
    lines = ["Figure 4: co-location of conduits with transportation"]
    for kind, label in (
        ("road", "Road"),
        ("rail", "Rail"),
        ("road_or_rail", "Rail and Road"),
    ):
        edges, counts = result.report.histogram(kind)
        lines.append("")
        lines.append(
            format_histogram(edges, counts, title=f"{label} co-location fraction")
        )
    lines.append("")
    lines.append(
        f"mean fractions: road={result.mean_road:.2f} "
        f"rail={result.mean_rail:.2f} union={result.mean_union:.2f}"
    )
    lines.append(
        f"conduits more road- than rail-co-located: "
        f"{result.road_beats_rail:.0%} (paper: 'vast majority')"
    )
    return "\n".join(lines)
