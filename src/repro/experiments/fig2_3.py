"""Figures 2 and 3: the roadway and railway infrastructure layers.

The paper plots the NationalAtlas layers; the measurable equivalents of
our substitute corridor layers are their extent: corridor counts, edge
counts, and total mileage per infrastructure kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.report import format_table
from repro.data.corridors import CORRIDORS, GRADE_SECONDARY
from repro.scenario import Scenario


@dataclass(frozen=True)
class LayerSummary:
    kind: str
    corridors: int
    edges: int
    total_km: float


@dataclass(frozen=True)
class Fig23Result:
    layers: Tuple[LayerSummary, ...]
    secondary_corridors: int


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("ground_truth",)


def run(scenario: Scenario) -> Fig23Result:
    network = scenario.network
    layers = []
    for kind in ("road", "rail", "pipeline"):
        edges = network.edges_of_kind(kind)
        primary = [c for c in CORRIDORS if c.kind == kind]
        layers.append(
            LayerSummary(
                kind=kind,
                corridors=len(primary),
                edges=len(edges),
                total_km=network.total_km(kind),
            )
        )
    secondary = {
        name
        for record in network.edges()
        for name, grade in record.grade_of.items()
        if grade == GRADE_SECONDARY
    }
    return Fig23Result(
        layers=tuple(layers),
        secondary_corridors=len(secondary),
    )


def format_result(result: Fig23Result) -> str:
    table = format_table(
        ("kind", "named corridors", "graph edges", "total km"),
        [
            (l.kind, l.corridors, l.edges, round(l.total_km))
            for l in result.layers
        ],
        title="Figures 2-3: transportation infrastructure layers",
    )
    return (
        f"{table}\nsecondary (US-route grid) corridors: "
        f"{result.secondary_corridors}"
    )
