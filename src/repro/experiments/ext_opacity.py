"""Extension experiment: how often logical diversity is an illusion."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.routing.opacity import OpacityStudy, opacity_study
from repro.scenario import Scenario

#: Provider pairs an operator would plausibly dual-home across.
STUDIED_ISPS = ("Level 3", "AT&T", "Sprint", "Verizon", "CenturyLink",
                "Cogent")


@dataclass(frozen=True)
class ExtOpacityResult:
    study: OpacityStudy


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("constructed_map",)


def run(scenario: Scenario, max_pairs: int = 25) -> ExtOpacityResult:
    return ExtOpacityResult(
        study=opacity_study(
            scenario.constructed_map, STUDIED_ISPS, max_pairs=max_pairs
        )
    )


def format_result(result: ExtOpacityResult) -> str:
    study = result.study
    worst = sorted(
        study.cases, key=lambda c: (-len(c.shared_groups), c.endpoints)
    )[:10]
    table = format_table(
        ("city pair", "providers", "shared trenches", "same conduit"),
        [
            (
                f"{c.endpoints[0]} - {c.endpoints[1]}",
                f"{c.isp_a} / {c.isp_b}",
                len(c.shared_groups),
                "yes" if c.shared_conduits else "no",
            )
            for c in worst
        ],
        title="Extension: dual-homed pairs with the most hidden shared risk",
    )
    return (
        f"{table}\n"
        f"cases checked: {study.total}; logically diverse but physically "
        f"shared: {study.deceived_count} ({study.deceived_fraction:.0%}); "
        f"sharing an actual conduit: {study.same_conduit_count}\n"
        f"mean hidden shared trenches per dual-homed pair: "
        f"{study.mean_shared_groups():.1f}\n"
        "(the §6.1 claim: conduit sharing is opaque to higher layers)"
    )
