"""Figure 9: conduit-sharing CDF, physical map vs traceroute-overlaid.

Paper: when traffic is considered, shared risk only grows — traceroute
naming reveals providers beyond the map's tenants (e.g. 13 additional
ISPs on the Portland-Seattle conduit, which the map listed at 18).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_cdf
from repro.risk.traffic import TrafficRiskReport, traffic_risk_report
from repro.scenario import Scenario


@dataclass(frozen=True)
class Fig9Result:
    report: TrafficRiskReport


#: Scenario stages this experiment reads (enforced by the runner).
requires = ("overlay", "risk_matrix")


def run(scenario: Scenario) -> Fig9Result:
    return Fig9Result(
        report=traffic_risk_report(scenario.risk_matrix, scenario.overlay)
    )


def format_result(result: Fig9Result) -> str:
    report = result.report
    physical = format_cdf(
        [(k, f) for k, f in report.cdf_physical],
        title="Physical map only (ISPs sharing a conduit)",
    )
    overlaid = format_cdf(
        [(k, f) for k, f in report.cdf_with_traffic],
        title="Traceroute overlaid on physical map",
    )
    return (
        "Figure 9: conduit sharing before/after traffic overlay\n\n"
        f"{physical}\n\n{overlaid}\n\n"
        f"conduits with providers inferred beyond the map: "
        f"{report.conduits_with_new_isps}\n"
        f"max additional providers on one conduit: "
        f"{report.max_additional_isps} (paper: 13 on Portland-Seattle)"
    )
