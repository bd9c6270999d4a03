"""Extension experiment: targeted attack vs random cuts.

Quantifies §4's security concern: an adversary who can read the conduit
map and sever the most-shared rights-of-way does far more damage per
cut than random backhoe events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import format_table
from repro.resilience.montecarlo import (
    AttackResult,
    mean_final_disconnected,
    random_cut_study,
    targeted_attack,
)
from repro.resilience.traffic_shift import TrafficShiftReport, traffic_shift
from repro.scenario import Scenario

DEFAULT_CUTS = 6
DEFAULT_TRIALS = 8


@dataclass(frozen=True)
class ExtResilienceResult:
    attack: AttackResult
    random_runs: Tuple[AttackResult, ...]
    #: Traffic consequence of the first (worst) cut.
    first_cut_shift: TrafficShiftReport

    @property
    def advantage(self) -> float:
        """How many times worse the informed adversary is."""
        baseline = mean_final_disconnected(self.random_runs)
        if baseline <= 0:
            return float("inf")
        return self.attack.cumulative_disconnected[-1] / baseline


#: Scenario stages this experiment reads (enforced by the runner).
requires = (
    "campaign", "constructed_map", "overlay", "risk_matrix", "topology",
)


def run(scenario: Scenario, cuts: int = DEFAULT_CUTS,
        trials: int = DEFAULT_TRIALS) -> ExtResilienceResult:
    fiber_map = scenario.constructed_map
    attack = targeted_attack(
        fiber_map, scenario.risk_matrix, cuts=cuts, overlay=scenario.overlay,
    )
    random_runs = tuple(
        random_cut_study(fiber_map, cuts=cuts, trials=trials, seed=3)
    )
    shift = traffic_shift(
        scenario.topology, attack.events[0], scenario.campaign,
        max_traces=1500,
    )
    return ExtResilienceResult(
        attack=attack, random_runs=random_runs, first_cut_shift=shift
    )


def format_result(result: ExtResilienceResult) -> str:
    attack = result.attack
    rows: List[Tuple] = []
    for i, event in enumerate(attack.events):
        random_mean = sum(
            r.cumulative_disconnected[i] for r in result.random_runs
        ) / len(result.random_runs)
        rows.append(
            (
                i + 1,
                event.description.replace("right-of-way cut: ", ""),
                attack.cumulative_disconnected[i],
                attack.cumulative_isps_harmed[i],
                attack.probes_affected[i],
                f"{random_mean:.1f}",
            )
        )
    table = format_table(
        ("cut", "targeted ROW", "pairs disconnected", "ISPs harmed",
         "probes crossing", "random baseline"),
        rows,
        title="Extension: targeted attack on most-shared ROWs vs random cuts",
    )
    shift = result.first_cut_shift
    return (
        f"{table}\nfinal: targeted "
        f"{attack.cumulative_disconnected[-1]} vs random "
        f"{mean_final_disconnected(list(result.random_runs)):.1f} "
        f"disconnected POP pairs (x{result.advantage:.1f} advantage)\n"
        f"traffic shift of cut #1: {shift.affected_fraction:.1%} of traces "
        f"affected, mean +{shift.mean_inflation_ms:.2f} ms, "
        f"p95 +{shift.p95_inflation_ms:.2f} ms, "
        f"{shift.traces_blackholed} black-holed"
    )
