"""Declared experiment requirements, enforced end to end.

Every experiment runs against a :class:`RestrictedScenario` limited to
exactly its declared ``requires`` — so an undeclared stage access is a
loud error, not a silent extra build — and the runner materializes only
the declared subgraph (the flagship check: fig4 never builds the
traceroute campaign).
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    RestrictedScenario,
    UndeclaredStageAccessError,
    run_experiment,
)
from repro.families.stages import STAGE_OF_ATTRIBUTE
from repro.scenario import Scenario

ALL_IDS = sorted(EXPERIMENTS)


class TestDeclarations:
    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_every_experiment_declares_requires(self, experiment_id):
        experiment = EXPERIMENTS[experiment_id]
        assert experiment.requires, experiment_id
        for stage in experiment.requires:
            assert stage in set(STAGE_OF_ATTRIBUTE.values()), stage

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_runs_under_exactly_declared_stages(
        self, experiment_id, scenario
    ):
        """The strictest check: the experiment's ``run`` sees a view
        exposing only its declared stages and must complete."""
        experiment = EXPERIMENTS[experiment_id]
        view = RestrictedScenario(
            scenario, experiment_id, frozenset(experiment.requires)
        )
        data = experiment.run(view)
        assert experiment.format_result(data)


class TestEnforcement:
    def test_undeclared_access_raises_loudly(self, scenario):
        view = RestrictedScenario(scenario, "probe", frozenset())
        with pytest.raises(UndeclaredStageAccessError, match="probe"):
            view.risk_matrix
        # Derived views are guarded through their backing stage too.
        with pytest.raises(
            UndeclaredStageAccessError, match="ground_truth"
        ):
            view.network

    def test_non_stage_attributes_pass_through(self, scenario):
        view = RestrictedScenario(scenario, "probe", frozenset())
        assert view.seed == scenario.seed
        assert view.config is scenario.config
        assert view.campaign_traces == scenario.campaign_traces

    def test_declared_access_allowed(self, scenario):
        view = RestrictedScenario(
            scenario, "probe", frozenset({"ground_truth"})
        )
        assert view.ground_truth is scenario.ground_truth
        assert view.isps == scenario.isps


class TestMinimalSubgraph:
    def test_fig4_never_builds_the_campaign(self):
        scenario = Scenario(seed=2015, campaign_traces=10)
        run_experiment("fig4", scenario)
        built = scenario.graph.materialized()
        assert "campaign" not in built
        assert "probe_engine" not in built
        assert "overlay" not in built
        assert "constructed_map" in built

    def test_fig2_3_builds_only_ground_truth(self):
        scenario = Scenario(seed=2015, campaign_traces=10)
        run_experiment("fig2_3", scenario)
        assert scenario.graph.materialized() == ("ground_truth",)
