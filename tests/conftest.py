"""Shared fixtures: one scenario per test session.

Building the world is the expensive part (~10 s); every test that needs
a realistic map shares the session-scoped scenario below, which uses a
reduced traceroute campaign to keep the suite fast.
"""

from __future__ import annotations

import pytest

from repro.scenario import Scenario, ScenarioConfig

#: Campaign size for the test scenario: large enough for stable
#: orderings in the traffic analyses, small enough to stay fast.
TEST_CAMPAIGN_TRACES = 3000

#: Small campaign for the global-family scenario.
GLOBAL_TEST_TRACES = 400


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    return Scenario(seed=2015, campaign_traces=TEST_CAMPAIGN_TRACES)


@pytest.fixture(scope="session")
def global_scenario() -> Scenario:
    return Scenario(
        config=ScenarioConfig(
            seed=2023, campaign_traces=GLOBAL_TEST_TRACES,
            family="global2023",
        )
    )


@pytest.fixture(params=["us2015", "global2023"])
def family_scenario(request) -> Scenario:
    """The session scenario of each map family."""
    name = "scenario" if request.param == "us2015" else "global_scenario"
    return request.getfixturevalue(name)


@pytest.fixture(scope="session")
def ground_truth(scenario):
    return scenario.ground_truth


@pytest.fixture(scope="session")
def network(scenario):
    return scenario.network


@pytest.fixture(scope="session")
def built_map(scenario):
    return scenario.constructed_map


@pytest.fixture(scope="session")
def construction_report(scenario):
    return scenario.construction_report


@pytest.fixture(scope="session")
def risk_matrix(scenario):
    return scenario.risk_matrix


@pytest.fixture(scope="session")
def topology(scenario):
    return scenario.topology


@pytest.fixture(scope="session")
def overlay(scenario):
    return scenario.overlay
