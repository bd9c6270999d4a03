"""§2 ground-truth invariants of the one deployment process, on both map
families over random seeds.

Every family deploys through :func:`repro.fibermap.synthesis.deploy_links`
and differs only in its :class:`DeploymentRules`.  Whatever the seed,
the result must be a consistent physical map: each link rides one
conduit on every edge of its city path, a conduit's tenants are exactly
the providers whose links use it, no two conduits share a right-of-way,
and no edge holds more conduits than the family's rules allow.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.isps import ISPS
from repro.families.global2023 import GLOBAL_ISPS, GLOBAL_RULES
from repro.fibermap.synthesis import US_RULES, synthesize_ground_truth
from repro.transport.network import canonical_edge

SEEDS = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Each family's carriers and rules, named here rather than read off
#: the scenario so the test pins what the family declares.
DEPLOYMENTS = {
    "us2015": (ISPS, US_RULES),
    "global2023": (GLOBAL_ISPS, GLOBAL_RULES),
}


def assert_deployment_invariants(truth) -> None:
    fiber_map = truth.fiber_map
    users = defaultdict(set)
    for link in fiber_map.links.values():
        hops = list(zip(link.city_path, link.city_path[1:]))
        assert len(link.conduit_ids) == len(hops)
        for (a, b), conduit_id in zip(hops, link.conduit_ids):
            assert fiber_map.conduit(conduit_id).edge == canonical_edge(a, b)
            users[conduit_id].add(link.isp)
    conduits = list(fiber_map.conduits.values())
    assert set(users) == {c.conduit_id for c in conduits}
    for conduit in conduits:
        assert set(conduit.tenants) == users[conduit.conduit_id]
        assert truth.registry.row(conduit.row_id).edge == conduit.edge
    rows = [c.row_id for c in conduits]
    assert len(set(rows)) == len(rows)
    per_edge = Counter(c.edge for c in conduits)
    assert max(per_edge.values()) <= truth.rules.max_parallel


def _synthesize(family_scenario, seed):
    profiles, rules = DEPLOYMENTS[family_scenario.config.family]
    return synthesize_ground_truth(
        seed, family_scenario.network, profiles, rules
    )


class TestDeploymentInvariants:
    def test_family_ground_truth(self, family_scenario):
        truth = family_scenario.ground_truth
        assert truth.rules is DEPLOYMENTS[family_scenario.config.family][1]
        assert_deployment_invariants(truth)

    def test_us_parallel_bound_is_reached(self, ground_truth):
        """The paper's parallel deployments exist on the US map, so the
        max-parallel check above is not vacuous there."""
        conduits = ground_truth.fiber_map.conduits.values()
        per_edge = Counter(c.edge for c in conduits)
        assert max(per_edge.values()) == US_RULES.max_parallel

    @SEEDS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random_seeds(self, family_scenario, seed):
        assert_deployment_invariants(_synthesize(family_scenario, seed))
