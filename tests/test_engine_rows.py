"""The §5.2 substrate engine solves each (state, source) pair once.

``_SubstrateEngine`` keeps the demand sources' Dijkstra rows of its
current view state: the exposure walk solves them, an estimate at the
same state reuses them and solves only the sources it adds, and
``apply``/``reset`` drop them.  This suite checks:

* at every greedy state, for every provider of both map families and
  of the randomized maps, the engine's exposure and estimate equal the
  former per-call solves (``tests/oracles/mitigation.py``);
* the stochastic drivers' plans and exposure trails at fixed seeds
  equal the values pinned before the rows were cached;
* the ``mitigation.augmentation.sources_solved`` counter: greedy Figure
  11 at seed 2015 solves ``|A ∪ B ∪ pool|`` sources per estimated state
  and ``|A|`` at a final unestimated one (A/B the demand endpoints,
  pool the candidates' endpoints), and a stochastic driver, which never
  estimates, solves only the demand sources of each measured state.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig11
from repro.mitigation.augmentation import candidate_new_edges, improvement_curve
from repro.mitigation.drivers import AugmentationEnv, GreedyDriver, _SubstrateEngine
from repro.obs.tracer import tracing
from tests.oracles.mitigation import (
    estimate_scores_reference,
    route_exposure_reference,
)
from tests.test_drivers import _synthetic_candidates
from tests.test_substrate import SEEDS, _random_fiber_map

COUNTER = "mitigation.augmentation.sources_solved"


def _solved(tracer) -> int:
    return sum(span.counters.get(COUNTER, 0) for span in tracer.walk())


def _check_greedy_states(fiber_map, network, isp, candidates, max_k) -> int:
    """Drive greedy by hand, comparing the engine with the oracles at
    every state; returns the number of states checked."""
    env = AugmentationEnv(
        fiber_map, network, isp, max_k=max_k, candidates=candidates
    )
    engine = env._engine
    driver = GreedyDriver()
    assert env.baseline == route_exposure_reference(engine.view, engine.demands)
    states = 1
    while True:
        expected = estimate_scores_reference(
            engine.view, engine.demands, engine.pool, set(env.applied)
        )
        assert env.estimate_scores() == expected, (isp, env.applied)
        plan = driver.propose(env)
        if plan is None:
            return states
        exposures = env.evaluate(plan)
        driver.observe(plan, exposures)
        assert exposures[-1] == route_exposure_reference(
            engine.view, engine.demands
        ), (isp, plan)
        states += 1


class TestEveryGreedyState:
    def test_family_maps(self, family_scenario):
        fiber_map = family_scenario.constructed_map
        network = family_scenario.network
        candidates = candidate_new_edges(fiber_map, network)
        states = sum(
            _check_greedy_states(fiber_map, network, isp, candidates, 10)
            for isp in sorted(fiber_map.isps())
        )
        assert states >= len(fiber_map.isps())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_maps(self, seed):
        fiber_map = _random_fiber_map(seed)
        candidates = _synthetic_candidates(fiber_map, seed, count=12)
        for isp in sorted(fiber_map.isps()):
            _check_greedy_states(fiber_map, None, isp, candidates, 4)


#: (plan, trail) per (map, provider, driver), as the engine produced
#: them before it cached rows: us2015 seed 2015 at ``driver_seed=2,
#: budget=16``; random map 7 at ``driver_seed=5, budget=12``; max_k 3.
PINNED = {
    ("us2015", "Tata", "anneal"): (
        (("Birmingham, AL", "Memphis, TN"), ("Lincoln, NE", "St. Louis, MO"),
         ("Chicago, IL", "Toledo, OH")),
        (8.937685459940653, 8.63141993957704, 8.552147239263803),
    ),
    ("us2015", "Tata", "evolutionary"): (
        (("Chicago, IL", "Fort Wayne, IN"), ("Fort Wayne, IN", "Pittsburgh, PA"),
         ("Anaheim, CA", "San Bernardino, CA")),
        (8.872403560830861, 8.431818181818182, 8.418831168831169),
    ),
    ("us2015", "Tata", "random"): (
        (("Jacksonville, FL", "Orlando, FL"), ("Birmingham, AL", "Memphis, TN"),
         ("Lincoln, NE", "St. Louis, MO")),
        (9.02710843373494, 8.895522388059701, 8.586626139817628),
    ),
    ("us2015", "Sprint", "anneal"): (
        (("Fort Wayne, IN", "Pittsburgh, PA"), ("Newark, NJ", "Scranton, PA")),
        (6.96875, 6.874698795180723, 6.874698795180723),
    ),
    ("us2015", "Sprint", "evolutionary"): (
        (("Fort Wayne, IN", "Pittsburgh, PA"),),
        (6.96875, 6.96875, 6.96875),
    ),
    ("us2015", "Sprint", "random"): (
        (("Lincoln, NE", "St. Louis, MO"), ("Fort Wayne, IN", "Pittsburgh, PA"),
         ("Ogden, UT", "Wells, NV")),
        (7.232673267326732, 6.966101694915254, 6.968446601941747),
    ),
    ("us2015", "Level 3", "anneal"): (
        (("Charleston, WV", "Richmond, VA"), ("Missoula, MT", "Spokane, WA"),
         ("Miles City, MT", "Rapid City, SD")),
        (6.7071678321678325, 6.706140350877193, 6.625108979947689),
    ),
    ("us2015", "Level 3", "evolutionary"): (
        (("Duluth, MN", "Grand Forks, ND"), ("Atlanta, GA", "Charlotte, NC"),
         ("Anaheim, CA", "San Bernardino, CA")),
        (6.752397558849172, 6.569675723049956, 6.549431321084865),
    ),
    ("us2015", "Level 3", "random"): (
        (("Duluth, MN", "Grand Forks, ND"), ("Atlanta, GA", "Charlotte, NC"),
         ("Anaheim, CA", "San Bernardino, CA")),
        (6.752397558849172, 6.569675723049956, 6.549431321084865),
    ),
    ("random7", "AlphaNet", "anneal"): (
        (),
        (2.0833333333333335, 2.0833333333333335, 2.0833333333333335),
    ),
    ("random7", "AlphaNet", "evolutionary"): (
        (("City08", "City10"), ("City04", "City10"), ("City04", "City07")),
        (2.0833333333333335, 1.6428571428571428, 1.6428571428571428),
    ),
    ("random7", "AlphaNet", "random"): (
        (("City08", "City10"), ("City04", "City10"), ("City04", "City07")),
        (2.0833333333333335, 1.6428571428571428, 1.6428571428571428),
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids="-".join)
def test_stochastic_plans_and_trails_are_pinned(scenario, key):
    family, isp, driver = key
    if family == "us2015":
        fiber_map, network, candidates = (
            scenario.constructed_map, scenario.network, None,
        )
        seed, budget = 2, 16
    else:
        fiber_map, network = _random_fiber_map(7), None
        candidates = _synthetic_candidates(fiber_map, 14)
        seed, budget = 5, 12
    result = improvement_curve(
        fiber_map, network, isp, max_k=3, candidates=candidates,
        driver=driver, driver_seed=seed, budget=budget,
    )
    assert (result.added_edges, result.risk_after) == PINNED[key]


def _source_sets(fiber_map, network, isp, candidates):
    """(|A|, |A ∪ B ∪ pool|) of one provider's engine."""
    engine = AugmentationEnv(
        fiber_map, network, isp, candidates=candidates
    )._engine
    demand = {a for a, _ in engine.demands}
    every = (
        demand
        | {b for _, b in engine.demands}
        | {e for edge, _ in engine.pool for e in edge}
    )
    return len(demand), len(every)


def test_greedy_fig11_solves_each_state_source_once(scenario):
    with tracing() as tracer:
        with tracer.span("fig11"):
            result = fig11.run(scenario)
    fiber_map = scenario.constructed_map
    candidates = candidate_new_edges(fiber_map, scenario.network)
    expected = 0
    for isp, curve in result.results.items():
        demand, every = _source_sets(
            fiber_map, scenario.network, isp, candidates
        )
        states = len(curve.added_edges) + 1
        # Greedy estimates at every state but a final one reached at
        # max_k, where only the exposure walk runs.
        estimated = states - (len(curve.added_edges) == result.max_k)
        expected += estimated * every + (states - estimated) * demand
    assert _solved(tracer) == expected


def test_stochastic_driver_solves_only_demand_sources(scenario, monkeypatch):
    applies = []
    original = _SubstrateEngine.apply

    def counting_apply(self, pos):
        applies.append(pos)
        return original(self, pos)

    monkeypatch.setattr(_SubstrateEngine, "apply", counting_apply)
    fiber_map = scenario.constructed_map
    with tracing() as tracer:
        with tracer.span("random"):
            improvement_curve(
                fiber_map, scenario.network, "Tata", max_k=3,
                driver="random", driver_seed=2, budget=16,
            )
    demand, _every = _source_sets(fiber_map, scenario.network, "Tata", None)
    # The baseline walk plus one walk per applied candidate.
    assert applies
    assert _solved(tracer) == demand * (1 + len(applies))
