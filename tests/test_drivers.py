"""Driver interface + gain-mask regression suite.

Covers the §5.2 optimizer-driver refactor:

* the fixed finiteness mask in :func:`candidate_gain` — a kernel-level
  regression that fails on the old ``isfinite(via_uv)`` mask (the
  divergence needs asymmetric reachability, which an undirected
  footprint can never produce — see the proof in
  ``test_old_mask_is_latent_on_undirected_footprints``);
* greedy-driver byte-parity with the pre-refactor implementation on
  randomized maps (substrate and reference paths);
* pool-truncation accounting (``pool_size``/``pool_truncated`` fields
  plus the ``mitigation.augmentation.candidates_truncated`` counter);
* duplicate-provider dedupe in ``improvement_curves``;
* seed-determinism of the stochastic drivers, and the
  anneal/evolutionary ≥ random-baseline guarantee on the seed-2015 map.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.mitigation import augmentation
from repro.mitigation.augmentation import (
    AugmentationResult,
    candidate_gain,
    improvement_curve,
    improvement_curves,
)
from repro.mitigation.drivers import (
    DRIVERS,
    AnnealingDriver,
    AugmentationEnv,
    EvolutionaryDriver,
    GreedyDriver,
    RandomBaselineDriver,
    canonical_driver,
    make_driver,
    run_driver,
)
from repro.obs.tracer import Tracer, tracing
from repro.perf.substrate import substrate_for
from tests.oracles.mitigation import improvement_curve_reference
from tests.test_substrate import _random_fiber_map

INF = float("inf")


def _synthetic_candidates(fiber_map, seed, count=10):
    """Unused city-pair edges, the shape candidate_new_edges returns."""
    rng = random.Random(seed)
    used = {c.edge for c in fiber_map.conduits.values()}
    nodes = sorted(fiber_map.nodes)
    candidates = []
    while len(candidates) < count:
        a, b = sorted(rng.sample(nodes, 2))
        if (a, b) not in used:
            candidates.append(((a, b), 100.0 + 50.0 * rng.random()))
            used.add((a, b))
    return candidates


class TestGainMaskRegression:
    def test_vu_only_orientation_is_scored(self):
        """The regression the ISSUE names: ``du[edge[0]]`` side
        unreachable, ``dv`` side not — only ``via_vu`` is finite."""
        du = np.array([INF, 2.0])
        dv = np.array([1.0, INF])
        ai = np.array([0], dtype=np.int64)
        bi = np.array([1], dtype=np.int64)
        costs = np.array([5.0])
        # via_uv = inf + 1 + inf = inf; via_vu = 1 + 1 + 2 = 4 < 5.
        assert candidate_gain(du, dv, ai, bi, costs, 1.0) == 1.0
        # The old mask — isfinite(via_uv) — scored this candidate as
        # useless; recompute it here so the test fails loudly if the
        # kernel ever regresses to it.
        via_uv = du[ai] + 1.0 + dv[bi]
        via = np.minimum(via_uv, dv[ai] + 1.0 + du[bi])
        old_mask = np.isfinite(via_uv) & (via < costs)
        assert not old_mask.any()
        assert float(costs[old_mask].sum()) == 0.0

    def test_all_infinite_scores_zero(self):
        du = np.array([INF, INF])
        dv = np.array([INF, INF])
        ai = np.array([0], dtype=np.int64)
        bi = np.array([1], dtype=np.int64)
        assert candidate_gain(du, dv, ai, bi, np.array([5.0]), 1.0) == 0.0

    def test_uv_orientation_still_scored(self):
        du = np.array([1.0, INF])
        dv = np.array([INF, 2.0])
        ai = np.array([0], dtype=np.int64)
        bi = np.array([1], dtype=np.int64)
        assert candidate_gain(du, dv, ai, bi, np.array([9.0]), 1.0) == 5.0

    def test_old_mask_is_latent_on_undirected_footprints(self):
        """Why no FiberMap regression test exists for the old mask: on
        an undirected footprint a demand ``(a, b)`` with finite cost has
        ``comp(a) == comp(b)``, so ``via_vu`` finite (``v`` reaches
        ``a``, ``u`` reaches ``b``) forces ``u``, ``v``, ``a``, ``b``
        into one component — making ``via_uv`` finite too.  The masks
        can only diverge under asymmetric reachability, hence the
        kernel-level regression above.  Here: every candidate × demand
        combination over disconnected undirected components agrees."""
        from repro.mitigation.augmentation import _footprint_view

        fiber_map = _random_fiber_map(11, cities=10)
        for isp in fiber_map.isps():
            view = _footprint_view(substrate_for(fiber_map), isp)
            nodes = [n for n in view.nodes if view.present(n)]
            dist, _pred, row_of = view.dijkstra(nodes, "w")
            cols = np.array([view.index[n] for n in nodes])
            rows = np.array([row_of[n] for n in nodes])
            # Demand pairs the engines actually score: finite cost, i.e.
            # both endpoints in one component.
            finite_demand = np.isfinite(dist[np.ix_(rows, cols)])
            for u in nodes[:6]:
                for v in nodes[:6]:
                    du = dist[row_of[u]][cols]
                    dv = dist[row_of[v]][cols]
                    uv_finite = np.isfinite(du[:, None] + dv[None, :])
                    vu_finite = np.isfinite(dv[:, None] + du[None, :])
                    assert (
                        uv_finite[finite_demand] == vu_finite[finite_demand]
                    ).all()

    @pytest.mark.parametrize("seed", (7, 23))
    def test_disconnected_footprint_parity(self, seed):
        """Reference vs substrate on maps whose provider footprints
        include disconnected components (demands with infinite cost)."""
        fiber_map = _random_fiber_map(seed, cities=10, extra_conduits=2)
        candidates = _synthetic_candidates(fiber_map, seed)
        for isp in fiber_map.isps():
            reference = improvement_curve_reference(
                fiber_map, None, isp, max_k=3, candidates=candidates
            )
            fast = improvement_curve(
                fiber_map, None, isp, max_k=3,
                candidates=candidates,
            )
            assert fast == reference, isp


class TestGreedyDriverParity:
    @pytest.mark.parametrize("seed", (7, 23, 101))
    def test_greedy_named_and_instance_agree(self, seed):
        fiber_map = _random_fiber_map(seed)
        candidates = _synthetic_candidates(fiber_map, seed + 1)
        for isp in fiber_map.isps():
            default = improvement_curve(
                fiber_map, None, isp, max_k=4,
                candidates=candidates,
            )
            named = improvement_curve(
                fiber_map, None, isp, max_k=4,
                candidates=candidates,
                driver="greedy", driver_seed=99,
            )
            env = AugmentationEnv(
                fiber_map, None, isp, max_k=4,
                candidates=candidates,
            )
            manual = run_driver(env, GreedyDriver())
            assert default == named == manual
            assert default.driver == "greedy"
            assert default.pool_size == len(env.pool)
            assert len(default.risk_after) == 4

    def test_greedy_is_deterministic_across_runs(self):
        fiber_map = _random_fiber_map(7)
        candidates = _synthetic_candidates(fiber_map, 8)
        first = improvement_curve(
            fiber_map, None, "AlphaNet", max_k=4,
            candidates=candidates,
        )
        second = improvement_curve(
            fiber_map, None, "AlphaNet", max_k=4,
            candidates=candidates,
        )
        assert first == second


class TestPoolAccounting:
    def test_truncation_fields_and_counter(self, monkeypatch):
        fiber_map = _random_fiber_map(7)
        candidates = _synthetic_candidates(fiber_map, 9, count=8)
        monkeypatch.setattr(augmentation, "MAX_CANDIDATES", 3)
        tracer = Tracer()
        with tracing(tracer):
            with tracer.span("test"):
                result = improvement_curve(
                    fiber_map, None, "AlphaNet", max_k=2,
                    candidates=candidates,
                )
        assert result.pool_size <= 3
        eligible = result.pool_size + result.pool_truncated
        assert eligible >= result.pool_size
        if result.pool_truncated:
            counters = {}
            for span in tracer.spans:
                for node in span.walk():
                    counters.update(node.counters)
            assert (
                counters["mitigation.augmentation.candidates_truncated"]
                == result.pool_truncated
            )

    def test_truncation_parity_reference_vs_substrate(self, monkeypatch):
        fiber_map = _random_fiber_map(23)
        candidates = _synthetic_candidates(fiber_map, 10, count=8)
        monkeypatch.setattr(augmentation, "MAX_CANDIDATES", 3)
        for isp in fiber_map.isps():
            reference = improvement_curve_reference(
                fiber_map, None, isp, max_k=2, candidates=candidates
            )
            fast = improvement_curve(
                fiber_map, None, isp, max_k=2,
                candidates=candidates,
            )
            assert fast == reference
            assert fast.pool_size == reference.pool_size
            assert fast.pool_truncated == reference.pool_truncated

    def test_untruncated_pool_reports_zero(self):
        fiber_map = _random_fiber_map(7)
        candidates = _synthetic_candidates(fiber_map, 11, count=5)
        result = improvement_curve(
            fiber_map, None, "BetaCom", max_k=2,
            candidates=candidates,
        )
        assert result.pool_truncated == 0


class TestImprovementCurvesDedupe:
    def test_duplicate_providers_collapse(self):
        fiber_map = _random_fiber_map(7)
        candidates = _synthetic_candidates(fiber_map, 12)
        duplicated = improvement_curves(
            fiber_map, None, ["AlphaNet", "AlphaNet", "BetaCom"],
            max_k=3, candidates=candidates,
        )
        unique = improvement_curves(
            fiber_map, None, ["AlphaNet", "BetaCom"],
            max_k=3, candidates=candidates,
        )
        assert list(duplicated) == ["AlphaNet", "BetaCom"]
        assert duplicated == unique

    def test_driver_instance_rejected(self):
        fiber_map = _random_fiber_map(7)
        with pytest.raises(TypeError, match="driver"):
            improvement_curves(
                fiber_map, None, ["AlphaNet"], driver=GreedyDriver()
            )


class TestDriverRegistry:
    def test_aliases_resolve(self):
        assert canonical_driver("greedy") == "greedy"
        assert canonical_driver("simulated-annealing") == "anneal"
        assert canonical_driver("SA") == "anneal"
        assert canonical_driver("evolve") == "evolutionary"
        assert canonical_driver("random-baseline") == "random"

    def test_unknown_driver_raises(self):
        with pytest.raises(ValueError, match="unknown driver"):
            canonical_driver("quantum")

    def test_make_driver_passes_instances_through(self):
        driver = AnnealingDriver(seed=3)
        assert make_driver(driver) is driver

    def test_registry_names_match(self):
        for name, factory in DRIVERS.items():
            assert factory().name == name


class TestStochasticDrivers:
    @pytest.mark.parametrize("name", ("anneal", "evolutionary", "random"))
    def test_fixed_seed_replays_exactly(self, name):
        fiber_map = _random_fiber_map(7)
        candidates = _synthetic_candidates(fiber_map, 14)
        runs = [
            improvement_curve(
                fiber_map, None, "AlphaNet", max_k=3,
                candidates=candidates,
                driver=name, driver_seed=5, budget=12,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].driver == canonical_driver(name)

    @pytest.mark.parametrize("name", ("anneal", "evolutionary", "random"))
    def test_never_worse_than_baseline(self, name):
        """The incumbent starts at the empty plan, so no stochastic
        driver can report a plan worse than doing nothing."""
        fiber_map = _random_fiber_map(23)
        candidates = _synthetic_candidates(fiber_map, 15)
        for isp in fiber_map.isps():
            result = improvement_curve(
                fiber_map, None, isp, max_k=3,
                candidates=candidates,
                driver=name, driver_seed=1, budget=10,
            )
            final = (
                result.risk_after[-1]
                if result.risk_after
                else result.baseline_risk
            )
            assert final <= result.baseline_risk
            assert result.improvement_ratio(3) >= 0.0

    def test_reference_and_substrate_stochastic_parity(self):
        """A seeded driver replays the same proposals on both engines,
        and both engines measure identically — so full results match."""
        fiber_map = _random_fiber_map(101)
        candidates = _synthetic_candidates(fiber_map, 16)
        for name in ("anneal", "random"):
            reference = improvement_curve_reference(
                fiber_map, None, "AlphaNet", max_k=3, candidates=candidates,
                driver=name, driver_seed=2, budget=8,
            )
            fast = improvement_curve(
                fiber_map, None, "AlphaNet", max_k=3,
                candidates=candidates,
                driver=name, driver_seed=2, budget=8,
            )
            assert fast == reference


class TestDriversOnSeedMap:
    """The acceptance battery on the realistic seed-2015 scenario map."""

    ISPS = ("TeliaSonera", "Tata")
    BUDGET = 16

    def test_battery_providers_are_tenants(self, scenario):
        """An unknown provider gives an empty search that every check
        below would pass, so a rename must fail here instead."""
        tenants = set().union(*scenario.constructed_map.tenancy().values())
        assert set(self.ISPS) <= tenants

    def _curve(self, scenario, isp, driver, seed=2):
        return improvement_curve(
            scenario.constructed_map,
            scenario.network,
            isp,
            max_k=3,
            driver=driver,
            driver_seed=seed,
            **({} if driver == "greedy" else {"budget": self.BUDGET}),
        )

    def _final(self, result: AugmentationResult) -> float:
        return result.risk_after[-1] if result.risk_after else result.baseline_risk

    @pytest.mark.parametrize("isp", ISPS)
    def test_anneal_and_evolutionary_never_worse_than_random(
        self, scenario, isp
    ):
        random_result = self._curve(scenario, isp, "random")
        for name in ("anneal", "evolutionary"):
            smart = self._curve(scenario, isp, name)
            assert self._final(smart) <= self._final(random_result), (
                isp,
                name,
                smart.risk_after,
                random_result.risk_after,
            )

    def test_greedy_matches_fig11_path(self, scenario):
        """The driver the fig11 experiment rides is the default one."""
        from repro.experiments import fig11

        result = fig11.run(scenario, max_k=2, isps=["TeliaSonera"])
        direct = improvement_curves(
            scenario.constructed_map,
            scenario.network,
            ["TeliaSonera"],
            max_k=2,
        )
        assert result.results == direct
        assert result.results["TeliaSonera"].driver == "greedy"
        assert result.results["TeliaSonera"].pool_size > 0


class TestAugmentationEnv:
    def test_evaluate_prefix_reuse_and_replay_agree(self):
        fiber_map = _random_fiber_map(7)
        candidates = _synthetic_candidates(fiber_map, 17)

        def fresh_env():
            return AugmentationEnv(
                fiber_map, None, "AlphaNet", max_k=3,
                candidates=candidates,
            )

        env = fresh_env()
        incremental = env.evaluate((0,))
        incremental = env.evaluate((0, 1))
        replayed = fresh_env().evaluate((0, 1))
        assert incremental == replayed
        # Diverging from the applied prefix resets and replays.
        diverged = env.evaluate((1,))
        assert diverged == fresh_env().evaluate((1,))

    def test_evaluate_rejects_bad_plans(self):
        fiber_map = _random_fiber_map(7)
        candidates = _synthetic_candidates(fiber_map, 18)
        env = AugmentationEnv(
            fiber_map, None, "AlphaNet", max_k=2,
            candidates=candidates,
        )
        with pytest.raises(ValueError, match="repeats"):
            env.evaluate((0, 0))
        with pytest.raises(ValueError, match="max_k"):
            env.evaluate((0, 1, 2))
        with pytest.raises(IndexError):
            env.evaluate((len(env.pool) + 5,))

    def test_result_pads_with_last_exposure(self):
        fiber_map = _random_fiber_map(7)
        candidates = _synthetic_candidates(fiber_map, 19)
        env = AugmentationEnv(
            fiber_map, None, "AlphaNet", max_k=4,
            candidates=candidates,
        )
        exposures = env.evaluate((0,))
        result = env.result((0,), exposures, "test")
        assert len(result.risk_after) == 4
        assert result.risk_after[1:] == (exposures[-1],) * 3
        empty = env.result((), (), "test")
        assert empty.risk_after == (env.baseline,) * 4
        assert empty.improvement_ratio(4) == 0.0
