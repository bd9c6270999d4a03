"""The stage-graph engine: declarations, resolution, cache, seeds.

These tests exercise :mod:`repro.engine` with toy graphs, plus the
regression suite pinning the scenario's derived-seed rules to the
historical ``seed + k`` offsets that every published artifact depends
on.
"""

import threading

import pytest

from repro.engine import (
    StageContext,
    StageDef,
    StageGraph,
    StageGraphError,
    UndeclaredDependencyError,
    UnknownStageError,
    validate_stages,
)
from repro.perf.cache import ArtifactCache


def _diamond(calls=None):
    """a -> (b, c) -> d, recording build order in *calls*."""
    calls = calls if calls is not None else []

    def build(name, *deps):
        def _build(ctx):
            calls.append(name)
            return (name, tuple(ctx.dep(d) for d in deps))
        return _build

    return calls, (
        StageDef("a", build("a"), seed_offset=0),
        StageDef("b", build("b", "a"), deps=("a",), seed_offset=1),
        StageDef("c", build("c", "a"), deps=("a",), seed_offset=2),
        StageDef("d", build("d", "b", "c"), deps=("b", "c")),
    )


class TestStageDef:
    def test_rejects_empty_name(self):
        with pytest.raises(StageGraphError, match="non-empty"):
            StageDef("", lambda ctx: 1)

    def test_rejects_self_dependency(self):
        with pytest.raises(StageGraphError, match="depends on itself"):
            StageDef("a", lambda ctx: 1, deps=("a",))

    def test_rejects_cache_params_without_persist(self):
        with pytest.raises(StageGraphError, match="not .*persisted"):
            StageDef("a", lambda ctx: 1, cache_params=("seed",))


class TestValidateStages:
    def test_clean_table_has_no_problems(self):
        _, stages = _diamond()
        assert validate_stages(stages) == []

    def test_duplicate_names(self):
        stages = (
            StageDef("a", lambda ctx: 1),
            StageDef("a", lambda ctx: 2),
        )
        assert any("duplicate" in p for p in validate_stages(stages))

    def test_unknown_dependency(self):
        stages = (StageDef("a", lambda ctx: 1, deps=("ghost",)),)
        problems = validate_stages(stages)
        assert any("unknown stage 'ghost'" in p for p in problems)

    def test_cycle_detected(self):
        stages = (
            StageDef("a", lambda ctx: 1, deps=("b",)),
            StageDef("b", lambda ctx: 1, deps=("a",)),
        )
        assert any("cycle" in p for p in validate_stages(stages))

    def test_graph_constructor_raises_on_problems(self):
        with pytest.raises(StageGraphError, match="cycle"):
            StageGraph((
                StageDef("a", lambda ctx: 1, deps=("b",)),
                StageDef("b", lambda ctx: 1, deps=("a",)),
            ))


class TestResolution:
    def test_materialize_pulls_dependencies_once(self):
        calls, stages = _diamond()
        graph = StageGraph(stages)
        value = graph.materialize("d")
        assert value == ("d", (("b", (("a", ()),)), ("c", (("a", ()),))))
        # a built once despite two consumers.
        assert sorted(calls) == ["a", "b", "c", "d"]
        assert graph.materialize("d") is value
        assert sorted(calls) == ["a", "b", "c", "d"]

    def test_unknown_stage(self):
        _, stages = _diamond()
        graph = StageGraph(stages)
        with pytest.raises(UnknownStageError):
            graph.materialize("ghost")

    def test_undeclared_dep_access_raises(self):
        stages = (
            StageDef("a", lambda ctx: 1),
            StageDef("sneaky", lambda ctx: ctx.dep("a")),  # deps=()
        )
        graph = StageGraph(stages)
        with pytest.raises(UndeclaredDependencyError, match="sneaky"):
            graph.materialize("sneaky")

    def test_closure_order_dependents(self):
        _, stages = _diamond()
        graph = StageGraph(stages)
        assert graph.closure(["d"]) == ("a", "b", "c", "d")
        assert graph.closure(["b"]) == ("a", "b")
        order = graph.order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert graph.dependents("a") == ("b", "c", "d")
        assert graph.dependents("d") == ()

    def test_peek_and_materialized(self):
        _, stages = _diamond()
        graph = StageGraph(stages)
        assert graph.peek("b") is None
        graph.materialize("b")
        assert graph.peek("b") == ("b", (("a", ()),))
        assert graph.materialized() == ("a", "b")

    def test_concurrent_materialize_is_single_flight(self):
        calls = []

        def build(ctx):
            calls.append(1)
            return 42

        graph = StageGraph((StageDef("a", build),))
        threads = [
            threading.Thread(target=graph.materialize, args=("a",))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1


class TestSeeds:
    def test_derived_seed_is_base_plus_offset(self):
        _, stages = _diamond()
        graph = StageGraph(stages, base_seed=100)
        assert graph.derived_seed("a") == 100
        assert graph.derived_seed("b") == 101
        assert graph.derived_seed("c") == 102
        assert graph.derived_seed("d") is None

    def test_context_seed_requires_declared_offset(self):
        seen = {}

        def build(ctx):
            seen["seed"] = ctx.seed
            return None

        graph = StageGraph(
            (StageDef("a", build, seed_offset=7),), base_seed=10
        )
        graph.materialize("a")
        assert seen["seed"] == 17

        graph2 = StageGraph(
            (StageDef("b", lambda ctx: ctx.seed),)
        )
        with pytest.raises(StageGraphError, match="no seed_offset"):
            graph2.materialize("b")


class TestScenarioSeedRegression:
    """The historical per-stage seeds, pinned forever.

    Before the engine, each stage hard-coded ``seed + k``; every
    published artifact (and the golden hashes) depends on these exact
    derivations.  The declared offsets must never drift.
    """

    HISTORICAL_OFFSETS = {
        "ground_truth": 0,
        "provider_maps": 1,
        "records": 2,
        "topology": 3,
        "probe_engine": 4,
        "campaign": 5,
        "geolocation": 6,
    }
    SEEDLESS = ("constructed_map", "overlay", "risk_matrix")

    def test_declared_offsets_match_history(self):
        from repro.families import build_stage_table

        offsets = {s.name: s.seed_offset for s in build_stage_table()}
        for name, offset in self.HISTORICAL_OFFSETS.items():
            assert offsets[name] == offset, name
        for name in self.SEEDLESS:
            assert offsets[name] is None, name

    def test_derived_seeds_for_base_2015(self):
        from repro.scenario import ScenarioConfig, build_stage_graph

        graph = build_stage_graph(ScenarioConfig(seed=2015))
        for name, offset in self.HISTORICAL_OFFSETS.items():
            assert graph.derived_seed(name) == 2015 + offset, name


class TestCacheIntegration:
    def _persisted_graph(self, cache, calls):
        def build(ctx):
            calls.append(1)
            return {"value": 7}

        return StageGraph(
            (StageDef("s", build, persist=True, cache_params=("seed",)),),
            params={"seed": 1},
            cache=cache,
        )

    def test_warm_cache_skips_build(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []
        self._persisted_graph(cache, calls).materialize("s")
        assert calls == [1]
        self._persisted_graph(cache, calls).materialize("s")
        assert calls == [1]  # served from disk, not rebuilt

    def test_warm_persisted_stage_never_builds_deps(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        dep_calls = []

        def build_dep(ctx):
            dep_calls.append(1)
            return 1

        def stages():
            return (
                StageDef("base", build_dep),
                StageDef(
                    "top", lambda ctx: ctx.dep("base") + 1,
                    deps=("base",), persist=True, cache_params=(),
                ),
            )

        StageGraph(stages(), cache=cache).materialize("top")
        assert dep_calls == [1]
        warm = StageGraph(stages(), cache=cache)
        assert warm.materialize("top") == 2
        assert dep_calls == [1]  # cache hit short-circuits the subgraph
        assert warm.materialized() == ("top",)

    def test_degraded_store_returns_value(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)

        def boom(stage, params, value):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "store", boom)
        calls = []
        graph = self._persisted_graph(cache, calls)
        assert graph.materialize("s") == {"value": 7}

    def test_invalidate_evicts_stage_and_dependents(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stages = (
            StageDef("a", lambda ctx: 1, persist=True, cache_params=()),
            StageDef(
                "b", lambda ctx: ctx.dep("a") + 1, deps=("a",),
                persist=True, cache_params=(),
            ),
        )
        graph = StageGraph(stages, cache=cache)
        graph.materialize("b")
        assert cache.contains("a", {}) and cache.contains("b", {})
        removed = graph.invalidate("a")
        assert removed == 2
        assert not cache.contains("a", {})
        assert not cache.contains("b", {})
        assert graph.materialized() == ()

    def test_explain_reports_policy_and_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []
        graph = self._persisted_graph(cache, calls)
        before = graph.explain("s")
        assert before["policy"] == "persisted"
        assert before["cache_entry"] is False
        assert before["materialized"] is False
        graph.materialize("s")
        after = graph.explain("s")
        assert after["cache_entry"] is True
        assert after["materialized"] is True
        assert after["cache_key"] == {"seed": 1}
