"""Tests for the observability layer: tracer, manifests, determinism."""

import json

import pytest

from repro.experiments import run_experiment
from repro.obs import (
    RunManifest,
    Tracer,
    get_tracer,
    set_tracer,
    to_jsonable,
    tracing,
)
from repro.obs.manifest import _walk
from repro.perf.cache import ArtifactCache
from repro.scenario import Scenario, ScenarioConfig


class TestTracer:
    def test_nested_spans(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        assert len(tracer.spans) == 1
        outer = tracer.spans[0]
        assert outer.name == "outer"
        assert outer.attrs == {"kind": "test"}
        assert [c.name for c in outer.children] == ["inner", "inner2"]
        assert outer.duration_s >= 0.0

    def test_annotate_and_count_inner_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(records=7)
                tracer.count("hits")
                tracer.count("hits", 2)
        inner = tracer.spans[0].children[0]
        assert inner.attrs == {"records": 7}
        assert inner.counters == {"hits": 3}

    def test_event_and_record_span_attach_to_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.event("cache.fetch", hit=True)
            tracer.record_span("shard", 0.25, start=0, stop=10)
        children = tracer.spans[0].children
        assert [c.name for c in children] == ["cache.fetch", "shard"]
        assert children[0].duration_s == 0.0
        assert children[1].duration_s == 0.25

    def test_exception_annotates_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.spans[0].attrs["error"] == "ValueError"

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a", x=1):
            tracer.annotate(y=2)
            tracer.count("n")
            tracer.event("e")
        assert tracer.record_span("s", 1.0) is None
        assert tracer.spans == []

    def test_disabled_span_is_shared_singleton(self):
        # The zero-overhead fast path: no per-span allocation when off.
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b", x=1)

    def test_global_tracer_disabled_by_default_and_restored(self):
        assert get_tracer().enabled is False
        with tracing() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer().enabled is False

    def test_set_tracer_none_restores_disabled(self):
        previous = set_tracer(Tracer())
        try:
            assert get_tracer().enabled
            set_tracer(None)
            assert get_tracer().enabled is False
        finally:
            set_tracer(previous)

    def test_walk_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.event("c")
        with tracer.span("d"):
            pass
        assert [s.name for s in tracer.walk()] == ["a", "b", "c", "d"]


class TestCacheEvents:
    def test_fetch_store_events(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with tracing() as tracer:
            hit, _ = cache.fetch("stage_x", {"a": 1})
            cache.store("stage_x", {"a": 1}, {"value": 2})
            hit2, value = cache.fetch("stage_x", {"a": 1})
        assert (hit, hit2, value) == (False, True, {"value": 2})
        names = [s.name for s in tracer.spans]
        assert names == ["cache.fetch", "cache.store", "cache.fetch"]
        assert tracer.spans[0].attrs == {"stage": "stage_x", "hit": False}
        assert tracer.spans[1].attrs["bytes"] > 0
        assert tracer.spans[2].attrs["hit"] is True

    def test_stage_graph_hit_miss_attribution(self, tmp_path):
        from repro.engine import StageDef, StageGraph

        stages = (
            StageDef(
                "stage_y", lambda ctx: 42,
                persist=True, cache_params=("k",),
            ),
        )
        cache = ArtifactCache(tmp_path)
        with tracing() as tracer:
            value = StageGraph(
                stages, params={"k": 1}, cache=cache,
                span_prefix="scenario",
            ).materialize("stage_y")
            again = StageGraph(
                stages, params={"k": 1}, cache=cache,
                span_prefix="scenario",
            ).materialize("stage_y")
        assert value == again == 42
        assert tracer.spans[0].name == "scenario.stage_y"
        assert tracer.spans[0].attrs["cache"] == "miss"
        # The second graph is a fresh process-equivalent: no memo, so
        # the persisted artifact is served from the cache.
        assert tracer.spans[1].name == "scenario.stage_y"
        assert tracer.spans[1].attrs["cache"] == "hit"

    def test_stage_graph_uncached_marks_off(self):
        from repro.engine import StageDef, StageGraph

        graph = StageGraph(
            (StageDef("stage_z", lambda ctx: 1, persist=True),),
            cache=None,
        )
        with tracing() as tracer:
            graph.materialize("stage_z")
        assert tracer.spans[0].attrs["cache"] == "off"


class TestToJsonable:
    def test_dataclass_sets_and_tuple_keys(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Row:
            name: str
            tags: frozenset

        payload = to_jsonable({
            ("a", "b"): Row(name="x", tags=frozenset({"t2", "t1"})),
            "plain": (1, 2.5, None, True),
        })
        assert payload["('a', 'b')"] == {"name": "x", "tags": ["t1", "t2"]}
        assert payload["plain"] == [1, 2.5, None, True]
        json.dumps(payload)  # round-trips

    def test_numpy_scalar_and_fallback(self):
        numpy = pytest.importorskip("numpy")
        assert to_jsonable(numpy.float64(1.5)) == 1.5
        assert to_jsonable(numpy.int32(7)) == 7

        class Opaque:
            def __str__(self):
                return "<opaque>"

        assert to_jsonable(Opaque()) == "<opaque>"


class TestRunManifest:
    def _manifest(self) -> RunManifest:
        tracer = Tracer()
        with tracer.span("stage_a", cache="miss"):
            with tracer.span("stage_b"):
                tracer.count("records", 5)
        return RunManifest.from_tracer(
            tracer, config={"seed": 1}, meta={"command": "test"}
        )

    def test_roundtrip(self, tmp_path):
        manifest = self._manifest()
        path = manifest.write(tmp_path / "m.json")
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.config == {"seed": 1}
        assert loaded.code_version == manifest.code_version

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "spans": []}))
        with pytest.raises(ValueError):
            RunManifest.load(path)

    def test_timings_flatten_and_aggregate(self):
        tracer = Tracer()
        tracer.record_span("shard", 0.5)
        tracer.record_span("shard", 0.25)
        with tracer.span("outer"):
            tracer.record_span("inner", 0.1)
        manifest = RunManifest.from_tracer(tracer)
        timings = manifest.timings()
        assert timings["shard"] == 0.75
        assert "outer/inner" in timings

    def test_summary_text(self):
        text = self._manifest().summary_text()
        assert "run manifest" in text
        assert "stage_a" in text and "stage_b" in text
        assert "cache=miss" in text and "records+5" in text
        assert "command=test" in text


def _traced_run(seed: int, traces: int) -> RunManifest:
    """Build a fresh small scenario end to end under a fresh tracer."""
    config = ScenarioConfig(seed=seed, campaign_traces=traces, cache=False)
    with tracing() as tracer:
        scenario = Scenario(config=config)
        run_experiment("table1", scenario)
        assert scenario.overlay.traces_processed > 0
        assert scenario.risk_matrix is not None
    return RunManifest.from_tracer(tracer, config=config.to_dict())


def _span_names(manifest: RunManifest) -> set:
    return {span["name"] for _, _, span in _walk(manifest.spans)}


def _shape(manifest: RunManifest) -> list:
    """Every span depth-first as (path, structural attributes,
    counters): the run with its timings and float attributes stripped."""
    return [
        (
            path,
            {
                k: v
                for k, v in span.get("attrs", {}).items()
                if not isinstance(v, float)
            },
            span.get("counters", {}),
        )
        for path, _, span in _walk(manifest.spans)
    ]


class TestManifestOfARun:
    #: One traced end-to-end run, shared by the coverage and determinism
    #: assertions (class-scoped: two builds total for the determinism
    #: comparison, none wasted).
    @pytest.fixture(scope="class")
    def manifests(self):
        return _traced_run(907, 80), _traced_run(907, 80)

    def test_manifest_covers_every_stage(self, manifests):
        names = _span_names(manifests[0])
        assert {
            "experiment.table1",
            "scenario.ground_truth",
            "scenario.provider_maps",
            "scenario.records",
            "scenario.constructed_map",
            "pipeline.step1",
            "pipeline.step2",
            "pipeline.step3",
            "pipeline.step4",
            "scenario.topology",
            "scenario.probe_engine",
            "scenario.campaign",
            "campaign.run",
            "scenario.geolocation",
            "scenario.overlay",
            "overlay.add_traces",
            "scenario.risk_matrix",
        } <= names

    def test_same_config_same_span_tree(self, manifests):
        first, second = manifests
        assert _shape(first) == _shape(second)
        assert set(first.timings()) == set(second.timings())
        assert first.config == second.config

    def test_different_seed_differs_structurally(self, manifests):
        other = _traced_run(908, 80)
        # Same span names (the stages are the same shape) ...
        assert _span_names(other) == _span_names(manifests[0])
        # ... but the structural attributes (map sizes, overlay counts)
        # reflect the different world.
        assert _shape(other) != _shape(manifests[0])
