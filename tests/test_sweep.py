"""Sweep layer tests: grid parsing, the columnar summary, single-flight
cache coordination, and one end-to-end (serial) sweep over a shared
temporary cache root with observable cross-cell dedup.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.engine.graph import StageGraph
from repro.engine.stage import StageDef
from repro.obs.manifest import RunManifest
from repro.obs.tracer import Tracer, tracing
from repro.perf.cache import HAVE_FCNTL, ArtifactCache
from repro.sweep.grid import (
    AXIS_ORDER,
    DEFAULT_CELL_TRACES,
    SweepCell,
    expand_grid,
    parse_grid,
)
from repro.sweep.orchestrator import _count_coalesced, run_sweep
from repro.sweep.summary import COLUMNS, SweepSummary


class TestParseGrid:
    def test_int_range_is_inclusive(self):
        axes = parse_grid(["seed=2015..2018"])
        assert axes == {"seed": [2015, 2016, 2017, 2018]}

    def test_comma_list_and_dedupe(self):
        axes = parse_grid(["seed=7,23,7,101"])
        assert axes == {"seed": [7, 23, 101]}

    def test_driver_aliases_canonicalize(self):
        axes = parse_grid(["driver=greedy,simulated-annealing,ga"])
        assert axes == {"driver": ["greedy", "anneal", "evolutionary"]}

    def test_later_spec_replaces_earlier(self):
        axes = parse_grid(["seed=1", "max_k=4", "seed=2,3"])
        assert axes == {"seed": [2, 3], "max_k": [4]}

    def test_axis_key_is_case_insensitive(self):
        assert parse_grid(["SEED=5"]) == {"seed": [5]}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("seed", "KEY=SPEC"),
            ("colour=red", "unknown sweep axis"),
            ("seed=", "empty value"),
            ("seed=2024..2015", "descending range"),
            ("seed=a..b", "bad range"),
            ("max_k=two", "non-integer"),
            ("driver=quantum", "unknown driver"),
        ],
    )
    def test_bad_specs_raise(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_grid([spec])


class TestExpandGrid:
    def test_requires_seed_axis(self):
        with pytest.raises(ValueError, match="seed"):
            expand_grid({"driver": ["greedy"]})

    def test_row_major_in_axis_order(self):
        cells = expand_grid(
            parse_grid(["driver=greedy,random", "seed=1..2", "max_k=3"])
        )
        assert [(c.seed, c.driver) for c in cells] == [
            (1, "greedy"),
            (1, "random"),
            (2, "greedy"),
            (2, "random"),
        ]
        assert all(c.max_k == 3 for c in cells)
        assert all(c.traces == DEFAULT_CELL_TRACES for c in cells)

    def test_cell_shape(self):
        (cell,) = expand_grid({"seed": [2015]})
        assert cell == SweepCell(seed=2015)
        assert "seed=2015" in cell.label
        assert set(cell.to_dict()) == set(AXIS_ORDER)

    def test_axis_order_matches_cell_fields(self):
        assert set(AXIS_ORDER) == set(SweepCell(seed=0).to_dict())


def _fake_cell(
    seed,
    driver="greedy",
    ok=True,
    gains=None,
    hits=0,
    misses=0,
    srr=0.5,
    sharing=None,
    error=None,
):
    gains = {"A": 0.1, "B": 0.2} if gains is None else gains
    return {
        "cell": SweepCell(seed=seed, driver=driver).to_dict(),
        "ok": ok,
        "metrics": None
        if not ok
        else {
            "isps": list(gains),
            "gains": gains,
            "mean_gain": sum(gains.values()) / len(gains) if gains else 0.0,
            "max_gain": max(gains.values()) if gains else 0.0,
            "baselines": {isp: 1.0 for isp in gains},
            "srr_avg": srr,
            "pi_avg": 0.9,
            "sharing": sharing or {2: 0.4, 3: 0.2, 4: 0.1},
            "pool_truncated": 0,
        },
        "error": error,
        "cache": {"enabled": True, "hits": hits, "misses": misses},
        "duration_s": 1.0,
        "manifest": None,
    }


class TestSweepSummary:
    def test_columns_stay_parallel(self):
        summary = SweepSummary()
        summary.add(_fake_cell(1))
        summary.add(_fake_cell(2, driver="random", ok=False, error="boom"))
        assert len(summary) == 2
        for name in COLUMNS:
            assert len(summary.columns[name]) == 2
        assert summary.errors == [
            {
                "cell": SweepCell(seed=2, driver="random").to_dict(),
                "error": "boom",
            }
        ]

    def test_gain_pooled_per_driver_over_cells_and_isps(self):
        summary = SweepSummary()
        summary.add(_fake_cell(1, gains={"A": 0.1, "B": 0.3}))
        summary.add(_fake_cell(2, gains={"A": 0.2, "B": 0.4}))
        summary.add(_fake_cell(1, driver="random", gains={"A": 0.0}))
        aggregates = summary.aggregates()
        greedy = aggregates["gain_per_driver"]["greedy"]
        assert greedy["n"] == 4
        assert greedy["min"] == 0.1 and greedy["max"] == 0.4
        assert aggregates["gain_per_driver"]["random"]["n"] == 1
        assert aggregates["cells"] == 3 and aggregates["cells_ok"] == 3
        assert aggregates["seeds"] == 2

    def test_srr_and_sharing_deduped_per_seed(self):
        """SRR/sharing are driver-independent; the driver axis must not
        multiply their weight in the distribution."""
        summary = SweepSummary()
        summary.add(_fake_cell(1, srr=0.5))
        summary.add(_fake_cell(1, driver="random", srr=0.5))
        summary.add(_fake_cell(2, srr=0.7))
        aggregates = summary.aggregates()
        assert aggregates["srr"]["n"] == 2
        assert aggregates["srr"]["min"] == 0.5
        assert aggregates["srr"]["max"] == 0.7
        assert aggregates["sharing_ge2"]["n"] == 2

    def test_failed_cells_excluded_from_metric_columns(self):
        summary = SweepSummary()
        summary.add(_fake_cell(1))
        summary.add(_fake_cell(2, ok=False, error="x"))
        aggregates = summary.aggregates()
        assert aggregates["cells_ok"] == 1
        assert aggregates["duration_s"]["n"] == 1
        assert aggregates["gain_per_driver"]["greedy"]["n"] == 2

    def test_to_dict_round_trips_columns(self):
        summary = SweepSummary()
        summary.add(_fake_cell(1))
        as_dict = summary.to_dict()
        assert set(as_dict["columns"]) == set(COLUMNS)
        assert as_dict["aggregates"]["cells"] == 1


class TestCountCoalesced:
    def test_counts_nested_coalesced_spans(self):
        manifest = {
            "spans": [
                {
                    "name": "stage.a",
                    "attrs": {"cache": "hit", "coalesced": True},
                    "children": [
                        {"name": "stage.b", "attrs": {"coalesced": True}},
                        {"name": "stage.c", "attrs": {"cache": "miss"}},
                    ],
                },
                {"name": "stage.d"},
            ]
        }
        assert _count_coalesced(manifest) == 2

    def test_empty_or_missing_manifest(self):
        assert _count_coalesced(None) == 0
        assert _count_coalesced({}) == 0
        assert _count_coalesced({"spans": []}) == 0


@pytest.mark.skipif(not HAVE_FCNTL, reason="single-flight needs fcntl")
class TestSingleFlightLock:
    def test_uncontended_yields_false(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with cache.single_flight("stage", {"seed": 1}) as contended:
            assert contended is False

    def test_contended_second_holder_sees_true(self, tmp_path):
        """Two processes racing one stage key: the second blocks on the
        flock and learns it waited.  Two cache objects on one root model
        the two processes (flock is per-fd, so this works in-thread via
        a worker)."""
        first = ArtifactCache(tmp_path)
        second = ArtifactCache(tmp_path)
        observed = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with first.single_flight("stage", {"seed": 1}) as contended:
                observed.append(("first", contended))
                entered.set()
                release.wait(timeout=10)

        def waiter():
            entered.wait(timeout=10)
            with second.single_flight("stage", {"seed": 1}) as contended:
                observed.append(("second", contended))

        t1 = threading.Thread(target=holder)
        t2 = threading.Thread(target=waiter)
        t1.start()
        t2.start()
        entered.wait(timeout=10)
        time.sleep(0.05)  # let the waiter reach the blocking flock
        release.set()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert ("first", False) in observed
        assert ("second", True) in observed

    def test_distinct_keys_do_not_contend(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with cache.single_flight("stage", {"seed": 1}) as a:
            with cache.single_flight("stage", {"seed": 2}) as b:
                assert a is False and b is False

    def test_clear_sweeps_released_locks_only(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("stage", {"seed": 1}, {"x": 1})
        with cache.single_flight("stage", {"seed": 1}):
            pass
        assert cache.lock_files()
        # A lock some process still holds must survive any sweep; the
        # released one above is provably dead and goes with the entries.
        with cache.single_flight("stage", {"seed": 2}):
            held = [p.name for p in cache.lock_files()]
            cache.clear()
            survivors = [p.name for p in cache.lock_files()]
            assert len(survivors) == 1 and survivors[0] in held
        assert cache.fetch("stage", {"seed": 1}) == (False, None)

    def test_prune_sweeps_stale_locks_by_age(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with cache.single_flight("stage", {"seed": 1}):
            pass
        (path,) = cache.lock_files()
        # Fresh locks survive the age gate; backdated ones are swept.
        assert cache.prune().locks_swept == 0
        old = time.time() - 7200
        os.utime(path, (old, old))
        result = cache.prune()
        assert result.locks_swept == 1
        assert cache.lock_files() == []


class _CoalescingCache:
    """Cache double: miss on first fetch, then 'another process' stores
    the artifact while we wait on the (contended) single-flight lock."""

    def __init__(self):
        self.stored = {}
        self.fetches = 0
        self.builds_stored = 0

    def fetch(self, stage, params):
        self.fetches += 1
        key = (stage, repr(sorted((params or {}).items())))
        if key in self.stored:
            return True, self.stored[key]
        return False, None

    def store(self, stage, params, value):
        key = (stage, repr(sorted((params or {}).items())))
        self.stored[key] = value
        self.builds_stored += 1

    def single_flight(self, stage, params):
        cache = self

        class _Ctx:
            def __enter__(self):
                # While "waiting" on the lock, the other process
                # finishes its build and stores the artifact.
                cache.store(stage, params, "built-elsewhere")
                cache.builds_stored -= 1  # not a local build
                return True

            def __exit__(self, *exc):
                return False

        return _Ctx()


class TestEngineCoalescedPath:
    def test_contended_miss_refetches_instead_of_building(self):
        built = []

        def build(ctx):
            built.append(1)
            return "built-locally"

        graph = StageGraph(
            (StageDef("a", build, persist=True),),
            cache=_CoalescingCache(),
        )
        tracer = Tracer()
        with tracing(tracer):
            value = graph.materialize("a")
        assert value == "built-elsewhere"
        assert built == []  # the build was coalesced away
        (span,) = [s for s in tracer.walk() if s.name == "stage.a"]
        assert span.attrs["cache"] == "hit"
        assert span.attrs["coalesced"] is True


class TestRunSweepEndToEnd:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        """One serial 1-seed × 2-driver sweep over a shared cache root.

        The second cell re-fetches the stage artifacts the first cell
        stored — the cross-cell dedup the orchestrator must surface.
        """
        root = tmp_path_factory.mktemp("sweep-cache")
        cells = expand_grid(
            parse_grid(["seed=2015", "driver=greedy,random", "max_k=2"])
        )
        streamed = []
        tracer = Tracer()
        with tracing(tracer):
            result = run_sweep(
                cells,
                isps=["Telia"],
                cache=str(root),
                workers=1,
                stream=streamed.append,
            )
        return result, streamed, tracer

    def test_cells_ok_in_grid_order(self, sweep):
        result, streamed, _ = sweep
        assert result.ok
        assert [c["cell"]["driver"] for c in result.cells] == [
            "greedy",
            "random",
        ]
        assert len(streamed) == 2
        for cell in result.cells:
            assert cell["metrics"]["gains"].keys() == {"Telia"}
            assert cell["manifest"]["spans"]

    def test_cross_cell_dedup_observed(self, sweep):
        result, _, _ = sweep
        first, second = result.cells
        assert first["cache"]["misses"] >= 1
        assert second["cache"]["hits"] >= 1
        assert second["cache"]["misses"] == 0
        dedup = result.cache_dedup()
        assert dedup["cross_cell_hits"] >= 1
        # Serial sweep: nothing races, nothing coalesces.
        assert dedup["coalesced"] == 0

    def test_aggregates_cover_both_drivers(self, sweep):
        result, _, _ = sweep
        aggregates = result.aggregates
        assert aggregates["cells"] == 2 and aggregates["cells_ok"] == 2
        assert set(aggregates["gain_per_driver"]) == {"greedy", "random"}
        assert aggregates["srr"]["n"] == 1  # one seed
        assert aggregates["errors"] == []

    def test_parent_tracer_records_cell_spans(self, sweep):
        _, _, tracer = sweep
        spans = [s for s in tracer.walk() if s.name == "sweep.cell"]
        assert len(spans) == 2
        assert {s.attrs["driver"] for s in spans} == {"greedy", "random"}

    def test_jsonable_excludes_cell_manifests(self, sweep):
        result, _, _ = sweep
        as_json = result.to_jsonable()
        assert as_json["kind"] == "sweep"
        assert all("manifest" not in cell for cell in as_json["cells"])
        assert as_json["cache_dedup"]["cross_cell_hits"] >= 1
        assert as_json["summary"]["aggregates"]["cells"] == 2

    def test_manifest_round_trip(self, sweep, tmp_path):
        result, _, _ = sweep
        path = tmp_path / "sweep_manifest.json"
        result.write_manifest(path)
        loaded = RunManifest.load(path)
        cell_spans = [s for s in loaded.spans if s["name"] == "sweep.cell"]
        assert len(cell_spans) == 2
        assert "cache_dedup" in loaded.meta
        assert len(loaded.meta["cell_manifests"]) == 2
        assert loaded.config["cells"] == 2

    def test_failed_cell_is_contained(self, tmp_path):
        """A cell whose scenario explodes comes back ok=False with a
        traceback; the sweep still completes and aggregates."""
        cells = [
            SweepCell(seed=2015, traces=400, max_k=2, driver="warp"),
        ]
        result = run_sweep(cells, isps=["Telia"], cache=False, workers=1)
        assert not result.ok
        (cell,) = result.cells
        assert cell["ok"] is False
        assert "unknown driver" in cell["error"]
        assert result.aggregates["cells_ok"] == 0
        assert result.aggregates["errors"]


class TestCacheNote:
    """``repro sweep`` warns that cells cannot share stage builds exactly
    when the cache setting resolves to no cache."""

    NOTE = "note: no shared cache root"

    def _stderr(self, monkeypatch, capsys, env, argv=()):
        import repro.sweep
        from repro.cli import main

        class _NoCells:
            ok = True
            cells = []

            def to_jsonable(self):
                return {}

        for name in ("REPRO_CACHE", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(
            repro.sweep, "run_sweep", lambda *args, **kwargs: _NoCells()
        )
        assert main(["--json", *argv, "sweep", "--grid", "seed=7"]) == 0
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "env",
        [
            {"REPRO_CACHE": "0"},
            {"REPRO_CACHE": "off", "REPRO_CACHE_DIR": "/nonexistent/x"},
            {},
        ],
    )
    def test_note_when_the_cache_is_off(self, monkeypatch, capsys, env):
        assert self.NOTE in self._stderr(monkeypatch, capsys, env)

    def test_note_under_no_cache(self, monkeypatch, capsys):
        err = self._stderr(
            monkeypatch, capsys, {"REPRO_CACHE_DIR": "/x"}, ["--no-cache"]
        )
        assert self.NOTE in err

    @pytest.mark.parametrize(
        "env", [{"REPRO_CACHE": "1"}, {"REPRO_CACHE_DIR": "/nonexistent/x"}]
    )
    def test_no_note_when_the_cache_is_on(self, monkeypatch, capsys, env):
        assert self.NOTE not in self._stderr(monkeypatch, capsys, env)
