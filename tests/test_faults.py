"""Chaos tests: deterministic fault injection against the execution layer.

The guarantees under test mirror the paper's own thesis — survive
component failure:

* a campaign whose workers are killed mid-run — in the destination-row
  phase or in a shard — still produces records byte-identical to a
  fault-free serial run, with the recovery visible as
  ``campaign.retry`` / ``campaign.degraded`` events in the manifest;
* the artifact cache survives concurrent writers, quarantines corrupt
  entries instead of re-failing on them forever, sweeps orphaned temp
  files, and degrades (rather than fails) when a store write errors.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time

import pytest

from repro.obs import (
    FaultPlan,
    InjectedWriteError,
    RunManifest,
    fault_injection,
    set_fault_injector,
    tracing,
)
from repro.obs import faults as faults_module
from repro.obs.faults import FaultInjector
from repro.perf.cache import ArtifactCache
from repro.scenario import Scenario
from repro.traceroute.campaign import CampaignConfig, run_campaign


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """Isolate every test from a ``REPRO_FAULTS`` environment spec."""
    previous = set_fault_injector(None)
    yield
    set_fault_injector(previous)


class TestFaultPlan:
    def test_from_spec_parses_all_field_kinds(self):
        plan = FaultPlan.from_spec(
            "seed=7, crash_rate=0.4, crash_shards=0:250,"
            "corrupt_stages=campaign:overlay, repeats=2"
        )
        assert plan.seed == 7
        assert plan.crash_rate == pytest.approx(0.4)
        assert plan.crash_shards == (0, 250)
        assert plan.corrupt_stages == ("campaign", "overlay")
        assert plan.repeats == 2

    def test_from_spec_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("explode=1")

    def test_any_faults(self):
        assert not FaultPlan().any_faults()
        assert FaultPlan(crash_rate=0.1).any_faults()
        assert FaultPlan(write_fail_stages=("x",)).any_faults()

    def test_rate_selection_is_deterministic_across_injectors(self, tmp_path):
        plan = FaultPlan(seed=3, corrupt_rate=0.5)
        first = FaultInjector(plan, state_dir=tmp_path / "a")
        second = FaultInjector(plan, state_dir=tmp_path / "b")
        stages = [f"stage{i}" for i in range(20)]
        picks_a = [
            first.corrupt_payload(s, b"x" * 8) != b"x" * 8 for s in stages
        ]
        picks_b = [
            second.corrupt_payload(s, b"x" * 8) != b"x" * 8 for s in stages
        ]
        assert picks_a == picks_b
        assert any(picks_a) and not all(picks_a)

    def test_rows_crashes_are_keyed_apart_from_shards(
        self, tmp_path, monkeypatch
    ):
        def exit_(code):
            raise SystemExit(code)

        monkeypatch.setattr(faults_module.os, "_exit", exit_)
        assert FaultPlan.from_spec("crash_rows=0:1").crash_rows == (0, 1)
        shards = FaultInjector(FaultPlan(crash_shards=(0,)), tmp_path / "s")
        shards.maybe_crash_rows(0)  # rows part 0 is not shard 0
        with pytest.raises(SystemExit):
            shards.maybe_crash_worker(0)
        rows = FaultInjector(FaultPlan(crash_rows=(0,)), tmp_path / "r")
        rows.maybe_crash_worker(0)
        with pytest.raises(SystemExit):
            rows.maybe_crash_rows(0)
        ambient = FaultInjector(FaultPlan(crash_rate=1.0), tmp_path / "a")
        with pytest.raises(SystemExit):
            ambient.maybe_crash_rows(0)
        with pytest.raises(SystemExit):
            ambient.maybe_crash_worker(0)

    def test_faults_fire_at_most_repeats_times(self, tmp_path):
        plan = FaultPlan(seed=1, write_fail_stages=("stage",), repeats=2)
        injector = FaultInjector(plan, state_dir=tmp_path)
        for _ in range(2):
            with pytest.raises(InjectedWriteError):
                injector.maybe_fail_write("stage")
        injector.maybe_fail_write("stage")  # third call: quiet


class TestCampaignCrashRecovery:
    """Injected worker deaths must be invisible in the record stream."""

    def test_two_killed_shards_yield_byte_identical_records(self, topology):
        # 600 traces over 2 workers shard at starts 0, 250, 500; kill
        # the workers running shards 0 and 250 (the acceptance
        # criterion's ">= 2 shards killed").
        config = CampaignConfig(num_traces=600, seed=47, retry_backoff_s=0.01)
        reference = run_campaign(topology, config, workers=1)
        with fault_injection(FaultPlan(seed=1, crash_shards=(0, 250))):
            with tracing() as tracer:
                survived = run_campaign(topology, config, workers=2)
        assert survived == reference
        names = [span.name for span in tracer.walk()]
        assert names.count("campaign.retry") >= 1
        assert names.count("campaign.shard") == 3

    def test_seeded_crash_rate_recovers(self, topology):
        config = CampaignConfig(num_traces=600, seed=47, retry_backoff_s=0.01)
        reference = run_campaign(topology, config, workers=1)
        with fault_injection(FaultPlan(seed=9, crash_rate=1.0)):
            survived = run_campaign(topology, config, workers=2)
        assert survived == reference

    def test_serial_fallback_after_repeated_pool_failures(self, topology):
        config = CampaignConfig(
            num_traces=600, seed=47,
            max_pool_restarts=1, retry_backoff_s=0.01,
        )
        reference = run_campaign(topology, config, workers=1)
        plan = FaultPlan(seed=1, crash_shards=(0, 250, 500), repeats=100)
        with fault_injection(plan):
            with tracing() as tracer:
                survived = run_campaign(topology, config, workers=2)
        assert survived == reference
        names = [span.name for span in tracer.walk()]
        assert "campaign.degraded" in names


class TestRowsPhaseRecovery:
    """Worker deaths while the pool solves the destination rows, under
    the RNG contract :attr:`CONTRACT` (a subclass reruns every case
    under the other contract: both run the same rows phase)."""

    CONTRACT = 2

    @staticmethod
    def _same_bytes(a, b):
        return all(
            x.tobytes() == y.tobytes()
            for x, y in zip(
                (a.traces, a.hop_offsets, a.hop_router, a.hop_rtt),
                (b.traces, b.hop_offsets, b.hop_router, b.hop_rtt),
            )
        )

    def test_killed_rows_task_is_replayed(self, topology):
        config = CampaignConfig(
            num_traces=600, seed=47, retry_backoff_s=0.01,
            rng_contract=self.CONTRACT,
        )
        reference = run_campaign(topology, config, workers=1)
        before = _repro_shm_entries()
        with fault_injection(FaultPlan(seed=1, crash_rows=(1,))):
            with tracing() as tracer:
                survived = run_campaign(topology, config, workers=2)
        assert self._same_bytes(survived, reference)
        names = [span.name for span in tracer.walk()]
        assert names.count("campaign.retry") >= 1
        assert "campaign.degraded" not in names
        rows = [s for s in tracer.walk() if s.name == "campaign.rows"]
        assert sorted(s.attrs["part"] for s in rows) == [0, 1]
        assert not any(s.attrs.get("degraded") for s in rows)
        assert _repro_shm_entries() == before

    def test_serial_fallback_solves_the_missing_rows(self, topology):
        config = CampaignConfig(
            num_traces=600, seed=47, max_pool_restarts=0,
            retry_backoff_s=0.01, rng_contract=self.CONTRACT,
        )
        reference = run_campaign(topology, config, workers=1)
        before = _repro_shm_entries()
        plan = FaultPlan(seed=1, crash_rows=(0, 1), repeats=100)
        with fault_injection(plan):
            with tracing() as tracer:
                survived = run_campaign(topology, config, workers=2)
        assert self._same_bytes(survived, reference)
        names = [span.name for span in tracer.walk()]
        assert "campaign.degraded" in names
        rows = [s for s in tracer.walk() if s.name == "campaign.rows"]
        assert sorted(s.attrs["part"] for s in rows) == [0, 1]
        assert all(s.attrs.get("degraded") for s in rows)
        assert _repro_shm_entries() == before


class TestRowsPhaseRecoveryV1(TestRowsPhaseRecovery):
    CONTRACT = 1


def _repro_shm_entries():
    """Names of this package's shared-memory segments left on disk."""
    from pathlib import Path

    shm = Path("/dev/shm")
    if not shm.is_dir():
        pytest.skip("platform exposes no /dev/shm to inspect")
    return sorted(p.name for p in shm.glob("repro-*"))


class TestSharedMemoryHygiene:
    """Shard segments must never outlive the campaign that made them."""

    def test_no_segments_leak_after_faulted_campaign(self, topology):
        before = _repro_shm_entries()
        config = CampaignConfig(num_traces=600, seed=47, retry_backoff_s=0.01)
        with fault_injection(FaultPlan(seed=1, crash_shards=(0, 250))):
            run_campaign(topology, config, workers=2)
        assert _repro_shm_entries() == before

    def test_no_segments_leak_after_clean_sharded_run(self, topology):
        before = _repro_shm_entries()
        config = CampaignConfig(num_traces=600, seed=47)
        run_campaign(topology, config, workers=2)
        assert _repro_shm_entries() == before

    def test_zero_size_stale_segment_is_displaced(self):
        # A worker killed between shm_open and ftruncate (the executor
        # tears down siblings when one worker dies) leaves a zero-size
        # segment that SharedMemory(name=...) cannot map.  Both the
        # shard replay and the janitor must displace it anyway.
        from repro.traceroute import campaign as campaign_mod

        if campaign_mod._posixshmem is None:
            pytest.skip("no POSIX shared memory on this platform")
        name = "repro-test-stale-0"
        fd = campaign_mod._posixshmem.shm_open(
            "/" + name, os.O_CREAT | os.O_RDWR | os.O_EXCL, 0o600
        )
        os.close(fd)
        assert name in _repro_shm_entries()
        segment = campaign_mod._create_segment(name, 64)
        try:
            assert segment.size >= 64
        finally:
            segment.unlink()
            segment.close()
        assert name not in _repro_shm_entries()
        # The janitor path on a (well-formed or malformed) leftover:
        fd = campaign_mod._posixshmem.shm_open(
            "/" + name, os.O_CREAT | os.O_RDWR | os.O_EXCL, 0o600
        )
        os.close(fd)
        campaign_mod._unlink_stale_segment(name)
        assert name not in _repro_shm_entries()

    def test_segments_swept_when_parent_stitch_fails(
        self, topology, monkeypatch
    ):
        # Simulate a parent-side failure (the KeyboardInterrupt /
        # mid-stitch crash case): every shard has already landed in
        # shared memory, then the stitch explodes.  The janitor's
        # finally-sweep must still unlink every expected segment.
        from repro.traceroute import campaign as campaign_mod

        class _ExplodingColumns:
            @staticmethod
            def concatenate(schema, parts):
                raise RuntimeError("injected stitch failure")

        before = _repro_shm_entries()
        monkeypatch.setattr(campaign_mod, "TraceColumns", _ExplodingColumns)
        config = CampaignConfig(num_traces=600, seed=47)
        with pytest.raises(RuntimeError, match="injected stitch failure"):
            run_campaign(topology, config, workers=2)
        assert _repro_shm_entries() == before

    def test_each_segment_unlinked_before_the_next_shard_is_copied(
        self, topology, monkeypatch
    ):
        # The stitch reads a shard's hop_offsets only while copying it;
        # a spy on that read snapshots /dev/shm, which must already have
        # lost the segment of every shard copied before.
        from repro.traceroute import campaign as campaign_mod
        from repro.traceroute.columns import TraceColumns

        reads = []

        class _CopySpy(TraceColumns):
            @property
            def hop_offsets(self):
                reads.append(_repro_shm_entries())
                return self.__dict__["hop_offsets"]

            @hop_offsets.setter
            def hop_offsets(self, value):
                self.__dict__["hop_offsets"] = value

        real_unpack = campaign_mod.unpack_shard

        def spy_unpack(*args):
            columns = real_unpack(*args)
            columns.__class__ = _CopySpy
            return columns

        before = _repro_shm_entries()
        monkeypatch.setattr(campaign_mod, "unpack_shard", spy_unpack)
        config = CampaignConfig(num_traces=1000, seed=47)
        columns = run_campaign(topology, config, workers=2)
        assert len(columns) == 1000
        shards = sorted(
            set(reads[0]) - set(before),
            key=lambda name: int(name.rsplit("-", 1)[1], 16),
        )
        assert len(reads) == len(shards) == 4
        for k, entries in enumerate(reads):
            assert set(entries) - set(before) == set(shards[k:]), (
                f"shard {k} copied while earlier segments were still linked"
            )
        assert _repro_shm_entries() == before

    def test_stitch_failing_after_its_first_release_leaves_no_segment(
        self, topology, monkeypatch
    ):
        from repro.traceroute import campaign as campaign_mod

        real_release = campaign_mod._ShardSegments.release
        released = []

        def release_then_fail(self, name):
            real_release(self, name)
            released.append(name)
            raise RuntimeError("injected failure after a release")

        before = _repro_shm_entries()
        monkeypatch.setattr(
            campaign_mod._ShardSegments, "release", release_then_fail
        )
        config = CampaignConfig(num_traces=1000, seed=47)
        with pytest.raises(RuntimeError, match="after a release"):
            run_campaign(topology, config, workers=2)
        assert len(released) == 1
        assert _repro_shm_entries() == before

    @pytest.mark.parametrize("contract", [1, 2])
    def test_stitched_columns_match_serial_at_every_worker_count(
        self, topology, contract
    ):
        before = _repro_shm_entries()
        config = CampaignConfig(
            num_traces=1000, seed=47, rng_contract=contract
        )
        serial = run_campaign(topology, config, workers=1)
        for workers in (2, 3, 16):
            sharded = run_campaign(topology, config, workers=workers)
            assert sharded == serial, f"workers={workers} changed the bytes"
            assert sharded.traces.tobytes() == serial.traces.tobytes()
            assert sharded.hop_rtt.tobytes() == serial.hop_rtt.tobytes()
        assert _repro_shm_entries() == before


class TestConcurrentCacheWriters:
    def test_two_writers_on_one_key_never_corrupt(self, tmp_path):
        rounds = 12
        errors = []

        def writer(tag):
            cache = ArtifactCache(tmp_path)
            try:
                for i in range(rounds):
                    cache.store(
                        "stage", {"seed": 1}, {"writer": tag, "round": i}
                    )
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(tag,)) for tag in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        hit, value = ArtifactCache(tmp_path).fetch("stage", {"seed": 1})
        assert hit
        assert value["writer"] in ("a", "b")
        assert value["round"] == rounds - 1

    def test_concurrent_writer_processes_never_corrupt(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=2) as pool:
            list(
                pool.map(
                    _store_many, [(str(tmp_path), "a"), (str(tmp_path), "b")]
                )
            )
        hit, value = ArtifactCache(tmp_path).fetch("stage", {"seed": 1})
        assert hit and value["writer"] in ("a", "b")


class TestCorruptEntryRecovery:
    def test_corrupt_entry_quarantined_on_first_failed_fetch(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.store("stage", {}, [1, 2, 3])
        path.write_bytes(b"not a pickle")
        hit, value = cache.fetch("stage", {})
        assert not hit and value is None
        # The poisoned file is out of the lookup path: no later run
        # re-reads it, and the entry rebuilds cleanly.
        assert not path.exists()
        assert len(cache.quarantined_files()) == 1
        assert cache.quarantined_count == 1
        cache.store("stage", {}, [1, 2, 3])
        assert cache.fetch("stage", {}) == (True, [1, 2, 3])

    def test_missing_entry_is_a_plain_miss_without_quarantine(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.fetch("stage", {}) == (False, None)
        assert cache.quarantined_files() == []

    def test_injected_store_corruption_recovers_via_quarantine(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with fault_injection(FaultPlan(seed=2, corrupt_stages=("stage",))):
            cache.store("stage", {}, {"v": 1})
            hit, _ = cache.fetch("stage", {})
            assert not hit
            assert len(cache.quarantined_files()) == 1
            # The fault fires once; the rebuild round-trips.
            cache.store("stage", {}, {"v": 1})
            assert cache.fetch("stage", {}) == (True, {"v": 1})

    def test_injected_write_failure_degrades_scenario(self, tmp_path):
        plan = FaultPlan(seed=3, write_fail_stages=("ground_truth",))
        with fault_injection(plan):
            with tracing() as tracer:
                scenario = Scenario(
                    seed=81, campaign_traces=50, cache=tmp_path
                )
                truth = scenario.ground_truth
        assert truth is not None
        assert not any(
            e.stage == "ground_truth" for e in ArtifactCache(tmp_path).entries()
        )
        names = [span.name for span in tracer.walk()]
        assert "cache.degraded" in names and "faults.write_fail" in names


class TestOrphanSweeping:
    def test_orphans_reported_and_cleared(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("stage", {}, "x")
        orphan = tmp_path / "stray-123.tmp"
        orphan.write_bytes(b"partial write")
        assert cache.orphan_tmp_files() == [orphan]
        assert [e.stage for e in cache.entries()] == ["stage"]
        assert "orphaned temp files: 1" in cache.info_text()
        assert cache.clear() == 2  # the entry AND the orphan
        assert not orphan.exists()
        assert "empty" in cache.info_text()

    def test_sweep_respects_age_guard(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        fresh = tmp_path / "fresh.tmp"
        fresh.write_bytes(b"in-flight")
        stale = tmp_path / "stale.tmp"
        stale.write_bytes(b"dead")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        assert cache.prune().orphans_swept == 1  # default hour-long guard
        assert fresh.exists() and not stale.exists()
        assert cache.prune(orphan_age_s=0.0).orphans_swept == 1
        assert not fresh.exists()


class TestPrune:
    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        paths = {
            name: cache.store(name, {}, os.urandom(2000))
            for name in ("oldest", "middle", "newest")
        }
        for age, name in ((300, "oldest"), (200, "middle"), (100, "newest")):
            stamp = time.time() - age
            os.utime(paths[name], (stamp, stamp))
        budget = paths["newest"].stat().st_size + 10
        result = cache.prune(max_bytes=budget)
        assert result.evicted == 2
        assert [e.stage for e in cache.entries()] == ["newest"]
        assert result.bytes_remaining <= budget

    def test_fetch_refreshes_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        a = cache.store("a", {}, os.urandom(1000))
        b = cache.store("b", {}, os.urandom(1000))
        old = time.time() - 500
        os.utime(a, (old, old))
        os.utime(b, (old - 100, old - 100))
        cache.fetch("b", {})  # touch: b becomes the most recent
        result = cache.prune(max_bytes=b.stat().st_size + 10)
        assert result.evicted == 1
        assert [e.stage for e in cache.entries()] == ["b"]

    def test_prune_sweeps_quarantine_and_orphans(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.store("stage", {}, "x")
        path.write_bytes(b"garbage")
        cache.fetch("stage", {})  # quarantines
        orphan = tmp_path / "dead.tmp"
        orphan.write_bytes(b"y")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        result = cache.prune()
        assert result.quarantine_removed == 1
        assert result.orphans_swept == 1
        assert result.evicted == 0  # no size bound given
        assert cache.quarantined_files() == [] and not orphan.exists()

    def test_prune_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = ArtifactCache(tmp_path)
        cache.store("stage", {}, os.urandom(4000))
        assert main([
            "--cache-dir", str(tmp_path), "--json",
            "cache", "prune", "--max-mb", "0",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evicted"] == 1
        assert payload["bytes_remaining"] == 0
        assert cache.entries() == []


class TestManifestAtomicWrite:
    def test_write_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        manifest = RunManifest(spans=[], config={"seed": 1})
        target = tmp_path / "nested" / "manifest.json"
        manifest.write(target)
        loaded = RunManifest.load(target)
        assert loaded.config == {"seed": 1}
        assert list(target.parent.glob("*.tmp")) == []

    def test_failed_write_leaves_previous_manifest_intact(self, tmp_path):
        target = tmp_path / "manifest.json"
        RunManifest(spans=[], config={"seed": 1}).write(target)
        bad = RunManifest(
            spans=[{
                "name": "x", "duration_s": 0.0,
                "attrs": {"oops": object()},  # not JSON-serializable
            }],
            config={"seed": 2},
            code_version="x",
        )
        with pytest.raises(TypeError):
            bad.write(target)
        # The original file survives untouched and parseable.
        assert RunManifest.load(target).config == {"seed": 1}
        assert list(tmp_path.glob("*.tmp")) == []


def _store_many(args):
    """Process-pool helper: hammer one cache key from a child process."""
    root, tag = args
    cache = ArtifactCache(root)
    for i in range(10):
        cache.store("stage", {"seed": 1}, {"writer": tag, "round": i})
    return tag
