"""Columnar campaign store: identity, views, transport, serialization.

The invariants the columnar pipeline must hold:

* the column arrays are byte-identical whether a campaign runs serially
  or sharded over any number of workers (the shared-memory transport
  and stitch add nothing and lose nothing);
* the columns' lazy record view (:meth:`TraceColumns.record`, indexing
  and iteration) reconstructs exactly the records the legacy object
  path produces (same strings, same float64 RTTs), so
  every golden hash pinned on record reprs still holds;
* the streaming overlay consumes columns batch-by-batch and lands on
  the same full state (conduit traffic in insertion order, counters,
  resolved segment keys) as the record-by-record path and the per-hop
  loop, at every batch size;
* the ``.npz`` artifact round-trips losslessly through the cache with
  ``allow_pickle=False``, and corrupt entries quarantine like pickles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.cache import ArtifactCache
from repro.traceroute.campaign import (
    CampaignConfig,
    _CampaignPlan,
    run_campaign,
)
from repro.traceroute.columns import (
    TraceColumns,
    columns_from_npz_bytes,
    columns_to_npz_bytes,
)
from repro.traceroute import overlay as overlay_module
from repro.traceroute.overlay import EAST_TO_WEST, WEST_TO_EAST, TrafficOverlay
from repro.traceroute.probe import ProbeEngine, TracerouteRecord
from tests.oracles.campaign import trace_for_index
from tests.oracles.overlay import (
    LoopTrafficOverlay,
    ReferenceTrafficOverlay,
    overlay_state,
)


@pytest.fixture(scope="module")
def campaign_config():
    return CampaignConfig(num_traces=600, seed=47)


@pytest.fixture(scope="module")
def serial_columns(topology, campaign_config):
    return run_campaign(topology, campaign_config, workers=1)


class TestShardedByteIdentity:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_equals_serial(
        self, topology, campaign_config, serial_columns, workers
    ):
        sharded = run_campaign(topology, campaign_config, workers=workers)
        assert sharded == serial_columns
        # Equality above compares values; the contract is stronger —
        # identical bytes in every column.
        assert sharded.traces.tobytes() == serial_columns.traces.tobytes()
        assert (
            sharded.hop_offsets.tobytes()
            == serial_columns.hop_offsets.tobytes()
        )
        assert (
            sharded.hop_router.tobytes()
            == serial_columns.hop_router.tobytes()
        )
        assert sharded.hop_rtt.tobytes() == serial_columns.hop_rtt.tobytes()

    def test_concatenate_rebases_offsets(self, serial_columns):
        parts = [
            TraceColumns(
                serial_columns.schema,
                batch.traces,
                batch.hop_offsets,
                batch.hop_router,
                batch.hop_rtt,
                rng_contract=serial_columns.rng_contract,
            )
            for batch in serial_columns.iter_batches(batch_size=150)
        ]
        assert len(parts) == 4
        stitched = TraceColumns.concatenate(serial_columns.schema, parts)
        assert stitched == serial_columns


class TestRecordsView:
    def test_records_match_legacy_object_path(
        self, topology, campaign_config, serial_columns
    ):
        engine = ProbeEngine(topology, seed=campaign_config.seed + 1)
        plan = _CampaignPlan(topology, campaign_config)
        topology.routing_core().prepare(plan.dest_nodes)
        for index in range(len(serial_columns)):
            legacy = trace_for_index(engine, plan, campaign_config, index)
            rebuilt = serial_columns.record(index)
            assert isinstance(rebuilt, TracerouteRecord)
            assert repr(rebuilt) == repr(legacy)

    def test_sequence_protocol(self, serial_columns):
        assert len(serial_columns) == 600
        assert serial_columns[0] == serial_columns.record(0)
        assert serial_columns[-1] == serial_columns.record(599)
        sliced = serial_columns[10:13]
        assert isinstance(sliced, list) and len(sliced) == 3
        assert sliced[0] == serial_columns.record(10)
        records = list(serial_columns)
        assert len(records) == 600
        assert records[:2] == [serial_columns.record(i) for i in (0, 1)]

    def test_record_fields_are_plain_python(self, serial_columns):
        record = serial_columns.record(0)
        assert type(record.src_city) is str
        assert type(record.hops[0].rtt_ms) is float


class TestBatchStreaming:
    def test_iter_batches_covers_all_rows(self, serial_columns):
        total = 0
        hop_total = 0
        for batch in serial_columns.iter_batches(batch_size=128):
            count = len(batch.traces)
            assert batch.start == total
            assert batch.hop_offsets[0] == 0
            assert batch.hop_offsets[-1] == len(batch.hop_router)
            total += count
            hop_total += len(batch.hop_router)
        assert total == len(serial_columns)
        assert hop_total == serial_columns.num_hops

    def test_overlay_streaming_matches_record_path(
        self, scenario, global_scenario, serial_columns, monkeypatch
    ):
        for world, columns in (
            (scenario, serial_columns),
            (global_scenario, global_scenario.campaign),
        ):
            args = (world.constructed_map, world.topology, world.geolocation)
            by_records = ReferenceTrafficOverlay(*args)
            for record in columns:
                by_records.add_trace(record)
            expected = overlay_state(by_records)
            assert expected[0], "the campaign must credit some conduit"
            # Batch sizes from one trace per window to the whole
            # campaign in one, so every batch boundary is crossed.
            for batch_size in (1, 7, 100, 8192):
                monkeypatch.setattr(
                    overlay_module, "INGEST_BATCH_SIZE", batch_size
                )
                by_loop = LoopTrafficOverlay(*args)
                by_loop.add_traces(columns)
                by_columns = TrafficOverlay(*args)
                by_columns.add_traces(columns)
                assert overlay_state(by_loop) == expected
                assert overlay_state(by_columns) == expected
                for direction in (WEST_TO_EAST, EAST_TO_WEST):
                    assert (
                        by_columns.top_conduits(direction, 100)
                        == by_records.top_conduits(direction, 100)
                    )
                assert (
                    by_columns.isp_conduit_usage()
                    == by_records.isp_conduit_usage()
                )


class TestNpzSerialization:
    def test_round_trip(self, serial_columns):
        payload = columns_to_npz_bytes(serial_columns)
        rebuilt = columns_from_npz_bytes(payload)
        assert rebuilt == serial_columns
        contract = serial_columns.rng_contract
        assert rebuilt.schema.digest(contract) == (
            serial_columns.schema.digest(contract)
        )

    def test_cache_stores_columns_as_npz(self, tmp_path, serial_columns):
        cache = ArtifactCache(tmp_path)
        params = {"seed": 47}
        path = cache.store("campaign", params, serial_columns)
        assert path.suffix == ".npz"
        assert cache.contains("campaign", params)
        hit, value = cache.fetch("campaign", params)
        assert hit
        assert isinstance(value, TraceColumns)
        assert value == serial_columns
        assert [e.stage for e in cache.entries()] == ["campaign"]

    def test_corrupt_npz_entry_quarantines(self, tmp_path, serial_columns):
        cache = ArtifactCache(tmp_path)
        params = {"seed": 47}
        path = cache.store("campaign", params, serial_columns)
        path.write_bytes(b"\x00" * 64)
        hit, value = cache.fetch("campaign", params)
        assert not hit and value is None
        assert cache.quarantined_count == 1
        assert cache.quarantined_files()
        # The poisoned entry is out of the lookup path: next fetch is a
        # plain miss, not another quarantine.
        hit, _ = cache.fetch("campaign", params)
        assert not hit
        assert cache.quarantined_count == 1

    def test_npz_rejects_pickled_payloads(self, serial_columns):
        import io
        import pickle

        buffer = io.BytesIO()
        np.savez(buffer, junk=np.array([{"a": 1}], dtype=object))
        with pytest.raises((ValueError, KeyError, pickle.UnpicklingError)):
            columns_from_npz_bytes(buffer.getvalue())


class TestColumnsFootprint:
    def test_nbytes_accounts_all_arrays(self, serial_columns):
        expected = (
            serial_columns.traces.nbytes
            + serial_columns.hop_offsets.nbytes
            + serial_columns.hop_router.nbytes
            + serial_columns.hop_rtt.nbytes
        )
        assert serial_columns.nbytes == expected
        # The whole point: far under the object path's footprint (a
        # 600-trace campaign of records costs megabytes of PyObjects).
        assert serial_columns.nbytes < 200 * len(serial_columns)
