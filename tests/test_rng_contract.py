"""RNG contract tests: v1 compatibility, v2 identities, edge cases.

The campaign's draws are a versioned contract (see DESIGN §14).  This
suite pins both sides of it:

* contract v1 — the legacy per-trace ``random.Random`` streams — must
  keep reproducing the pre-v2 golden records byte-for-byte, forever;
* contract v2 — the counter-based vectorized Philox streams — must be
  worker-count- and batch-size-invariant by construction, match its
  scalar reference implementation, and never collide with v1 artifacts
  (schema digests, shard manifests, npz payloads).

The explicit ``rng_contract=`` arguments make every test here
independent of the ambient ``REPRO_RNG_CONTRACT`` default, so the
rng-compat CI job can run this file under either contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.traceroute.campaign import (
    CampaignConfig,
    _CampaignPlan,
    run_campaign,
)
from repro.traceroute.columns import (
    ColumnSchema,
    columns_from_npz_bytes,
    columns_to_npz_bytes,
)
from repro.traceroute.geolocate import GeolocationDatabase
from repro.traceroute.probe import ProbeEngine
from repro.traceroute import rngv2
from tests.oracles.campaign import build_rows_scalar, trace_record_v2
from tests.test_golden_hashes import record_digest

#: The pre-v2 campaign goldens (recorded against PR 3, seed 2020 — the
#: test scenario's derived campaign seed — 3000 traces).  Contract v1
#: must reproduce these regardless of the ambient default contract.
V1_GOLDEN_FIRST = "4094afdbb746d804"
V1_GOLDEN_LAST = "be933529a7a71663"


def _columns_equal(a, b) -> bool:
    return (
        np.array_equal(a.traces, b.traces)
        and np.array_equal(a.hop_offsets, b.hop_offsets)
        and np.array_equal(a.hop_router, b.hop_router)
        and np.array_equal(a.hop_rtt, b.hop_rtt)
    )


def _config(**kwargs) -> CampaignConfig:
    kwargs.setdefault("seed", 2020)
    return CampaignConfig(**kwargs)


class TestV1Golden:
    def test_v1_reproduces_pre_v2_goldens(self, topology):
        columns = run_campaign(
            topology, _config(num_traces=3000, rng_contract=1)
        )
        assert columns.rng_contract == 1
        assert record_digest(columns[0]) == V1_GOLDEN_FIRST
        assert record_digest(columns[-1]) == V1_GOLDEN_LAST


class TestWorkerInvariance:
    @pytest.mark.parametrize("contract", [1, 2])
    def test_byte_identity_across_worker_counts(self, topology, contract):
        serial = run_campaign(
            topology, _config(num_traces=900, rng_contract=contract)
        )
        for workers in (2, 3):
            sharded = run_campaign(
                topology,
                _config(
                    num_traces=900, workers=workers, rng_contract=contract
                ),
            )
            assert sharded.rng_contract == contract
            assert _columns_equal(serial, sharded), (
                f"contract v{contract} diverged at workers={workers}"
            )

    @pytest.mark.parametrize("contract", [1, 2])
    def test_workers_exceed_traces(self, topology, contract):
        serial = run_campaign(
            topology, _config(num_traces=5, rng_contract=contract)
        )
        crowd = run_campaign(
            topology,
            _config(num_traces=5, workers=16, rng_contract=contract),
        )
        assert len(crowd) == 5
        assert _columns_equal(serial, crowd)

    def test_batch_size_never_changes_bytes(self, topology):
        # 900 traces with batch 128 → 8 batches (one ragged); batch 7
        # → 129 batches; batch larger than the campaign → one batch.
        reference = run_campaign(
            topology, _config(num_traces=900, rng_contract=2)
        )
        for batch_size in (7, 128, 4096):
            columns = run_campaign(
                topology,
                _config(
                    num_traces=900, rng_contract=2, batch_size=batch_size
                ),
            )
            assert _columns_equal(reference, columns), (
                f"batch_size={batch_size} changed the column bytes"
            )

    def test_shards_not_divisible_by_batch_size(self, topology):
        # 3 workers × 300-trace shards with batch 128: every shard has
        # a ragged final batch, and shard starts are not batch-aligned.
        serial = run_campaign(
            topology,
            _config(num_traces=900, rng_contract=2, batch_size=128),
        )
        sharded = run_campaign(
            topology,
            _config(
                num_traces=900, workers=3, rng_contract=2, batch_size=128
            ),
        )
        assert _columns_equal(serial, sharded)


class TestScalarReference:
    def test_batch_records_match_scalar_reference(self, topology):
        config = _config(num_traces=600, rng_contract=2)
        columns = run_campaign(topology, config)
        engine = ProbeEngine(topology, seed=config.seed + 1)
        plan = _CampaignPlan(topology, config)
        for index in (0, 1, 17, 599):
            assert repr(columns[index]) == repr(
                trace_record_v2(engine, plan, config, index)
            )

    def test_vectorized_templates_match_engine_templates(self, topology):
        # The canary for the vectorized template builder: its padded
        # rows must be bit-identical to the scalar oracle's (which
        # wraps ``engine._hop_template``), for every pair a campaign
        # actually draws.
        config = _config(num_traces=600, rng_contract=2)
        engine = ProbeEngine(topology, seed=config.seed + 1)
        plan = _CampaignPlan(topology, config)
        rngv2.generate_columns_v2(engine, plan, config, 0, 600)
        tables, core_tables, store = rngv2._v2_state(engine, plan)
        codes = np.array(sorted(store._row_of), dtype=np.int64)
        reference = rngv2._TemplateStore()
        rows = store.rows_for(tables, core_tables, codes)
        build_rows_scalar(reference, engine, tables, codes)
        ref_rows = np.array(
            [reference._row_of[code] for code in codes.tolist()],
            dtype=np.int64,
        )
        assert np.array_equal(store.counts[rows], reference.counts[ref_rows])
        assert np.array_equal(
            store.endpoints[rows], reference.endpoints[ref_rows]
        )
        width = int(store.counts[rows].max())
        mask = np.arange(width) < store.counts[rows][:, None]
        assert np.array_equal(
            store.router_pad[rows][:, :width][mask],
            reference.router_pad[ref_rows][:, :width][mask],
        )
        assert np.array_equal(
            store.cum_pad[rows][:, :width][mask],
            reference.cum_pad[ref_rows][:, :width][mask],
        )


class TestContractThreading:
    def test_campaign_config_rejects_unknown_contract(self):
        with pytest.raises(ValueError, match="rng_contract"):
            _config(num_traces=10, rng_contract=3)

    def test_scenario_config_rejects_unknown_contract(self):
        from repro.scenario import ScenarioConfig

        with pytest.raises(ValueError, match="rng_contract"):
            ScenarioConfig(seed=2015, rng_contract=7)

    def test_schema_digest_separates_contracts(self, topology):
        schema = ColumnSchema.from_topology(topology)
        v1 = schema.digest(rng_contract=1)
        v2 = schema.digest(rng_contract=2)
        assert v1 == schema.digest()  # v1 keeps the historical digest
        assert v1 != v2

    def test_npz_round_trip_carries_contract(self, topology):
        for contract in (1, 2):
            columns = run_campaign(
                topology, _config(num_traces=40, rng_contract=contract)
            )
            restored = columns_from_npz_bytes(
                columns_to_npz_bytes(columns)
            )
            assert restored.rng_contract == contract
            assert _columns_equal(columns, restored)

    def test_mixed_contract_concatenate_rejected(self, topology):
        v1 = run_campaign(topology, _config(num_traces=20, rng_contract=1))
        v2 = run_campaign(topology, _config(num_traces=20, rng_contract=2))
        from repro.traceroute.columns import TraceColumns

        with pytest.raises(ValueError, match="contract"):
            TraceColumns.concatenate(v1.schema, [v1, v2])

    def test_sweep_axis_parses_and_validates(self):
        from repro.sweep.grid import SweepCell, expand_grid, parse_grid

        axes = parse_grid(["seed=2015", "rng_contract=1,2"])
        cells = expand_grid(axes)
        assert [c.rng_contract for c in cells] == [1, 2]
        assert all(isinstance(c, SweepCell) for c in cells)
        with pytest.raises(ValueError, match="rng_contract"):
            parse_grid(["rng_contract=3"])

    def test_stage_cache_keys_separate_contracts(self):
        from repro.families import DEFAULT_FAMILY, get_family

        family = get_family(DEFAULT_FAMILY)
        v1 = {s.name: s.cache_params for s in family.stage_table()}
        v2 = {
            s.name: s.cache_params
            for s in family.stage_table(rng_contract=2)
        }
        for stage in ("campaign", "overlay"):
            assert "rng_contract" not in v1[stage]  # historical keys
            assert "rng_contract" in v2[stage]
        # Draw-independent stages keep identical keys either way.
        assert v1["ground_truth"] == v2["ground_truth"]
        assert v1["constructed_map"] == v2["constructed_map"]


class TestGeolocation:
    def test_v1_contract_keeps_historical_picks(self, topology):
        # The v1 path must replay the original sequential-Mersenne
        # construction exactly: one Random(seed), choice() per near-miss.
        import random

        from repro.data.cities import CITIES, city_by_name
        from repro.fibermap.synthesis import _stable_unit

        db = GeolocationDatabase(topology, seed=57, rng_contract=1)
        rng = random.Random(57)
        for isp in topology.providers():
            for router in topology.routers_of(isp):
                u = _stable_unit(f"geo|{router.ip}|57")
                if u < 0.85:
                    expected = router.city_key
                elif u < 0.95:
                    true_city = city_by_name(router.city_key)
                    pool = [
                        c
                        for c in CITIES
                        if c.key != true_city.key
                        and true_city.distance_km(c) < 150.0
                    ]
                    expected = (
                        rng.choice(sorted(pool, key=lambda c: c.key)).key
                        if pool
                        else router.city_key
                    )
                else:
                    expected = None
                assert db.locate(router.ip) == expected

    def test_v2_contract_is_deterministic(self, topology):
        a = GeolocationDatabase(topology, seed=57, rng_contract=2)
        b = GeolocationDatabase(topology, seed=57, rng_contract=2)
        assert a.rng_contract == 2
        assert len(a) == len(b) > 0
        assert all(a.locate(ip) == b.locate(ip) for ip in a._entries)

    def test_rejects_unknown_contract(self, topology):
        with pytest.raises(ValueError, match="rng_contract"):
            GeolocationDatabase(topology, rng_contract=9)
