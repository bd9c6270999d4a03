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

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs import FaultPlan, fault_injection, tracing
from repro.perf.routing import SOLVE_CHUNK_ROWS
from repro.perf.substrate import GraphView
from repro.traceroute import campaign as campaign_module
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
from tests.oracles.campaign import (
    build_rows_scalar,
    family_campaign_config,
    trace_record_v2,
)
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

    def test_v1_stream_cap_never_changes_bytes(self, topology, monkeypatch):
        # A v1 batch draws its hop noise every _V1_MAX_STREAMS traces;
        # with a cap of 7 a 900-trace batch does so 129 times (the last
        # one ragged), yet every trace draws the same noise.
        reference = run_campaign(
            topology, _config(num_traces=900, rng_contract=1)
        )
        monkeypatch.setattr(campaign_module, "_V1_MAX_STREAMS", 7)
        capped = run_campaign(
            topology, _config(num_traces=900, rng_contract=1)
        )
        assert _columns_equal(reference, capped)

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


#: The first 16 hex digits of the SHA-256 of a 2001-trace global2023
#: campaign's four column arrays (seed 2020), per contract: the bytes
#: every batch size must reproduce.  The global2023 router graph does
#: not depend on the interpreter's hash seed, so these hold in any
#: process.
PRESIZED_GOLDENS = {1: "3302b33e848d8958", 2: "451c5fbf1c9d1789"}


@pytest.mark.parametrize("contract", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 7, 8192])
def test_presized_output_keeps_the_concatenated_bytes(
    global_scenario, contract, batch_size
):
    # 2001 traces: one trace per batch, a ragged last batch of 7, and
    # one batch larger than the campaign.
    columns = run_campaign(
        global_scenario.topology,
        family_campaign_config(
            global_scenario, num_traces=2001, seed=2020,
            rng_contract=contract, batch_size=batch_size,
        ),
    )
    digest = hashlib.sha256()
    for array in (columns.traces, columns.hop_offsets, columns.hop_router,
                  columns.hop_rtt):
        digest.update(array.tobytes())
    assert digest.hexdigest()[:16] == PRESIZED_GOLDENS[contract]


#: Traces of the reference campaign the property reads prefixes of.
PROPERTY_TRACES = 1200

#: That reference campaign per map family, built on first use.
_REFERENCES: dict = {}


def _prefix(columns, count):
    """The first *count* traces of *columns*."""
    hops = int(columns.hop_offsets[count])
    return (
        columns.traces[:count],
        columns.hop_offsets[: count + 1],
        columns.hop_router[:hops],
        columns.hop_rtt[:hops],
    )


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    num_traces=st.integers(1, PROPERTY_TRACES),
    batch_size=st.integers(1, 4096),
    workers=st.integers(1, 3),
)
@example(num_traces=900, batch_size=128, workers=3)
def test_v2_columns_ignore_batch_trace_and_worker_counts(
    family_scenario, num_traces, batch_size, workers
):
    # Stream positions are absolute trace indices, so any campaign is
    # the byte-for-byte prefix of a longer one, however it is batched
    # and sharded.
    family = family_scenario.config.family
    if family not in _REFERENCES:
        _REFERENCES[family] = run_campaign(
            family_scenario.topology,
            family_campaign_config(
                family_scenario, num_traces=PROPERTY_TRACES, seed=2020,
                rng_contract=2,
            ),
        )
    columns = run_campaign(
        family_scenario.topology,
        family_campaign_config(
            family_scenario, num_traces=num_traces, seed=2020,
            rng_contract=2, batch_size=batch_size, workers=workers,
        ),
    )
    got = (columns.traces, columns.hop_offsets, columns.hop_router,
           columns.hop_rtt)
    want = _prefix(_REFERENCES[family], num_traces)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestPoolTables:
    def test_workers_inherit_the_parents_v2_tables(self, topology):
        # The pool initializer adopts the tables the parent built
        # instead of building its own ...
        config = _config(num_traces=600, rng_contract=2)
        plan = _CampaignPlan(topology, config)
        pred = np.empty(
            (len(plan.dest_nodes), topology.routing_core().num_nodes),
            dtype=np.int32,
        )
        schema = ColumnSchema.from_topology(topology)
        shared = rngv2.build_v2_tables(topology, schema, plan, pred)
        saved = campaign_module._WORKER_STATE
        try:
            campaign_module._init_worker(
                topology, config, plan, shared, schema
            )
            engine, worker_plan, _config_, _token = (
                campaign_module._WORKER_STATE
            )
        finally:
            campaign_module._WORKER_STATE = saved
        assert worker_plan is plan
        tables, core_tables, store = rngv2._v2_state(engine, plan)
        assert tables is shared[0] and core_tables is shared[1]
        assert store.size == 0
        # ... and the parent's column schema instead of rebuilding it.
        assert engine.column_schema() is schema

    def test_shard_spans_report_templates_built(self, topology):
        config = _config(num_traces=900, workers=2, rng_contract=2)
        with tracing() as tracer:
            columns = run_campaign(topology, config)
        spans = [
            span for span in tracer.to_dicts()[0]["children"]
            if span["name"] == "campaign.shard"
        ]
        built = [span["attrs"]["templates_built"] for span in spans]
        assert len(spans) == 4 and all(b >= 0 for b in built)
        # Every trace's pair was built by some worker at least once.
        engine = ProbeEngine(topology, seed=config.seed + 1)
        plan = _CampaignPlan(topology, config)
        rngv2.generate_columns_v2(engine, plan, config, 0, len(columns))
        distinct = rngv2._v2_state(engine, plan)[2].size
        assert distinct <= sum(built) <= 2 * distinct

    @pytest.mark.parametrize("contract", [1, 2])
    def test_the_pool_solves_each_destination_row_once(
        self, topology, monkeypatch, contract
    ):
        # The rows tasks split the destinations between the workers, so
        # the parent runs no Dijkstra and each reachable destination's
        # row is solved exactly once, under either contract.  A pickled
        # copy of the topology starts with an empty row cache.
        fresh = pickle.loads(pickle.dumps(topology))
        config = _config(num_traces=900, workers=2, rng_contract=contract)
        parent_solves = []
        solve = GraphView.dijkstra

        def spy(view, sources, *args, **kwargs):
            # Forked workers append to their own copy of the list.
            parent_solves.append(len(sources))
            return solve(view, sources, *args, **kwargs)

        monkeypatch.setattr(GraphView, "dijkstra", spy)
        with tracing() as tracer:
            columns = run_campaign(fresh, config)
        monkeypatch.undo()
        assert parent_solves == []
        core = fresh.routing_core()
        assert core._rows == {}
        spans = [s for s in tracer.walk() if s.name == "campaign.rows"]
        assert sorted(s.attrs["part"] for s in spans) == [0, 1]
        reachable = {
            node for node in _CampaignPlan(fresh, config).dest_nodes
            if fresh.has_router(*node) and node in core.index
        }
        solved = sum(s.attrs["rows_solved"] for s in spans)
        assert solved == len(reachable) > 0
        serial = run_campaign(
            topology,
            _config(num_traces=900, workers=1, rng_contract=contract),
        )
        assert _columns_equal(columns, serial)


def test_only_v2_has_a_hop_noise_budget(topology, monkeypatch):
    # The 64-slot limit belongs to v2's noise stream, not to the shared
    # template store: with the budget shrunk below the deepest path, a
    # v2 campaign raises and a v1 campaign draws the same bytes.
    configs = {
        contract: _config(num_traces=300, rng_contract=contract)
        for contract in (1, 2)
    }
    v1 = run_campaign(topology, configs[1])
    assert int(np.diff(v1.hop_offsets).max()) > 3
    monkeypatch.setattr(rngv2, "HOP_NOISE_BUDGET", 3)
    with pytest.raises(RuntimeError, match="budgets 3 noise slots"):
        run_campaign(topology, configs[2])
    assert _columns_equal(run_campaign(topology, configs[1]), v1)


class TestOneRowStack:
    """A serial campaign and the topology's routing core share one copy
    of the destination rows, under either contract (both draw against
    the same stack)."""

    @pytest.mark.parametrize("contract", [1, 2])
    def test_the_core_caches_views_of_the_serial_stack(
        self, family_scenario, contract
    ):
        # A pickled copy starts with an empty row cache; three rows
        # cached beforehand take the copy path, the rest are solved
        # straight into the stack.
        fresh = pickle.loads(pickle.dumps(family_scenario.topology))
        config = family_campaign_config(
            family_scenario, num_traces=300, seed=2020,
            rng_contract=contract,
        )
        plan = _CampaignPlan(fresh, config)
        core = fresh.routing_core()
        live = [node for node in plan.dest_nodes
                if fresh.has_router(*node) and node in core.index]
        assert core.prepare(live[:3]) == 3
        engine = ProbeEngine(fresh, seed=config.seed + 1)
        columns = campaign_module._shard_columns(engine, plan, config, 0, 300)
        assert _columns_equal(columns, run_campaign(
            family_scenario.topology, config
        ))
        stack = rngv2._v2_state(engine, plan)[1].pred
        assert len(core._rows) == len(live) > 3
        for row in core._rows.values():
            # A predecessor row, no (dist, pred) pair, in the stack.
            assert isinstance(row, np.ndarray) and row.dtype == np.int32
            assert np.shares_memory(row, stack)
        # Later readers reuse the rows: no solve, no second copy.
        cached = dict(core._rows)
        routes = core.routes([(live[0], live[-1]), (live[1], live[2])])
        assert routes.paths[0] is not None
        assert all(core._rows[k] is row for k, row in cached.items())
        assert len(core._rows) == len(cached)

    @pytest.mark.parametrize("contract", [1, 2])
    def test_the_pools_fallback_rows_stay_out_of_the_core(
        self, topology, contract
    ):
        # Every rows task dies, so the parent solves the whole stack
        # itself; the stack is a mapping the pool closes, so the
        # parent's core must not cache views of it.
        fresh = pickle.loads(pickle.dumps(topology))
        config = _config(
            num_traces=600, workers=2, max_pool_restarts=0,
            retry_backoff_s=0.01, rng_contract=contract,
        )
        with fault_injection(
            FaultPlan(seed=1, crash_rows=(0, 1), repeats=100)
        ):
            columns = run_campaign(fresh, config)
        assert _columns_equal(columns, run_campaign(
            topology, _config(num_traces=600, rng_contract=contract)
        ))
        assert fresh.routing_core()._rows == {}

    def test_filling_the_stack_allocates_one_chunk(self, family_scenario):
        # fill_from_core's peak beyond the stack it fills is one
        # chunk's distance and predecessor matrices, and all it keeps is
        # the row views (a few hundred bytes per destination).
        fresh = pickle.loads(pickle.dumps(family_scenario.topology))
        config = family_campaign_config(
            family_scenario, num_traces=300, seed=2020
        )
        plan = _CampaignPlan(fresh, config)
        core = fresh.routing_core()
        stack = np.empty(
            (len(plan.dest_nodes), core.num_nodes), dtype=np.int32
        )
        _tables, core_tables = rngv2.build_v2_tables(
            fresh, ColumnSchema.from_topology(fresh), plan, stack
        )
        core.dijkstra(core.nodes[:1], core.weight)  # the solver matrix
        tracemalloc.start()
        try:
            core_tables.fill_from_core()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk = SOLVE_CHUNK_ROWS * core.num_nodes * (8 + 4)
        views = 256 * len(plan.dest_nodes)
        assert kept <= views
        assert peak <= chunk + views


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
        # The canary for the vectorized template builder: every pair a
        # campaign actually draws must hold the scalar oracle's hops,
        # doubled cumulative latencies and endpoints (which wrap
        # ``engine._hop_template``), bit for bit.
        config = _config(num_traces=600, rng_contract=2)
        engine = ProbeEngine(topology, seed=config.seed + 1)
        plan = _CampaignPlan(topology, config)
        rngv2.generate_columns_v2(engine, plan, config, 0, 600)
        tables, core_tables, store = rngv2._v2_state(engine, plan)
        codes = np.flatnonzero(store.row_of >= 0)
        assert len(codes) == store.size > 0
        reference = rngv2._TemplateStore(tables)
        build_rows_scalar(reference, engine, tables, codes)
        rows = store.rows_for(tables, core_tables, codes)
        ref_rows = reference.rows_for(tables, core_tables, codes)
        assert reference.size == len(codes)  # the lookup built nothing
        assert np.array_equal(store.counts[rows], reference.counts[ref_rows])
        assert np.array_equal(
            store.endpoints[rows], reference.endpoints[ref_rows]
        )
        for row, ref in zip(rows.tolist(), ref_rows.tolist()):
            k = max(0, int(store.counts[row]))
            got = slice(store.start[row], store.start[row] + k)
            want = slice(reference.start[ref], reference.start[ref] + k)
            assert (
                store.hop_router[got].tobytes()
                == reference.hop_router[want].tobytes()
            )
            assert store.cum[got].tobytes() == reference.cum[want].tobytes()

    def test_template_store_stays_compact(self, topology):
        # Templates share one flat hop array: the store holds the hops
        # it resolved (within one doubling), not 64 slots per pair.
        config = _config(num_traces=600, rng_contract=2)
        engine = ProbeEngine(topology, seed=config.seed + 1)
        plan = _CampaignPlan(topology, config)
        rngv2.generate_columns_v2(engine, plan, config, 0, 600)
        _tables, _core_tables, store = rngv2._v2_state(engine, plan)
        reached = store.counts[: store.size]
        assert store.num_hops == int(reached[reached > 0].sum())
        assert len(store.hop_router) <= max(8192, 2 * store.num_hops)
        assert len(store.counts) <= max(1024, 2 * store.size)


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
        # v1 keeps the historical pure-schema digest of the seed-2015 map.
        assert v1 == "cd2297c7ea425bf0"
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
        from repro.families import family_names
        from repro.scenario import ScenarioConfig, build_stage_graph

        def persisted_keys(family, contract):
            graph = build_stage_graph(
                ScenarioConfig(family=family, rng_contract=contract)
            )
            return {
                name: graph.cache_key(name)
                for name in graph.names()
                if graph.stage(name).persist
            }

        for family in family_names():
            v1 = persisted_keys(family, 1)
            v2 = persisted_keys(family, 2)
            assert sorted(v1) == [
                "campaign", "constructed_map", "ground_truth", "overlay",
            ]
            for key in (*v1.values(), *v2.values()):
                assert key["family"] == family
            # The contracts differ exactly on the draw-dependent stages.
            assert sorted(
                name for name in v1 if v1[name] != v2[name]
            ) == ["campaign", "overlay"]


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
