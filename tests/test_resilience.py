"""Tests for failure injection and impact assessment."""

import pytest

from repro.geo.coords import GeoPoint
from repro.resilience.cuts import (
    CutEvent,
    conduit_cut,
    disaster_cut,
    edge_cut,
)
from repro.resilience.impact import assess_cut
from repro.resilience.montecarlo import (
    mean_final_disconnected,
    random_cut_study,
    targeted_attack,
)
from repro.risk.metrics import most_shared_conduits


@pytest.fixture(scope="module")
def top_conduit(risk_matrix):
    return most_shared_conduits(risk_matrix, top=1)[0][0]


class TestCutEvents:
    def test_conduit_cut(self, built_map, top_conduit):
        event = conduit_cut(built_map, top_conduit)
        assert event.conduit_ids == frozenset({top_conduit})
        assert event.location is not None
        assert event.size == 1

    def test_edge_cut_takes_parallels(self, built_map):
        # Find an edge with parallel conduits.
        edge = next(
            c.edge
            for c in built_map.conduits.values()
            if len(built_map.conduits_between(*c.edge)) > 1
        )
        event = edge_cut(built_map, *edge)
        assert event.size == len(built_map.conduits_between(*edge))
        assert event.size > 1

    def test_edge_cut_unknown_edge(self, built_map):
        with pytest.raises(KeyError):
            edge_cut(built_map, "Miami, FL", "Seattle, WA")

    def test_disaster_cut_radius(self, built_map):
        small = disaster_cut(built_map, GeoPoint(40.76, -111.89), 80.0)
        large = disaster_cut(built_map, GeoPoint(40.76, -111.89), 250.0)
        assert small.conduit_ids < large.conduit_ids

    def test_disaster_cut_validation(self, built_map):
        with pytest.raises(ValueError):
            disaster_cut(built_map, GeoPoint(40.0, -100.0), -5.0)
        with pytest.raises(ValueError):
            # Middle of the Gulf of Mexico: nothing within 10 km.
            disaster_cut(built_map, GeoPoint(26.0, -92.0), 10.0)

    def test_empty_event_rejected(self):
        with pytest.raises(ValueError):
            CutEvent(description="nothing", conduit_ids=frozenset())

    def test_cuts_for_city(self, built_map):
        edges = sorted(
            {c.edge for c in built_map.conduits.values() if "Denver, CO" in c.edge}
        )
        assert edges
        for edge in edges:
            for cid in edge_cut(built_map, *edge).conduit_ids:
                assert "Denver, CO" in built_map.conduit(cid).edge


class TestImpact:
    def test_tenants_all_assessed(self, built_map, top_conduit):
        event = conduit_cut(built_map, top_conduit)
        impact = assess_cut(built_map, event)
        tenants = built_map.conduit(top_conduit).tenants
        assert {i.isp for i in impact.per_isp} == tenants

    def test_links_hit_cross_the_cut(self, built_map, top_conduit):
        event = conduit_cut(built_map, top_conduit)
        impact = assess_cut(built_map, event)
        assert impact.total_links_hit >= impact.isps_affected > 0

    def test_reroute_delays_non_negative(self, built_map, top_conduit):
        event = conduit_cut(built_map, top_conduit)
        impact = assess_cut(built_map, event)
        for item in impact.per_isp:
            assert item.mean_reroute_delay_ms >= 0
            assert item.max_reroute_delay_ms >= item.mean_reroute_delay_ms or (
                item.max_reroute_delay_ms == 0 and item.mean_reroute_delay_ms == 0
            )

    def test_overlay_probe_counts(self, built_map, overlay, risk_matrix):
        # Pick a conduit that carries traffic.
        traffic = overlay.traffic()
        conduit_id = max(traffic, key=lambda c: traffic[c].total)
        event = conduit_cut(built_map, conduit_id)
        impact = assess_cut(built_map, event, overlay)
        assert impact.probes_affected == traffic[conduit_id].total

    def test_impact_of_lookup(self, built_map, top_conduit):
        event = conduit_cut(built_map, top_conduit)
        impact = assess_cut(built_map, event)
        by_isp = {i.isp: i for i in impact.per_isp}
        assert len(by_isp) == len(impact.per_isp)
        assert by_isp[impact.per_isp[0].isp] is impact.per_isp[0]
        assert "Nobody" not in by_isp

    def test_bigger_event_bigger_impact(self, built_map, top_conduit):
        single = assess_cut(built_map, conduit_cut(built_map, top_conduit))
        edge = built_map.conduit(top_conduit).edge
        multi = assess_cut(built_map, edge_cut(built_map, *edge))
        assert multi.total_links_hit >= single.total_links_hit


class TestAttacks:
    def test_targeted_attack_monotone(self, built_map, risk_matrix):
        result = targeted_attack(built_map, risk_matrix, cuts=4)
        assert len(result.events) == 4
        seq = result.cumulative_disconnected
        assert all(b >= a for a, b in zip(seq, seq[1:]))
        harmed = result.cumulative_isps_harmed
        assert all(b >= a for a, b in zip(harmed, harmed[1:]))

    def test_targeted_hits_shared_edges(self, built_map, risk_matrix):
        result = targeted_attack(built_map, risk_matrix, cuts=3)
        top_counts = [n for _, n in most_shared_conduits(risk_matrix, top=3)]
        for event in result.events:
            counts = [
                risk_matrix.sharing_count(cid) for cid in event.conduit_ids
            ]
            assert max(counts) >= top_counts[-1] - 3

    def test_random_study_deterministic(self, built_map):
        first = random_cut_study(built_map, cuts=3, trials=3, seed=5)
        second = random_cut_study(built_map, cuts=3, trials=3, seed=5)
        assert [r.cumulative_disconnected for r in first] == [
            r.cumulative_disconnected for r in second
        ]

    def test_targeted_beats_random(self, built_map, risk_matrix):
        targeted = targeted_attack(built_map, risk_matrix, cuts=5)
        random_runs = random_cut_study(built_map, cuts=5, trials=5, seed=3)
        assert (
            targeted.cumulative_disconnected[-1]
            >= mean_final_disconnected(random_runs)
        )

    def test_validation(self, built_map, risk_matrix):
        with pytest.raises(ValueError):
            targeted_attack(built_map, risk_matrix, cuts=0)
        with pytest.raises(ValueError):
            random_cut_study(built_map, cuts=0)

    def test_mean_final_empty(self):
        assert mean_final_disconnected([]) == 0.0


class TestTrafficShift:
    @pytest.fixture(scope="class")
    def shift_report(self, scenario, built_map, risk_matrix):
        from repro.resilience.cuts import edge_cut
        from repro.resilience.traffic_shift import traffic_shift

        cid, _ = most_shared_conduits(risk_matrix, top=1)[0]
        event = edge_cut(built_map, *built_map.conduit(cid).edge)
        return traffic_shift(
            scenario.topology, event, scenario.campaign, max_traces=300
        )

    def test_counts_consistent(self, shift_report):
        assert shift_report.traces_examined > 0
        assert (
            shift_report.traces_slower + shift_report.traces_blackholed
            <= shift_report.traces_examined
        )

    def test_inflation_non_negative(self, shift_report):
        assert shift_report.mean_inflation_ms >= 0
        assert shift_report.p95_inflation_ms >= shift_report.mean_inflation_ms or (
            shift_report.traces_slower == 0
        )

    def test_affected_fraction_bounds(self, shift_report):
        assert 0.0 <= shift_report.affected_fraction <= 1.0

    def test_degraded_topology_removes_edges(self, scenario, built_map, risk_matrix):
        from repro.resilience.cuts import edge_cut
        from tests.oracles.resilience import DegradedTopology

        cid, _ = most_shared_conduits(risk_matrix, top=1)[0]
        event = edge_cut(built_map, *built_map.conduit(cid).edge)
        degraded = DegradedTopology(scenario.topology, event)
        assert degraded.dead_router_adjacencies
        assert (
            degraded.graph.number_of_edges()
            < scenario.topology.routing_core().num_edges
        )

    def test_uncut_topology_noop(self, scenario):
        from repro.resilience.cuts import CutEvent
        from tests.oracles.resilience import DegradedTopology

        # A conduit no router adjacency rides (every ground-truth conduit
        # carries one, so a made-up id) loses no router edge; one that
        # adjacencies ride loses exactly those adjacencies.
        topology = scenario.topology
        conduit_edges = topology.conduit_edges()
        intact = topology.routing_core().num_edges
        assert "C-unused" not in conduit_edges
        for cid in ("C-unused", sorted(conduit_edges)[0]):
            event = CutEvent(description=cid, conduit_ids=frozenset({cid}))
            degraded = DegradedTopology(topology, event)
            lost = intact - degraded.graph.number_of_edges()
            assert lost == len(conduit_edges.get(cid, ()))
        assert len(conduit_edges[sorted(conduit_edges)[0]]) > 0

    def test_dead_edge_mask_is_the_oracle_dead_adjacencies(
        self, family_scenario
    ):
        from repro.resilience.traffic_shift import dead_edge_mask
        from tests.oracles.resilience import DegradedTopology

        topology = family_scenario.topology
        core = topology.routing_core()
        for event in _seeded_edge_cuts(family_scenario):
            mask = dead_edge_mask(topology, event)
            masked = {
                frozenset((core.nodes[core.eu[i]], core.nodes[core.ev[i]]))
                for i in (~mask).nonzero()[0]
            }
            oracle = DegradedTopology(topology, event)
            assert masked == {
                frozenset(edge) for edge in oracle.dead_router_adjacencies
            }


#: Seeded conduit-edge cuts per family; the first ten of each include
#: cuts that blackhole traces.
CUT_SEED = 0
CUT_COUNT = 10


def _seeded_edge_cuts(scenario):
    import random

    fiber_map = scenario.constructed_map
    edges = sorted({conduit.edge for conduit in fiber_map.conduits.values()})
    return [
        edge_cut(fiber_map, *edge)
        for edge in random.Random(CUT_SEED).sample(edges, CUT_COUNT)
    ]


class TestTrafficShiftParity:
    """The masked re-trace on the compiled core equals the record-object
    re-trace over a NetworkX copy of the degraded router graph."""

    @pytest.mark.parametrize("max_traces", [300, 800, 1500, None])
    def test_report_equals_reference(self, family_scenario, max_traces):
        from repro.resilience.traffic_shift import traffic_shift
        from tests.oracles.resilience import traffic_shift_reference

        topology = family_scenario.topology
        campaign = family_scenario.campaign
        reports = []
        for event in _seeded_edge_cuts(family_scenario):
            report = traffic_shift(
                topology, event, campaign, max_traces=max_traces
            )
            assert report == traffic_shift_reference(
                topology, event, campaign, max_traces=max_traces
            ), event.description
            reports.append(report)
        assert any(report.traces_blackholed for report in reports)
        assert any(report.traces_slower for report in reports)


class TestSelectiveRetrace:
    """A cut re-solves only the destinations whose sampled paths cross
    it, starting from a baseline memoized on the routing core per
    (campaign, sample size, seed)."""

    def test_paths_equal_the_full_masked_solve(self, family_scenario):
        from repro.resilience.traffic_shift import _sample_pairs, dead_edge_mask
        from tests.oracles.routing import paths_without_reference

        topology = family_scenario.topology
        core = topology.routing_core()
        pairs = _sample_pairs(family_scenario.campaign, None)
        routes = core.routes(pairs)
        assert [
            None if path is None else list(path) for path in routes.paths
        ] == [core.path(*pair) for pair in pairs]
        changed = 0
        for event in _seeded_edge_cuts(family_scenario):
            mask = dead_edge_mask(topology, event)
            paths = core.paths_without(routes, mask)
            assert paths == paths_without_reference(core, pairs, mask), (
                event.description
            )
            changed += sum(new != old for new, old in zip(paths, routes.paths))
        assert changed

    def test_threads_get_the_serial_reports(self, family_scenario):
        import pickle
        import threading

        from repro.resilience.traffic_shift import traffic_shift

        topology = family_scenario.topology
        campaign = family_scenario.campaign
        events = _seeded_edge_cuts(family_scenario)[:4]
        serial = [
            traffic_shift(topology, event, campaign, max_traces=800)
            for event in events
        ]
        # A pickled copy has a cold core: no rows and no baseline, so the
        # threads race on building both.
        shared = pickle.loads(pickle.dumps(topology))
        assert len(shared.routing_core()._rows) == 0
        barrier = threading.Barrier(len(events))
        results = [None] * len(events)

        def run(i):
            barrier.wait()
            order = [(i + k) % len(events) for k in range(len(events))]
            results[i] = {
                j: traffic_shift(shared, events[j], campaign, max_traces=800)
                for j in order
            }

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(len(events))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for reports in results:
            assert [reports[j] for j in range(len(events))] == serial

    def test_baseline_memo_is_bounded_unpickled_and_keyed(
        self, family_scenario
    ):
        import pickle

        from repro.perf.routing import BASELINE_MEMO_SIZE
        from repro.resilience.traffic_shift import traffic_shift
        from repro.traceroute.columns import TraceColumns

        campaign = family_scenario.campaign
        topology = pickle.loads(pickle.dumps(family_scenario.topology))
        core = topology.routing_core()
        memo = core._baselines
        event = _seeded_edge_cuts(family_scenario)[0]
        report = traffic_shift(topology, event, campaign, max_traces=300)
        assert len(memo) == 1
        (first,) = memo.values()
        assert traffic_shift(
            topology, event, campaign, max_traces=300
        ) == report
        assert len(memo) == 1 and next(iter(memo.values())) is first

        copy = TraceColumns(
            campaign.schema, campaign.traces.copy(),
            campaign.hop_offsets, campaign.hop_router, campaign.hop_rtt,
            rng_contract=campaign.rng_contract,
        )
        for kwargs in (
            dict(campaign=copy, max_traces=300),
            dict(campaign=campaign, max_traces=301),
            dict(campaign=campaign, max_traces=300, seed=68),
        ):
            size = len(memo)
            traffic_shift(topology, event, **kwargs)
            assert len(memo) == size + 1, kwargs
        assert traffic_shift(
            topology, event, copy, max_traces=300
        ) == report
        for max_traces in range(400, 400 + 2 * BASELINE_MEMO_SIZE):
            traffic_shift(topology, event, campaign, max_traces=max_traces)
            assert len(memo) <= BASELINE_MEMO_SIZE
        assert all(value is not first for value in memo.values())

        assert memo and pickle.loads(pickle.dumps(core))._baselines == {}
