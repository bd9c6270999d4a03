"""The vectorized §4.3 overlay ingest against its per-hop oracles.

* hand-built edge cases (empty and unreached campaigns, 1-hop traces,
  segments broken by unresolved hops, same-city hops and provider
  changes) land on the per-hop loop's full state;
* split-and-batch invariance: the counters and the ``traffic()``
  insertion order do not depend on the streaming batch size or on
  where a campaign is split between ``add_traces`` calls (a small
  Hypothesis property on both map families);
* a sharded (``workers=2``) campaign ingested over several windows
  lands on the per-hop loop's state, on both map families;
* a work-count guard: each distinct ``(isp, city_a, city_b)`` key is
  resolved exactly once per overlay, with at most one Dijkstra per
  conduit graph per call — a deterministic count, not a timing — and
  the overlay's routing cores build no view of their own.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.cities import city_by_name
from repro.fibermap.serialization import fiber_map_from_dict, fiber_map_to_dict
from repro.obs import tracing
from repro.perf.substrate import GraphView, substrate_for
from repro.traceroute import overlay as overlay_module
from repro.traceroute.campaign import run_campaign
from repro.traceroute.columns import TRACE_DTYPE, ColumnSchema, TraceColumns
from repro.traceroute.overlay import TrafficOverlay
from repro.traceroute.rngv2 import RNG_CONTRACT_V2
from repro.traceroute.topology import _slug
from tests.oracles.campaign import family_campaign_config
from tests.oracles.overlay import LoopTrafficOverlay, overlay_state

SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def window(columns, start, stop):
    """Traces ``[start, stop)`` of *columns* as their own campaign."""
    lo = int(columns.hop_offsets[start])
    hi = int(columns.hop_offsets[stop])
    return TraceColumns(
        columns.schema,
        columns.traces[start:stop],
        columns.hop_offsets[start:stop + 1] - lo,
        columns.hop_router[lo:hi],
        columns.hop_rtt[lo:hi],
        rng_contract=columns.rng_contract,
    )


def _world(scenario):
    return (scenario.constructed_map, scenario.topology, scenario.geolocation)


# ----------------------------------------------------------------------
# Hand-built campaigns
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hand(scenario):
    """A schema of hint-named routers at the ends of one Level 3 conduit.

    Routers ``a``/``b`` sit at the two ends, ``other`` is a
    second provider at ``b``, ``dark`` is a Level 3 router whose name
    carries no city hint and whose IP the database does not know, and
    ``anon_a``/``anon_b`` sit at the two ends under a provider name no
    topology ISP owns.
    """
    fiber_map = scenario.constructed_map
    isp = "Level 3"
    city_a, city_b = fiber_map.conduits_of(isp)[0].edge
    other = next(p for p in scenario.topology.providers() if p != isp)
    names = {
        "a": f"ae-1.cr1.{city_by_name(city_a).code}.{_slug(isp)}.net",
        "b": f"ae-1.cr1.{city_by_name(city_b).code}.{_slug(isp)}.net",
        "other": f"ae-1.cr1.{city_by_name(city_b).code}.{_slug(other)}.net",
        "dark": f"cr7.{_slug(isp)}.net",
        "anon_a": f"ae-1.cr1.{city_by_name(city_a).code}.nobody.net",
        "anon_b": f"ae-1.cr1.{city_by_name(city_b).code}.nobody.net",
    }
    schema = ColumnSchema(
        cities=sorted({city_a, city_b}),
        isps=sorted({isp, other}),
        router_ips=[f"0.0.0.{i}" for i in range(len(names))],
        router_dns=list(names.values()),
        router_nodes=[(isp, city_a), (isp, city_b), (other, city_b),
                      (isp, city_a), (other, city_a), (other, city_b)],
    )
    router = {name: i for i, name in enumerate(names)}
    return schema, router


def hand_columns(schema, router, traces):
    """``traces``: ``(reached, [router names])`` rows, each probing from
    the schema's first city to its last."""
    rows = np.zeros(len(traces), dtype=TRACE_DTYPE)
    rows["dst_city"] = len(schema.cities) - 1
    rows["reached"] = [reached for reached, _ in traces]
    hops = [router[name] for _, names in traces for name in names]
    offsets = np.zeros(len(traces) + 1, dtype=np.int64)
    np.cumsum([len(names) for _, names in traces], out=offsets[1:])
    return TraceColumns(
        schema, rows, offsets, np.array(hops, dtype=np.int32),
        np.ones(len(hops), dtype=np.float64),
        rng_contract=RNG_CONTRACT_V2,
    )


def ingest(scenario, columns):
    """The vectorized state after one call, checked against the loop."""
    overlay = TrafficOverlay(*_world(scenario))
    overlay.add_traces(columns)
    oracle = LoopTrafficOverlay(*_world(scenario))
    oracle.add_traces(columns)
    assert overlay_state(overlay) == overlay_state(oracle)
    return overlay


class TestEdgeCases:
    def test_empty_campaign(self, scenario, hand):
        schema, router = hand
        overlay = ingest(scenario, hand_columns(schema, router, []))
        assert overlay.traffic() == {}
        assert overlay.traces_processed == 0
        assert overlay.hops_unresolved == 0

    def test_all_unreached_campaign(self, scenario, hand):
        schema, router = hand
        columns = hand_columns(schema, router, [
            (False, ["a", "b"]), (False, ["a", "dark", "b"]),
        ])
        overlay = ingest(scenario, columns)
        assert overlay.traffic() == {}
        assert overlay.traces_processed == 0
        assert overlay.hops_unresolved == 0

    def test_one_hop_traces_are_not_counted(self, scenario, hand):
        schema, router = hand
        columns = hand_columns(schema, router, [
            (True, ["dark"]), (True, ["a"]), (True, []),
        ])
        overlay = ingest(scenario, columns)
        assert overlay.traffic() == {}
        assert overlay.traces_processed == 0
        assert overlay.hops_unresolved == 0

    def test_one_segment_credits_its_path(self, scenario, hand):
        schema, router = hand
        overlay = ingest(
            scenario, hand_columns(schema, router, [(True, ["a", "b"])])
        )
        assert overlay.traffic()
        for traffic in overlay.traffic().values():
            assert traffic.total == 1
            assert traffic.observed_isps == {"Level 3"}
        assert overlay.traces_processed == 1

    def test_unresolved_hop_breaks_the_segment(self, scenario, hand):
        schema, router = hand
        columns = hand_columns(schema, router, [(True, ["a", "dark", "b"])])
        overlay = ingest(scenario, columns)
        assert overlay.traffic() == {}
        assert overlay.traces_processed == 1
        assert overlay.hops_unresolved == 1

    def test_same_city_and_provider_change_make_no_segment(
        self, scenario, hand
    ):
        schema, router = hand
        columns = hand_columns(schema, router, [
            (True, ["a", "a"]), (True, ["b", "b", "b"]), (True, ["a", "other"]),
            (True, ["anon_a", "anon_b"]),
        ])
        overlay = ingest(scenario, columns)
        assert overlay.traffic() == {}
        assert overlay.traces_processed == 4
        assert overlay._path_cache == {}

    def test_halves_equal_the_whole(self, scenario):
        columns = window(scenario.campaign, 0, 1000)
        whole = TrafficOverlay(*_world(scenario))
        whole.add_traces(columns)
        halves = TrafficOverlay(*_world(scenario))
        halves.add_traces(window(columns, 0, 500))
        halves.add_traces(window(columns, 500, 1000))
        assert overlay_state(halves) == overlay_state(whole)


# ----------------------------------------------------------------------
# Batch-split invariance
# ----------------------------------------------------------------------
@SMALL
@given(data=st.data())
def test_batch_size_and_split_point_do_not_matter(
    family_scenario, monkeypatch, data
):
    campaign = family_scenario.campaign
    start = data.draw(st.integers(0, len(campaign) - 1))
    stop = data.draw(st.integers(start, min(len(campaign), start + 300)))
    columns = window(campaign, start, stop)
    whole = TrafficOverlay(*_world(family_scenario))
    whole.add_traces(columns)
    monkeypatch.setattr(
        overlay_module, "INGEST_BATCH_SIZE", data.draw(st.integers(1, 64))
    )
    split = data.draw(st.integers(0, len(columns)))
    parts = TrafficOverlay(*_world(family_scenario))
    parts.add_traces(window(columns, 0, split))
    parts.add_traces(window(columns, split, len(columns)))
    assert overlay_state(parts) == overlay_state(whole)


# ----------------------------------------------------------------------
# A sharded campaign over several ingest batches
# ----------------------------------------------------------------------
def test_a_sharded_campaign_matches_the_loop(family_scenario, monkeypatch):
    # 900 traces on 2 workers (pool shards), ingested in 4 windows of
    # 256: the array merge across windows lands on the per-hop loop.
    columns = run_campaign(
        family_scenario.topology,
        family_campaign_config(
            family_scenario, num_traces=900, seed=2031, workers=2,
            rng_contract=2,
        ),
    )
    monkeypatch.setattr(overlay_module, "INGEST_BATCH_SIZE", 256)
    assert len(list(columns.iter_batches(256))) >= 3
    overlay = TrafficOverlay(*_world(family_scenario))
    overlay.add_traces(columns)
    oracle = LoopTrafficOverlay(*_world(family_scenario))
    oracle.add_traces(columns)
    assert overlay_state(overlay) == overlay_state(oracle)
    assert overlay.traffic()


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
class TestWorkCounts:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Count the segments each batched walk resolves, the loop
        oracle's ``_conduit_path`` calls and Dijkstra calls per view."""
        calls = Counter()
        walked = Counter()
        solves = Counter()
        walk = TrafficOverlay._walk
        conduit_path = LoopTrafficOverlay._conduit_path
        dijkstra = GraphView.dijkstra

        def counting_walk(self, core, segments):
            walked.update(segments)
            return walk(self, core, segments)

        def counting_path(self, *args):
            calls["conduit_path"] += 1
            return conduit_path(self, *args)

        def counting_dijkstra(self, *args, **kwargs):
            solves[id(self)] += 1
            return dijkstra(self, *args, **kwargs)

        monkeypatch.setattr(TrafficOverlay, "_walk", counting_walk)
        monkeypatch.setattr(
            LoopTrafficOverlay, "_conduit_path", counting_path
        )
        monkeypatch.setattr(GraphView, "dijkstra", counting_dijkstra)
        return calls, walked, solves

    def test_one_path_per_key_one_solve_per_graph(
        self, family_scenario, counted
    ):
        _calls, walked, solves = counted
        campaign = family_scenario.campaign
        walked.clear()
        solves.clear()
        overlay = TrafficOverlay(*_world(family_scenario))
        half = len(campaign) // 2
        overlay.add_traces(window(campaign, 0, half))
        # Every distinct key resolved, each exactly once.
        assert set(walked) == set(overlay._path_cache)
        assert max(walked.values()) == 1
        assert max(solves.values()) == 1
        second = window(campaign, half, len(campaign))
        fresh = TrafficOverlay(*_world(family_scenario))
        fresh.add_traces(second)
        known = set(overlay._path_cache)
        walked.clear()
        solves.clear()
        overlay.add_traces(second)
        # Only this call's keys that the first half left unresolved.
        assert set(walked) == set(fresh._path_cache) - known
        assert max(walked.values(), default=1) == 1
        assert max(solves.values(), default=0) <= 1

    def test_the_per_hop_loop_resolves_every_segment(self, scenario, counted):
        # The guard above bites: the loop it replaced resolves once per
        # segment and solves one destination at a time.
        calls, _walked, solves = counted
        campaign = scenario.campaign
        solves.clear()
        oracle = LoopTrafficOverlay(*_world(scenario))
        oracle.add_traces(campaign)
        assert calls["conduit_path"] > 2 * len(oracle._path_cache)
        assert max(solves.values()) > 1

    def test_cores_build_no_views(self, family_scenario):
        # A core adopts its substrate view as it is: an overlay adds the
        # substrate's own tenant_view/conduit_view builds to
        # ``substrate.view_builds`` and nothing per core.
        fiber_map, topology, database = _world(family_scenario)
        campaign = family_scenario.campaign

        def warmed_copy():
            """The map on a compiled substrate none of whose views is built."""
            copy = fiber_map_from_dict(fiber_map_to_dict(fiber_map))
            substrate_for(copy)
            return copy

        def view_builds(build):
            with tracing() as tracer:
                with tracer.span("build"):
                    result = build()
            builds = sum(
                span.counters.get("substrate.view_builds", 0)
                for span in tracer.walk()
            )
            return builds, result

        copy = warmed_copy()

        def overlay_on_copy():
            overlay = TrafficOverlay(copy, topology, database)
            overlay.add_traces(campaign)
            return overlay

        builds, overlay = view_builds(overlay_on_copy)
        assert builds > 0
        other_map = warmed_copy()
        other = substrate_for(other_map)
        views, _ = view_builds(lambda: [
            other.conduit_view() if key == "*" else other.tenant_view(key)
            for key in overlay._cores
        ])
        assert builds == views
        # Every view is built now: a second overlay builds none.
        again, _ = view_builds(overlay_on_copy)
        assert again == 0
