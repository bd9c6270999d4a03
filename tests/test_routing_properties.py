"""Routing invariants as properties, on both map families.

Over drawn city pairs, providers and edge masks of each family's
constructed map (and of randomized fiber maps for the mask property):

* a cut never shortens a path — a masked ``GraphView`` solve is never
  shorter than the unmasked one;
* a router-level cut never shortens a trace: every path the routing
  core re-traces around a drawn set of cut conduits avoids their router
  adjacencies and is no shorter than the uncut distance;
* a router-level cut re-solves only what it crosses: the re-traced
  paths of a campaign sample equal a masked solve over every one of its
  destinations, pair for pair;
* a cut never merges components: removing conduit-graph edges never
  lowers the connectivity summary's component count;
* a backup is never shorter than its primary, and it shares no risk
  group whenever the pair stays connected without the primary's groups;
* a Pareto frontier has strictly increasing delay and strictly
  decreasing bottleneck risk, and starts at the unrestricted shortest
  path over the same least-shared collapse;
* §5.3 delays are ordered: the average existing path is never faster
  than the best one, and neither the best existing path nor the best
  right-of-way path beats line of sight.  The best existing path may
  beat the best right-of-way path: conduits can follow rights-of-way
  (pipelines, say) outside the family's ``row_kinds``.

The Hypothesis profile is small so tier-1 stays fast.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.connectivity import hop_components
from repro.geo.coords import fiber_delay_ms
from repro.mitigation.latency import latency_study
from repro.perf.substrate import GraphView, substrate_for
from repro.resilience.cuts import CutEvent
from repro.resilience.traffic_shift import _sample_pairs, dead_edge_mask
from repro.routing.backup import plan_backup
from repro.routing.pareto import pareto_paths
from repro.routing.srlg import path_srlgs
from tests.oracles.fibermap import simple_conduit_graph
from tests.oracles.routing import paths_without_reference
from tests.test_substrate import _random_fiber_map

#: Small profile: the session scenarios are shared, so the fixture
#: health check does not apply.
SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _pair(data, cities):
    a, b = data.draw(
        st.lists(st.sampled_from(cities), min_size=2, max_size=2, unique=True)
    )
    return a, b


def _present(view):
    return [key for key in view.nodes if view.present(key)]


@SMALL
@given(data=st.data())
def test_a_cut_never_shortens_a_path(family_scenario, data):
    use_random = data.draw(st.booleans())
    fiber_map = (
        _random_fiber_map(data.draw(st.integers(0, 10_000)))
        if use_random
        else family_scenario.constructed_map
    )
    view = substrate_for(fiber_map).conduit_view()
    a, b = _pair(data, _present(view))
    weight = data.draw(st.sampled_from(["length_km", "risk"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(view.num_edges) >= data.draw(st.floats(0.0, 0.5))
    full = view.shortest_path(a, b, weight)
    cut = view.shortest_path(a, b, weight, mask)
    if cut is None:
        return
    assert full is not None
    assert view.path_length(cut, weight) >= view.path_length(full, weight)


@SMALL
@given(data=st.data())
def test_a_router_level_cut_never_shortens_a_trace(family_scenario, data):
    topology = family_scenario.topology
    core = topology.routing_core()
    cut = data.draw(
        st.lists(
            st.sampled_from(sorted(topology.conduit_edges())),
            min_size=1, max_size=8, unique=True,
        )
    )
    mask = dead_edge_mask(
        topology, CutEvent(description="drawn", conduit_ids=frozenset(cut))
    )
    pairs = [_pair(data, core.nodes) for _ in range(8)]
    paths = core.paths_without(core.routes(pairs), mask)
    for (src, dst), path in zip(pairs, paths):
        if path is None:
            continue
        assert (path[0], path[-1]) == (src, dst)
        hops = [core.index[node] for node in path]
        assert mask[core.path_edges(hops)].all()
        # The two sums run in opposite hop orders; allow their rounding.
        assert core.path_length(hops, "ms") >= core.distance(src, dst) - 1e-9


@SMALL
@given(data=st.data())
def test_a_router_level_cut_re_solves_only_what_it_crosses(
    family_scenario, data
):
    topology = family_scenario.topology
    core = topology.routing_core()
    cut = data.draw(
        st.lists(
            st.sampled_from(sorted(topology.conduit_edges())),
            min_size=1, max_size=8, unique=True,
        )
    )
    mask = dead_edge_mask(
        topology, CutEvent(description="drawn", conduit_ids=frozenset(cut))
    )
    pairs = _sample_pairs(family_scenario.campaign, 800)
    pairs += [_pair(data, core.nodes) for _ in range(8)]
    assert core.paths_without(core.routes(pairs), mask) == (
        paths_without_reference(core, pairs, mask)
    )


@SMALL
@given(data=st.data())
def test_a_cut_never_merges_components(family_scenario, data):
    use_random = data.draw(st.booleans())
    fiber_map = (
        _random_fiber_map(data.draw(st.integers(0, 10_000)))
        if use_random
        else family_scenario.constructed_map
    )
    view = substrate_for(fiber_map).conduit_view()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(view.num_edges) >= data.draw(st.floats(0.0, 0.9))
    cut = GraphView(view.nodes, view.index, view.eu[keep], view.ev[keep], {})
    # A city that loses its last edge leaves the summary's node set; it
    # was one more component of its own.
    isolated = len(_present(view)) - len(_present(cut))
    assert hop_components(cut)[0] + isolated >= hop_components(view)[0]


@SMALL
@given(data=st.data())
def test_backup_never_beats_primary_and_is_diverse_when_possible(
    family_scenario, data
):
    fiber_map = family_scenario.constructed_map
    isp = data.draw(st.sampled_from(sorted(fiber_map.isps())))
    view = substrate_for(fiber_map).footprint_view(isp)
    a, b = _pair(data, _present(view))
    plan = plan_backup(fiber_map, isp, a, b)
    if plan is None:
        return
    if plan.protected:
        assert plan.backup_delay_ms >= plan.primary_delay_ms
    graph = simple_conduit_graph(fiber_map, isp)
    graph.remove_edges_from(path_srlgs(fiber_map, plan.primary_conduits))
    if nx.has_path(graph, a, b):
        assert plan.fully_diverse and plan.shared_groups == frozenset()


@SMALL
@given(data=st.data())
def test_pareto_frontier_is_monotone(family_scenario, data):
    fiber_map = family_scenario.constructed_map
    isp = data.draw(st.sampled_from([None, *sorted(fiber_map.isps())]))
    graph = simple_conduit_graph(fiber_map, isp)
    a, b = _pair(data, sorted(graph.nodes))
    frontier = pareto_paths(fiber_map, a, b, isp)
    if not nx.has_path(graph, a, b):
        assert frontier == []
        return
    delays = [option.delay_ms for option in frontier]
    risks = [option.max_risk for option in frontier]
    assert all(x < y for x, y in zip(delays, delays[1:]))
    assert all(x > y for x, y in zip(risks, risks[1:]))
    fastest = nx.shortest_path_length(graph, a, b, weight="length_km")
    assert delays[0] == pytest.approx(fiber_delay_ms(fastest), rel=1e-12)


@SMALL
@given(seed=st.integers(0, 2**16), max_pairs=st.integers(1, 40))
def test_latency_delays_are_ordered(family_scenario, seed, max_pairs):
    study = latency_study(
        family_scenario.constructed_map,
        family_scenario.network,
        max_pairs=max_pairs,
        seed=seed,
        row_kinds=family_scenario.family.row_kinds[0],
    )
    assert study.pairs
    for p in study.pairs:
        assert p.avg_ms >= p.best_ms >= p.los_ms, p
        assert p.row_ms >= p.los_ms, p
