"""Parity suite: the CSR routing substrate vs the NetworkX reference.

The NetworkX reference implementations of the §5/resilience entry
points live in ``tests/oracles``; these tests run both over randomized
fiber maps (parallel conduits, multi-hop links, disconnected
providers included) and require exact equality — distances, enumerated
path lengths, cut impacts, greedy augmentation choices.  The substrate
is only an optimization if this suite can never tell it apart from the
reference.
"""

from __future__ import annotations

import copy
import itertools
import random
import threading
import time

import networkx as nx
import numpy as np
import pytest

from repro.fibermap.elements import FiberMap
from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.mitigation.augmentation import improvement_curve
from repro.mitigation.latency import latency_study
from repro.mitigation.robustness import _solve_optimum, optimize_all_isps
from repro.obs.tracer import tracing
from repro.perf.substrate import (
    ConduitSubstrate,
    GraphView,
    row_view,
    substrate_for,
)
from repro.resilience.cuts import edge_cut
from repro.resilience.impact import assess_cut
from repro.resilience.montecarlo import random_cut_study, targeted_attack
from repro.risk.matrix import RiskMatrix
from tests.oracles.fibermap import simple_conduit_graph
from tests.oracles.graphs import core_from_networkx, topology_graph
from tests.oracles.kshortest import shortest_simple_paths
from tests.oracles.mitigation import (
    _risk_graph,
    improvement_curve_reference,
    latency_study_reference,
    optimize_all_isps_reference,
)
from tests.oracles.resilience import (
    assess_cut_reference,
    random_cut_study_reference,
    targeted_attack_reference,
)

SEEDS = (7, 23, 101)


def _random_fiber_map(
    seed: int,
    cities: int = 14,
    extra_conduits: int = 12,
    isps: tuple = ("AlphaNet", "BetaCom", "GammaLink"),
    links_per_isp: int = 6,
) -> FiberMap:
    """A connected random map with parallel conduits and multi-hop links."""
    rng = random.Random(seed)
    fiber_map = FiberMap()
    names = [f"City{i:02d}" for i in range(cities)]
    points = {
        name: GeoPoint(
            30.0 + 0.6 * i + rng.random(), -110.0 + 1.1 * (i % 5) + rng.random()
        )
        for i, name in enumerate(names)
    }
    # A shuffled spanning chain keeps the conduit graph connected; extra
    # edges (some parallel) exercise the collapse rule.
    order = names[:]
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))
    for _ in range(extra_conduits):
        a, b = rng.sample(names, 2)
        edges.append((a, b))
    adjacency: dict = {}
    for a, b in edges:
        copies = 2 if rng.random() < 0.3 else 1
        for _ in range(copies):
            conduit = fiber_map.add_conduit(
                a, b, row_id=f"row-{a}-{b}",
                geometry=Polyline([points[a], points[b]]),
            )
            adjacency.setdefault(a, {}).setdefault(b, []).append(
                conduit.conduit_id
            )
            adjacency.setdefault(b, {}).setdefault(a, []).append(
                conduit.conduit_id
            )
    walk = nx.Graph((a, b) for a, b in edges)
    for isp in isps:
        for _ in range(links_per_isp):
            a, b = rng.sample(names, 2)
            path = nx.shortest_path(walk, a, b)
            if len(path) < 2:
                continue
            cids = [
                rng.choice(adjacency[u][v]) for u, v in zip(path, path[1:])
            ]
            fiber_map.add_link(isp, path, cids)
    return fiber_map


class TestGraphViewParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_pairs_distances_match_networkx(self, seed):
        fiber_map = _random_fiber_map(seed)
        view = substrate_for(fiber_map).conduit_view()
        graph = simple_conduit_graph(fiber_map)
        dist, _pred, row_of = view.dijkstra(view.nodes, "length_km")
        for a in view.nodes:
            expected = nx.single_source_dijkstra_path_length(
                graph, a, weight="length_km"
            )
            for b in view.nodes:
                got = float(dist[row_of[a], view.index[b]])
                if b in expected:
                    assert got == expected[b], (a, b)
                else:
                    assert got == float("inf"), (a, b)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exclusion_matches_rebuilt_risk_graph(self, seed):
        fiber_map = _random_fiber_map(seed)
        conduits = substrate_for(fiber_map)
        for cid in sorted(fiber_map.conduits)[::3]:
            graph = _risk_graph(fiber_map, exclude=cid)
            a, b = fiber_map.conduit(cid).edge
            try:
                expected = nx.shortest_path_length(graph, a, b, weight="risk")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                expected = None
            result = _solve_optimum(conduits, cid)
            if expected is None:
                assert result is None
                continue
            assert result is not None
            path, _max_risk = result
            assert cid not in path
            assert sum(fiber_map.conduit(c).num_tenants for c in path) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_k_shortest_path_lengths_match_networkx(self, seed):
        fiber_map = _random_fiber_map(seed)
        view = substrate_for(fiber_map).conduit_view()
        graph = simple_conduit_graph(fiber_map)
        rng = random.Random(seed + 1)
        nodes = sorted(graph.nodes)
        for _ in range(6):
            a, b = rng.sample(nodes, 2)
            if not nx.has_path(graph, a, b):
                continue
            reference = []
            for path in nx.shortest_simple_paths(
                graph, a, b, weight="length_km"
            ):
                reference.append(
                    sum(
                        graph[u][v]["length_km"]
                        for u, v in zip(path, path[1:])
                    )
                )
                if len(reference) >= 5:
                    break
            walked = [
                km
                for _path, km in itertools.islice(
                    shortest_simple_paths(view, a, b, "length_km"), 5
                )
            ]
            lengths = [
                km for _path, km in view.k_shortest_paths(a, b, "length_km", 5)
            ]
            assert lengths == walked == reference, (a, b)


def _core_graphs(scenario):
    """The graphs §4.3 compiles into routing cores: the router topology
    (``ms``), the generic conduit graph and two providers' conduit
    graphs (``length_km``)."""
    fiber_map = scenario.constructed_map
    yield topology_graph(scenario.topology), "ms"
    yield simple_conduit_graph(fiber_map), "length_km"
    for isp in fiber_map.isps()[:2]:
        yield simple_conduit_graph(fiber_map, isp), "length_km"


def _undirected_rows(graph, weight, nodes, sources):
    """The symmetric-CSR undirected solve the routing core ran before it
    became a GraphView (the rows every campaign golden was pinned on)."""
    from scipy.sparse.csgraph import dijkstra

    matrix = nx.to_scipy_sparse_array(graph, nodelist=nodes, weight=weight)
    index = {node: i for i, node in enumerate(nodes)}
    return dijkstra(
        matrix, directed=False, indices=[index[n] for n in sources],
        return_predecessors=True,
    )


class TestCompiledCore:
    """RoutingCore is a GraphView plus a row cache, on both families."""

    def test_rows_match_graphview_dijkstra(self, family_scenario):
        for graph, weight in _core_graphs(family_scenario):
            core = core_from_networkx(graph, weight=weight)
            nodes = core.nodes
            sample = nodes[:: max(1, len(nodes) // 50)]
            assert core.prepare(sample) == len(sample)
            plain = GraphView(nodes, core.index, core.eu, core.ev,
                              core.weights)
            dist, pred, row_of = plain.dijkstra(sample, weight)
            ref_dist, ref_pred = _undirected_rows(
                graph, weight, nodes, sample
            )
            for i, node in enumerate(sample):
                row = core.predecessors(node)
                assert np.array_equal(row, pred[row_of[node]])
                assert np.array_equal(row, ref_pred[i])
                assert np.array_equal(dist[row_of[node]], ref_dist[i])
                assert core.distance(nodes[-1], node) == ref_dist[i][-1]

    def test_clone_copies_the_edge_lookup(self, scenario):
        """A clone is a plain counted view whose edge lookup equals the
        one rebuilt from its arrays, and edits leave the original."""
        core = scenario.topology.routing_core()
        with tracing() as tracer:
            with tracer.span("clone"):
                clone = core.clone()
        assert tracer.spans[0].counters == {"substrate.view_builds": 1}
        assert type(clone) is GraphView
        rebuilt = GraphView(core.nodes, core.index, core.eu, core.ev,
                            core.weights)
        assert clone._edge_of == rebuilt._edge_of
        before = dict(core._edge_of)
        a, b = core.nodes[0], core.nodes[-1]
        assert clone.upsert_edge(a, b, "ms", {"ms": 0.0})
        assert clone.edge_index(a, b) == core.num_edges
        assert core._edge_of == before and core.edge_index(a, b) is None

    def test_topology_core_ignores_edge_order(self, family_scenario):
        # The solver's CSR is index-sorted, so compiling the router
        # adjacencies in any order yields the same rows, ties included.
        core = family_scenario.topology.routing_core()
        order = np.random.default_rng(3).permutation(core.num_edges)
        shuffled = GraphView(core.nodes, core.index, core.eu[order],
                             core.ev[order], {"ms": core.weights["ms"][order]})
        sample = core.nodes[:: max(1, core.num_nodes // 60)]
        dist, pred, _ = core.dijkstra(sample, "ms")
        ref_dist, ref_pred, _ = shuffled.dijkstra(sample, "ms")
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(pred, ref_pred)


class TestSingleFlightMemos:
    """One compile per fiber map (and per ROW kind set), however many
    threads ask for it at once."""

    THREADS = 8

    def _race(self, fn):
        barrier = threading.Barrier(self.THREADS)
        results = [None] * self.THREADS

        def worker(i):
            barrier.wait()
            results[i] = fn()

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def test_substrate_for_builds_once_under_contention(self, monkeypatch):
        built = []
        original = ConduitSubstrate.__init__

        def slow_init(self, fiber_map):
            built.append(fiber_map)
            time.sleep(0.005)
            original(self, fiber_map)

        monkeypatch.setattr(ConduitSubstrate, "__init__", slow_init)
        fiber_map = _random_fiber_map(31)
        results = self._race(lambda: substrate_for(fiber_map))
        assert len(built) == 1
        assert all(r is results[0] for r in results)
        assert isinstance(results[0], ConduitSubstrate)

    def test_row_view_builds_once_per_kind_set(self, monkeypatch, network):
        import repro.perf.substrate as substrate_module

        built = []
        original = substrate_module.compile_transport_view

        def slow_compile(net, kinds):
            built.append(kinds)
            time.sleep(0.005)
            return original(net, kinds)

        monkeypatch.setattr(
            substrate_module, "compile_transport_view", slow_compile
        )
        fresh = copy.copy(network)  # a new memo key, same corridors
        results = self._race(lambda: row_view(fresh, ("road", "rail")))
        assert built == [frozenset({"road", "rail"})]
        assert all(r is results[0] for r in results)
        assert row_view(fresh, ("rail", "road")) is results[0]
        assert row_view(fresh) is not results[0]
        assert built == [frozenset({"road", "rail"}), None]


class TestMaskedSolveReentrancy:
    """Masked solves share one view's cached CSR structure; each call
    must still see only its own mask when threads interleave."""

    def test_threads_see_only_their_own_mask(self, scenario):
        import sys
        import threading

        core = core_from_networkx(topology_graph(scenario.topology))
        rng = np.random.default_rng(7)
        threads = 8
        masks = [rng.random(core.num_edges) > 0.15 for _ in range(threads)]
        sources = [
            [core.nodes[i] for i in rng.choice(core.num_nodes, 12)]
            for _ in range(threads)
        ]
        serial = [
            core.dijkstra(sources[t], "ms", edge_mask=masks[t])[:2]
            for t in range(threads)
        ]
        barrier = threading.Barrier(threads)
        mismatches = []

        def solve(t):
            barrier.wait()
            for _ in range(10):
                dist, pred, _rows = core.dijkstra(
                    sources[t], "ms", edge_mask=masks[t]
                )
                if not (
                    np.array_equal(dist, serial[t][0])
                    and np.array_equal(pred, serial[t][1])
                ):
                    mismatches.append(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [
                threading.Thread(target=solve, args=(t,))
                for t in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert mismatches == []


class TestAnalysisParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_robustness_suggestions_equivalent(self, seed):
        # Random maps have many equal-risk-sum alternate paths and the
        # two Dijkstra implementations break such ties differently, so
        # the tie-independent facts are compared: which (isp, conduit)
        # pairs get a suggestion, the original risk, and the minimized
        # objective (total shared risk of the optimized path).
        def path_risk(outcome):
            return sum(
                fiber_map.conduit(c).num_tenants
                for c in outcome.optimized_conduits
            )

        fiber_map = _random_fiber_map(seed)
        matrix = RiskMatrix(fiber_map, isps=fiber_map.isps())
        reference = optimize_all_isps_reference(fiber_map, matrix, top=8)
        fast = optimize_all_isps(fiber_map, matrix, top=8)
        assert sorted(fast) == sorted(reference)
        for isp in reference:
            ref_outcomes = {o.conduit_id: o for o in reference[isp].outcomes}
            fast_outcomes = {o.conduit_id: o for o in fast[isp].outcomes}
            assert sorted(fast_outcomes) == sorted(ref_outcomes), isp
            for cid, ref_outcome in ref_outcomes.items():
                fast_outcome = fast_outcomes[cid]
                assert fast_outcome.original_risk == ref_outcome.original_risk
                assert path_risk(fast_outcome) == path_risk(ref_outcome)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_assess_cut_identical(self, seed):
        fiber_map = _random_fiber_map(seed)
        edges = sorted({c.edge for c in fiber_map.conduits.values()})
        rng = random.Random(seed + 2)
        for edge in rng.sample(edges, min(6, len(edges))):
            event = edge_cut(fiber_map, *edge)
            reference = assess_cut_reference(fiber_map, event)
            fast = assess_cut(fiber_map, event)
            assert fast == reference

    @pytest.mark.parametrize("seed", SEEDS)
    def test_attack_sequences_identical(self, seed):
        fiber_map = _random_fiber_map(seed)
        matrix = RiskMatrix(fiber_map, isps=fiber_map.isps())
        reference = targeted_attack_reference(fiber_map, matrix, cuts=5)
        fast = targeted_attack(fiber_map, matrix, cuts=5)
        assert fast == reference
        reference_runs = random_cut_study_reference(
            fiber_map, cuts=4, trials=4, seed=seed
        )
        fast_runs = random_cut_study(
            fiber_map, cuts=4, trials=4, seed=seed
        )
        assert fast_runs == reference_runs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_improvement_curves_identical(self, seed):
        fiber_map = _random_fiber_map(seed)
        rng = random.Random(seed + 3)
        used = {c.edge for c in fiber_map.conduits.values()}
        nodes = sorted(fiber_map.nodes)
        candidates = []
        while len(candidates) < 10:
            a, b = sorted(rng.sample(nodes, 2))
            if (a, b) not in used:
                candidates.append(((a, b), 100.0 + 50.0 * rng.random()))
                used.add((a, b))
        for isp in fiber_map.isps():
            reference = improvement_curve_reference(
                fiber_map, None, isp, max_k=4, candidates=candidates
            )
            fast = improvement_curve(
                fiber_map, None, isp, max_k=4,
                candidates=candidates,
            )
            assert fast == reference, isp


class TestScenarioParity:
    """Parity on the realistic session map (latency needs a network)."""

    def test_latency_study_identical(self, scenario, built_map, network):
        reference = latency_study_reference(built_map, network, max_pairs=40)
        fast = latency_study(
            built_map, network, max_pairs=40
        )
        assert fast == reference

    def test_hamming_matrix_matches_pairwise(self, risk_matrix):
        import numpy as np

        from repro.risk.hamming import hamming_distance, hamming_distance_matrix

        distances = hamming_distance_matrix(risk_matrix)
        names = risk_matrix.isps
        for i in range(0, len(names), 5):
            for j in range(0, len(names), 5):
                assert distances[i, j] == hamming_distance(
                    risk_matrix, names[i], names[j]
                )
        assert distances.dtype == np.dtype(int) or np.issubdtype(
            distances.dtype, np.integer
        )
