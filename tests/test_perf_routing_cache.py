"""Tests for the perf layer: array routing core, sharded campaign,
persistent artifact cache, and their CLI/environment plumbing."""

from __future__ import annotations

import pickle
import random

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.perf.cache import ArtifactCache, code_version, resolve_cache
from repro.perf.routing import SOLVE_CHUNK_ROWS
from repro.perf.substrate import GraphView
from repro.scenario import Scenario
from repro.traceroute.campaign import (
    CampaignConfig,
    resolve_workers,
    run_campaign,
)
from repro.traceroute.probe import ProbeEngine
from tests.oracles.graphs import core_from_networkx, topology_graph
from tests.oracles.probe import ReferenceProbeEngine


def _edge_cost(graph, path, weight="ms"):
    return sum(graph[u][v][weight] for u, v in zip(path, path[1:]))


def _assert_distances_match_networkx(graph, seed):
    core = core_from_networkx(graph)
    nodes = sorted(graph.nodes)
    rng = random.Random(seed)
    for _ in range(40):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        try:
            expected = nx.dijkstra_path_length(graph, src, dst, weight="ms")
        except nx.NetworkXNoPath:
            assert core.distance(src, dst) == float("inf")
            continue
        assert core.distance(src, dst) == pytest.approx(expected)


def _assert_pickle_drops_rows(graph):
    core = core_from_networkx(graph)
    core.prepare(sorted(graph.nodes)[:3])
    assert len(core._rows) == 3 and core._structs
    clone = pickle.loads(pickle.dumps(core))
    assert len(clone._rows) == 0 and clone._structs == {}
    assert clone.num_nodes == core.num_nodes


class TestRoutingCore:
    def test_distances_match_networkx(self, topology):
        _assert_distances_match_networkx(topology_graph(topology), seed=7)

    def test_paths_are_valid_and_optimal(self, topology):
        # Equal-cost ties may break differently than NetworkX, so check
        # the path is real and its cost matches the optimum — not the
        # exact node sequence.
        graph = topology_graph(topology)
        core = core_from_networkx(graph)
        nodes = sorted(graph.nodes)
        rng = random.Random(11)
        for _ in range(40):
            src, dst = rng.choice(nodes), rng.choice(nodes)
            path = core.path(src, dst)
            if path is None:
                assert not nx.has_path(graph, src, dst)
                continue
            assert path[0] == src and path[-1] == dst
            for u, v in zip(path, path[1:]):
                assert graph.has_edge(u, v)
            assert _edge_cost(graph, path) == pytest.approx(
                core.distance(src, dst)
            )

    def test_trivial_and_unknown_queries(self, topology):
        core = topology.routing_core()
        node = core.nodes[0]
        assert core.path(node, node) == [node]
        assert core.path(("NoSuch", "Nowhere"), node) is None
        assert core.distance(node, ("NoSuch", "Nowhere")) == float("inf")

    def test_prepare_batches_new_destinations(self, topology):
        core = core_from_networkx(topology_graph(topology))
        nodes = core.nodes[:5]
        assert core.prepare(nodes) == 5
        assert core.prepare(nodes) == 0  # already computed
        assert len(core._rows) == 5

    def test_pickle_drops_prepared_rows(self, topology):
        _assert_pickle_drops_rows(topology_graph(topology))

    def test_engine_matches_reference_path_costs(self, topology):
        fast = ProbeEngine(topology, seed=5)
        reference = ReferenceProbeEngine(topology, seed=5)
        graph = topology_graph(topology)
        nodes = sorted(graph.nodes)
        rng = random.Random(13)
        for _ in range(25):
            (src_isp, src_city) = rng.choice(nodes)
            (dst_isp, dst_city) = rng.choice(nodes)
            a = fast.router_path(src_city, src_isp, dst_city, dst_isp)
            b = reference.router_path(src_city, src_isp, dst_city, dst_isp)
            assert (a is None) == (b is None)
            if a is not None:
                assert _edge_cost(graph, a) == pytest.approx(
                    _edge_cost(graph, b)
                )


class TestRoutingCoreFamilies:
    """The destination-row cache on both map families' router graphs."""

    def test_distance_matches_networkx_oracle(self, family_scenario):
        _assert_distances_match_networkx(
            topology_graph(family_scenario.topology), seed=29
        )

    def test_pickle_carries_no_rows_or_solver_cache(self, family_scenario):
        _assert_pickle_drops_rows(topology_graph(family_scenario.topology))

    def test_prepare_in_chunks_equals_one_solve(
        self, family_scenario, monkeypatch
    ):
        # More destinations than one chunk: every solve stays within
        # SOLVE_CHUNK_ROWS, and every cached row is the one-shot
        # solve's row, byte for byte.
        core = pickle.loads(
            pickle.dumps(family_scenario.topology)
        ).routing_core()
        nodes = list(core.nodes[: 2 * SOLVE_CHUNK_ROWS + 3])
        assert len(nodes) > SOLVE_CHUNK_ROWS
        solves = []
        solve = GraphView.dijkstra

        def spy(view, sources, *args, **kwargs):
            solves.append(len(sources))
            return solve(view, sources, *args, **kwargs)

        monkeypatch.setattr(GraphView, "dijkstra", spy)
        assert core.prepare(nodes) == len(nodes)
        monkeypatch.undo()
        assert len(solves) > 1 and max(solves) <= SOLVE_CHUNK_ROWS
        assert sum(solves) == len(nodes)
        _dist, pred, row_of = core.dijkstra(nodes, core.weight)
        for node in nodes:
            assert (
                core.predecessors(node).tobytes()
                == pred[row_of[node]].tobytes()
            )

    def test_distance_equals_scipy_and_caches_nothing(self, family_scenario):
        core = pickle.loads(
            pickle.dumps(family_scenario.topology)
        ).routing_core()
        n, w = core.num_nodes, core.weights[core.weight]
        matrix = csr_matrix(
            (
                np.concatenate([w, w]),
                (
                    np.concatenate([core.eu, core.ev]),
                    np.concatenate([core.ev, core.eu]),
                ),
            ),
            shape=(n, n),
        )
        rng = random.Random(31)
        dsts = rng.sample(range(n), 12)
        reference = scipy_dijkstra(matrix, directed=True, indices=dsts)
        for row, d in enumerate(dsts):
            for s in rng.sample(range(n), 20):
                got = core.distance(core.nodes[s], core.nodes[d])
                assert got == float(reference[row, s])
        assert core._rows == {}


class TestParallelCampaign:
    def test_serial_and_parallel_records_identical(self, topology):
        config = CampaignConfig(num_traces=600, seed=47)
        serial = run_campaign(topology, config, workers=1)
        parallel = run_campaign(topology, config, workers=2)
        assert serial == parallel

    def test_worker_count_stays_out_of_the_records(self, topology):
        config = CampaignConfig(num_traces=600, seed=47, workers=3)
        assert run_campaign(topology, config) == run_campaign(
            topology, config, workers=1
        )

    def test_small_campaigns_fall_back_to_serial(self, topology):
        config = CampaignConfig(num_traces=40, seed=3, workers=4)
        records = run_campaign(topology, config)
        assert len(records) == 40
        assert all(r.reached for r in records)

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        assert resolve_workers(-2) == 1


class TestArtifactCache:
    def test_store_and_fetch_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        hit, value = cache.fetch("stage", {"seed": 1})
        assert not hit and value is None
        cache.store("stage", {"seed": 1}, {"answer": 42})
        hit, value = cache.fetch("stage", {"seed": 1})
        assert hit and value == {"answer": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_keys_separate_stages_and_params(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("a", {"seed": 1}, "a1")
        cache.store("a", {"seed": 2}, "a2")
        cache.store("b", {"seed": 1}, "b1")
        assert cache.fetch("a", {"seed": 2}) == (True, "a2")
        assert cache.fetch("b", {"seed": 1}) == (True, "b1")
        assert len(cache.entries()) == 3

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.store("stage", {}, [1, 2, 3])
        path.write_bytes(b"not a pickle")
        hit, value = cache.fetch("stage", {})
        assert not hit and value is None

    def test_info_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert "empty" in cache.info_text()
        cache.store("stage", {}, "x")
        assert "stage" in cache.info_text()
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_other_code_version_is_a_plain_miss(self, tmp_path, monkeypatch):
        # Every key hashes the source, so an artifact written by another
        # source tree is never fetched (nor quarantined).
        from repro.perf import cache as cache_module

        cache = ArtifactCache(tmp_path)
        monkeypatch.setattr(cache_module, "_code_version", "0" * 16)
        cache.store("stage", {"seed": 1}, "old")
        monkeypatch.setattr(cache_module, "_code_version", "1" * 16)
        assert cache.fetch("stage", {"seed": 1}) == (False, None)
        assert cache.quarantined_count == 0
        monkeypatch.setattr(cache_module, "_code_version", "0" * 16)
        assert cache.fetch("stage", {"seed": 1}) == (True, "old")

    def test_cold_then_warm_scenario_identical(self, tmp_path):
        cold = Scenario(seed=77, campaign_traces=120, cache=tmp_path)
        cold_campaign = cold.campaign
        stats = cold.cache_stats()
        assert stats["enabled"] and stats["misses"] >= 1
        warm = Scenario(seed=77, campaign_traces=120, cache=tmp_path)
        assert warm.campaign == cold_campaign
        stats = warm.cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] == 0

    def test_cache_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        scenario = Scenario(seed=77, campaign_traces=120)
        assert scenario.cache_stats() == {
            "enabled": False, "hits": 0, "misses": 0, "root": None,
        }


class TestResolveCache:
    def test_explicit_values(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert resolve_cache(cache) is cache
        assert resolve_cache(False) is None
        assert resolve_cache(tmp_path).root == tmp_path
        assert resolve_cache(str(tmp_path)).root == tmp_path

    def test_env_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache(None).root == tmp_path
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert resolve_cache(None) is None  # explicit falsy flag wins
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert resolve_cache(None) is not None


class TestCacheCli:
    def test_info_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache = ArtifactCache(tmp_path)
        cache.store("stage", {}, "x")
        assert main(["--cache-dir", str(tmp_path), "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out and "stage" in out
        assert main(["--cache-dir", str(tmp_path), "cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cache.entries() == []
