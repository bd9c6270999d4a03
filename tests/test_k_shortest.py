"""Parity suite: one compiled ``yen`` call vs the array-walk Yen and
NetworkX.

:meth:`repro.perf.substrate.GraphView.k_shortest_paths` answers the
§5.3 study's alternative paths with one
:func:`scipy.sparse.csgraph.yen` call per pair.  The Python Yen it
replaced (one masked Dijkstra per spur) is the oracle in
``tests/oracles/kshortest.py``; both, and
``networkx.shortest_simple_paths``, must give the same path lengths bit
for bit on every Figure 12 study pair of both map families, and the
study's alternative-path mean must not move.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.mitigation.latency import (
    DEFAULT_MAX_KM,
    DEFAULT_MAX_PATHS,
    DEFAULT_MIN_KM,
    DEFAULT_SLACK,
    _alternative_paths_mean_km,
    _study_pairs,
)
from repro.perf.substrate import GraphView, substrate_for
from tests.oracles.fibermap import simple_conduit_graph
from tests.oracles.kshortest import (
    alternative_paths_mean_km_reference,
    shortest_simple_paths,
)

#: Paths compared per pair: past the study's cap, so a divergence just
#: beyond the paths it averages would still show.
K = DEFAULT_MAX_PATHS + 2


def _networkx_lengths(graph: nx.Graph, a: str, b: str, k: int):
    return [
        sum(graph[u][v]["length_km"] for u, v in zip(path, path[1:]))
        for path in itertools.islice(
            nx.shortest_simple_paths(graph, a, b, weight="length_km"), k
        )
    ]


def _study_pairs_with_best(scenario):
    """Every Figure 12 study pair the conduit view connects, with its
    best-path length."""
    fiber_map = scenario.constructed_map
    ordered, _los = _study_pairs(
        fiber_map, scenario.network, DEFAULT_MIN_KM, DEFAULT_MAX_KM, 400, 97
    )
    view = substrate_for(fiber_map).conduit_view()
    dist, _pred, row_of = view.dijkstra([a for a, _ in ordered], "length_km")
    pairs = []
    for a, b in ordered:
        if not (view.present(a) and view.present(b)):
            continue
        best_km = float(dist[row_of[a], view.index[b]])
        if np.isfinite(best_km):
            pairs.append((a, b, best_km))
    return view, pairs


def test_study_pair_lengths_match_oracles(family_scenario):
    view, pairs = _study_pairs_with_best(family_scenario)
    assert pairs
    graph = simple_conduit_graph(family_scenario.constructed_map)
    for a, b, best_km in pairs:
        found = view.k_shortest_paths(a, b, "length_km", K)
        lengths = [km for _path, km in found]
        walked = [
            km
            for _path, km in itertools.islice(
                shortest_simple_paths(view, a, b, "length_km"), K
            )
        ]
        assert lengths == walked, (a, b)
        assert lengths == _networkx_lengths(graph, a, b, K), (a, b)
        assert lengths[0] == best_km, (a, b)
        for path, km in found:
            assert (view.nodes[path[0]], view.nodes[path[-1]]) == (a, b)
            assert len(set(path)) == len(path), (a, b)
            assert view.path_length(path, "length_km") == km


def test_study_means_match_array_walk(family_scenario):
    view, pairs = _study_pairs_with_best(family_scenario)
    for a, b, best_km in pairs:
        for max_paths in (1, DEFAULT_MAX_PATHS):
            assert _alternative_paths_mean_km(
                view, a, b, best_km, max_paths, DEFAULT_SLACK
            ) == alternative_paths_mean_km_reference(
                view, a, b, best_km, max_paths, DEFAULT_SLACK
            ), (a, b, max_paths)


def _small_view() -> GraphView:
    """A square A-B-C-D with a chord A-C, and a pendant E off D; F is
    an isolated key (indexed, no edges)."""
    nodes = ["A", "B", "C", "D", "E", "F"]
    index = {key: i for i, key in enumerate(nodes)}
    edges = [("A", "B", 1.0), ("B", "C", 1.0), ("C", "D", 1.0),
             ("A", "D", 4.0), ("A", "C", 2.5), ("D", "E", 1.0)]
    return GraphView(
        nodes,
        index,
        [index[a] for a, _b, _w in edges],
        [index[b] for _a, b, _w in edges],
        {"length_km": [w for _a, _b, w in edges]},
    )


def test_small_graph_enumerates_every_simple_path():
    view = _small_view()
    found = view.k_shortest_paths("A", "E", "length_km", 10)
    assert [
        ([view.nodes[i] for i in path], km) for path, km in found
    ] == [
        (["A", "B", "C", "D", "E"], 4.0),
        (["A", "C", "D", "E"], 4.5),
        (["A", "D", "E"], 5.0),
    ]


def test_k_caps_the_count():
    view = _small_view()
    assert len(view.k_shortest_paths("A", "E", "length_km", 2)) == 2


@pytest.mark.parametrize("b_key", ["F", "Nowhere"])
def test_unconnected_or_unknown_pair_raises(b_key):
    with pytest.raises(KeyError):
        _small_view().k_shortest_paths("A", b_key, "length_km", 3)
