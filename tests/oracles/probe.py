"""The per-destination NetworkX route walk the probe engine replaced."""

from __future__ import annotations

from typing import Dict, Tuple

import networkx as nx

from repro.traceroute.probe import ProbeEngine
from tests.oracles.graphs import topology_graph


class ReferenceProbeEngine(ProbeEngine):
    """:class:`ProbeEngine` routing every trace over NetworkX Dijkstra
    predecessor maps (one per destination, cached) instead of the
    compiled routing core."""

    def __init__(self, topology, seed: int = 31):
        super().__init__(topology, seed=seed)
        self._graph = topology_graph(topology)
        self._pred_cache: Dict[Tuple[str, str], Dict] = {}

    def _predecessors(self, dst_node: Tuple[str, str]) -> Dict:
        pred = self._pred_cache.get(dst_node)
        if pred is None:
            pred, _dist = nx.dijkstra_predecessor_and_distance(
                self._graph, dst_node, weight="ms"
            )
            self._pred_cache[dst_node] = pred
        return pred

    def _route_reference(
        self, src_node: Tuple[str, str], dst_node: Tuple[str, str]
    ):
        """The NetworkX reference path (cross-checked against the core)."""
        graph = self._graph
        if src_node not in graph or dst_node not in graph:
            return None
        pred = self._predecessors(dst_node)
        if src_node not in pred:
            return None
        # Walk from source toward the Dijkstra root (the destination).
        path = [src_node]
        node = src_node
        while node != dst_node:
            nexts = pred[node]
            if not nexts:
                break
            node = nexts[0]
            path.append(node)
        return path if path[-1] == dst_node else None

    def _route(self, src_node, dst_node):
        return self._route_reference(src_node, dst_node)
