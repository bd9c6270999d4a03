"""NetworkX graphs of the package's containers, for the oracles.

The package keeps no NetworkX graph: the transportation network holds
plain right-of-way records and the router topology a latency per router
adjacency, and both compile into :class:`~repro.perf.substrate.GraphView`.
The oracles and parity suites that still solve on NetworkX build their
graphs here, and :func:`core_from_networkx` compiles a NetworkX graph
back into a routing core the way the package compiled its own before.
"""

from __future__ import annotations

import networkx as nx

from repro.perf.routing import RoutingCore
from repro.perf.substrate import GraphView


def row_graph(network) -> nx.Graph:
    """The network's right-of-way graph: city keys as nodes, each edge
    weighted by its shortest covering geometry (``length_km``)."""
    graph = nx.Graph()
    for record in network.edges():
        graph.add_edge(*record.edge, length_km=record.length_km)
    return graph


def topology_graph(topology) -> nx.Graph:
    """The router-level topology rebuilt from its routing core: routers
    as nodes, ``ms`` latency per adjacency, and ``kind``/``isp`` read off
    the node keys (an adjacency between two routers of one provider is
    ``intra`` with that provider, any other is a ``peering``)."""
    core = topology.routing_core()
    graph = nx.Graph()
    graph.add_nodes_from(core.nodes)
    for u, v, ms in zip(core.eu.tolist(), core.ev.tolist(),
                        core.weights["ms"].tolist()):
        a, b = core.nodes[u], core.nodes[v]
        if a[0] == b[0]:
            graph.add_edge(a, b, ms=ms, kind="intra", isp=a[0])
        else:
            graph.add_edge(a, b, ms=ms, kind="peering", isp=None)
    return graph


def core_from_networkx(graph: nx.Graph, weight: str = "ms") -> RoutingCore:
    """Compile a NetworkX graph over its sorted nodes, with *weight* as
    the one weight array."""
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    eu, ev, data = [], [], []
    for u, v, w in graph.edges(data=weight, default=0.0):
        ui, vi = index[u], index[v]
        eu.append(min(ui, vi))
        ev.append(max(ui, vi))
        data.append(float(w))
    return RoutingCore(GraphView(nodes, index, eu, ev, {weight: data}), weight)
