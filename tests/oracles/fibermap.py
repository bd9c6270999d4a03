"""The NetworkX conduit-graph builders ``FiberMap`` carried, and the
Figure 1 summaries computed on them.

``conduit_graph`` and ``simple_conduit_graph`` were ``FiberMap``
methods (now functions of the map); the package compiles the same
collapse once, in ``repro.perf.substrate.ConduitSubstrate``, and every
caller reads its views.  :func:`connectivity_reference` is the
``nx.diameter`` connectivity check :mod:`repro.analysis.connectivity`
ran, and :func:`hub_order_reference` the ``graph.degree()`` order the
Figure 1 hub marks and the metro study sorted.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx

from repro.fibermap.elements import FiberMap


def conduit_graph(fiber_map: FiberMap, isp: Optional[str] = None) -> nx.MultiGraph:
    """Conduits as a multigraph over cities.

    Edge data: ``conduit_id``, ``length_km``, ``tenants`` (count).
    When *isp* is given, only conduits that provider occupies are
    included (its physical footprint).
    """
    graph = nx.MultiGraph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if isp is not None and isp not in conduit.tenants:
            continue
        a, b = conduit.edge
        graph.add_edge(
            a,
            b,
            key=cid,
            conduit_id=cid,
            length_km=conduit.length_km,
            tenants=conduit.num_tenants,
        )
    return graph


def simple_conduit_graph(fiber_map: FiberMap, isp: Optional[str] = None) -> nx.Graph:
    """Simple-graph view: parallel conduits collapsed to the best one.

    Edge data: ``conduit_id`` (least-shared conduit on that edge),
    ``length_km`` (of that conduit), ``tenants`` (its tenant count).
    """
    graph = nx.Graph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if isp is not None and isp not in conduit.tenants:
            continue
        a, b = conduit.edge
        existing = graph.get_edge_data(a, b)
        if existing is None or conduit.num_tenants < existing["tenants"]:
            graph.add_edge(
                a,
                b,
                conduit_id=cid,
                length_km=conduit.length_km,
                tenants=conduit.num_tenants,
            )
    return graph


def hub_order_reference(fiber_map: FiberMap) -> List[Tuple[str, int]]:
    """``simple_conduit_graph().degree()`` in NetworkX node order."""
    return list(simple_conduit_graph(fiber_map).degree())


def connectivity_reference(fiber_map: FiberMap) -> Tuple[bool, int, int]:
    """``(connected, diameter_hops, components)`` of the simple conduit
    graph, as the NetworkX connectivity report computed them."""
    graph = simple_conduit_graph(fiber_map)
    connected = nx.is_connected(graph) if len(graph) > 0 else False
    if connected:
        diameter = nx.diameter(graph)
    else:
        diameter = max(
            (nx.diameter(graph.subgraph(c)) for c in nx.connected_components(graph)),
            default=0,
        )
    return connected, diameter, nx.number_connected_components(graph)
