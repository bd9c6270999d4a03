"""The NetworkX latency query the service answered without scipy."""

from __future__ import annotations

from repro.geo.coords import fiber_delay_ms
from repro.service.schema import LatencyRequest, LatencyResponse
from tests.oracles.fibermap import simple_conduit_graph


def _nx_latency(scenario, request: LatencyRequest) -> LatencyResponse:
    """NetworkX reference path (no scipy): same collapse, same answer."""
    import networkx as nx

    graph = simple_conduit_graph(scenario.constructed_map)
    unreachable = LatencyResponse(
        city_a=request.city_a, city_b=request.city_b,
        reachable=False, delay_ms=None, length_km=None,
        hops=0, path=(), conduit_ids=(),
    )
    if request.city_a not in graph or request.city_b not in graph:
        return unreachable
    try:
        path = nx.shortest_path(
            graph, request.city_a, request.city_b, weight="length_km"
        )
    except nx.NetworkXNoPath:
        return unreachable
    km = 0.0
    conduit_ids = []
    for u, v in zip(path, path[1:]):
        km += graph[u][v]["length_km"]
        conduit_ids.append(graph[u][v]["conduit_id"])
    return LatencyResponse(
        city_a=request.city_a,
        city_b=request.city_b,
        reachable=True,
        delay_ms=fiber_delay_ms(km),
        length_km=km,
        hops=len(conduit_ids),
        path=tuple(path),
        conduit_ids=tuple(conduit_ids),
    )
