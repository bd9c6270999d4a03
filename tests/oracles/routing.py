"""§6 routing references over per-call NetworkX graphs.

Moved verbatim out of :mod:`repro.routing` and the conduit-graph
walkers: the primary/backup planner (a footprint graph plus two
graph copies per pair), the per-provider opacity path, the
Pareto sweep that rebuilds a subgraph per risk level, and the
``simple_conduit_graph`` walk of :mod:`repro.policy.titleii`,
:mod:`repro.experiments.ext_nsfnet` and the phantom providers of
:mod:`repro.traceroute.topology`.  The package answers all of them on
the substrate's cached views with edge masks instead.

Also the cut re-trace's masked solve over every destination of a pair
sample, moved out of :meth:`repro.perf.routing.RoutingCore.paths_without`,
which re-solves only the destinations whose intact paths the cut
crosses.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.perf.routing import RoutingCore
from repro.routing.backup import SRLG_PENALTY_KM, BackupPlan
from repro.routing.opacity import OpacityCase
from repro.routing.pareto import ParetoPath
from repro.routing.srlg import path_srlgs, shared_srlgs
from tests.oracles.fibermap import simple_conduit_graph


def _shortest_footprint_graph(fiber_map: FiberMap, isp: str) -> nx.Graph:
    graph = nx.Graph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if isp not in conduit.tenants:
            continue
        a, b = conduit.edge
        data = graph.get_edge_data(a, b)
        if data is None or conduit.length_km < data["length_km"]:
            graph.add_edge(
                a, b, conduit_id=cid, length_km=conduit.length_km
            )
    return graph


def _path_conduits(graph: nx.Graph, path: List[str]) -> Tuple[str, ...]:
    return tuple(graph[u][v]["conduit_id"] for u, v in zip(path, path[1:]))


def _path_km(graph: nx.Graph, path: List[str]) -> float:
    return sum(graph[u][v]["length_km"] for u, v in zip(path, path[1:]))


def plan_backup_reference(
    fiber_map: FiberMap,
    isp: str,
    a_key: str,
    b_key: str,
) -> Optional[BackupPlan]:
    """Plan a primary and an SRLG-diverse backup path.

    Returns ``None`` when the provider cannot connect the pair at all.
    The backup is ``None`` (unprotected) when removing the primary's
    risk groups disconnects the pair *and* no penalized alternative
    distinct from the primary exists.
    """
    graph = _shortest_footprint_graph(fiber_map, isp)
    try:
        primary_path = nx.shortest_path(graph, a_key, b_key, weight="length_km")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    primary = _path_conduits(graph, primary_path)
    primary_km = _path_km(graph, primary_path)
    primary_groups = path_srlgs(fiber_map, primary)

    # Strict attempt: remove every edge in a primary risk group.
    strict = graph.copy()
    for edge in primary_groups:
        if strict.has_edge(*edge):
            strict.remove_edge(*edge)
    backup: Optional[Tuple[str, ...]] = None
    backup_km: Optional[float] = None
    try:
        backup_path = nx.shortest_path(strict, a_key, b_key, weight="length_km")
        backup = _path_conduits(strict, backup_path)
        backup_km = _path_km(strict, backup_path)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        # Penalized attempt: allow overlap at a steep price.
        penalized = graph.copy()
        for edge in primary_groups:
            if penalized.has_edge(*edge):
                penalized[edge[0]][edge[1]]["length_km"] += SRLG_PENALTY_KM
        try:
            backup_path = nx.shortest_path(
                penalized, a_key, b_key, weight="length_km"
            )
            candidate = _path_conduits(graph, backup_path)
            if candidate != primary:
                backup = candidate
                backup_km = _path_km(graph, backup_path)
        except (nx.NetworkXNoPath, nx.NodeNotFound):  # pragma: no cover
            backup = None
    shared = (
        shared_srlgs(fiber_map, primary, backup)
        if backup is not None
        else frozenset()
    )
    return BackupPlan(
        isp=isp,
        endpoints=(primary_path[0], primary_path[-1]),
        primary_conduits=primary,
        backup_conduits=backup,
        primary_delay_ms=fiber_delay_ms(primary_km),
        backup_delay_ms=fiber_delay_ms(backup_km) if backup_km is not None else None,
        shared_groups=shared,
    )


def isp_path_reference(
    fiber_map: FiberMap, isp: str, a_key: str, b_key: str
) -> Optional[Tuple[str, ...]]:
    graph = nx.Graph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if isp not in conduit.tenants:
            continue
        u, v = conduit.edge
        data = graph.get_edge_data(u, v)
        if data is None or conduit.length_km < data["length_km"]:
            graph.add_edge(u, v, conduit_id=cid, length_km=conduit.length_km)
    try:
        path = nx.shortest_path(graph, a_key, b_key, weight="length_km")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    return tuple(
        graph[u][v]["conduit_id"] for u, v in zip(path, path[1:])
    )


def check_pair_reference(
    fiber_map: FiberMap,
    a_key: str,
    b_key: str,
    isp_a: str,
    isp_b: str,
) -> Optional[OpacityCase]:
    """Compare two providers' paths between one city pair.

    Returns ``None`` when either provider cannot connect the pair.
    """
    path_a = isp_path_reference(fiber_map, isp_a, a_key, b_key)
    path_b = isp_path_reference(fiber_map, isp_b, a_key, b_key)
    if path_a is None or path_b is None:
        return None
    return OpacityCase(
        endpoints=(a_key, b_key),
        isp_a=isp_a,
        isp_b=isp_b,
        path_a=path_a,
        path_b=path_b,
        shared_groups=shared_srlgs(fiber_map, path_a, path_b),
        shared_conduits=frozenset(path_a) & frozenset(path_b),
    )


def _fewest_tenants_graph(fiber_map: FiberMap, isp: Optional[str]) -> nx.Graph:
    graph = nx.Graph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if isp is not None and isp not in conduit.tenants:
            continue
        a, b = conduit.edge
        data = graph.get_edge_data(a, b)
        if data is None or conduit.num_tenants < data["risk"]:
            graph.add_edge(
                a, b,
                conduit_id=cid,
                length_km=conduit.length_km,
                risk=conduit.num_tenants,
            )
    return graph


def pareto_paths_reference(
    fiber_map: FiberMap,
    a_key: str,
    b_key: str,
    isp: Optional[str] = None,
) -> List[ParetoPath]:
    """The (delay, bottleneck-risk) Pareto frontier between two cities.

    Sweeps the bottleneck threshold: for each feasible maximum tenant
    count, the shortest-delay path using only conduits at or below it.
    Dominated options are discarded; the result is sorted fastest first.
    Restricting to *isp* uses only that provider's footprint.
    """
    graph = _fewest_tenants_graph(fiber_map, isp)
    if a_key not in graph or b_key not in graph:
        return []
    levels = sorted({d["risk"] for _, _, d in graph.edges(data=True)})
    options: List[ParetoPath] = []
    for level in levels:
        sub = nx.Graph()
        for u, v, d in graph.edges(data=True):
            if d["risk"] <= level:
                sub.add_edge(u, v, **d)
        if a_key not in sub or b_key not in sub:
            continue
        try:
            path = nx.shortest_path(sub, a_key, b_key, weight="length_km")
        except nx.NetworkXNoPath:
            continue
        km = sum(sub[u][v]["length_km"] for u, v in zip(path, path[1:]))
        risks = [sub[u][v]["risk"] for u, v in zip(path, path[1:])]
        option = ParetoPath(
            conduit_ids=tuple(
                sub[u][v]["conduit_id"] for u, v in zip(path, path[1:])
            ),
            delay_ms=fiber_delay_ms(km),
            max_risk=max(risks),
            total_risk=sum(risks),
        )
        options.append(option)
    # Keep the non-dominated set over (delay, max_risk).
    options.sort(key=lambda o: (o.delay_ms, o.max_risk))
    frontier: List[ParetoPath] = []
    best_risk = None
    for option in options:
        if best_risk is None or option.max_risk < best_risk:
            frontier.append(option)
            best_risk = option.max_risk
    return frontier



def conduit_graph_path_reference(
    fiber_map: FiberMap, a_key: str, b_key: str
) -> Optional[Tuple[List[str], List[str], float]]:
    """The ``simple_conduit_graph`` walk the Title II entrants, the
    NSFNET comparison and the phantom providers each ran: the shortest
    conduit path as ``(city path, conduit ids, km)``, km accumulated hop
    by hop."""
    graph = simple_conduit_graph(fiber_map)
    try:
        path = nx.shortest_path(graph, a_key, b_key, weight="length_km")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    conduit_ids: List[str] = []
    total_km = 0.0
    for u, v in zip(path, path[1:]):
        data = graph[u][v]
        conduit_ids.append(data["conduit_id"])
        total_km += data["length_km"]
    return path, conduit_ids, total_km


def paths_without_reference(
    core: RoutingCore,
    pairs: Sequence[Tuple[Hashable, Hashable]],
    edge_mask: "np.ndarray",
) -> List[Optional[Tuple[Hashable, ...]]]:
    """Every pair's path on the core minus the masked edges: one
    batched, masked solve over all the pairs' distinct destinations."""
    index = core.index
    _dist, pred, row_of = core.dijkstra(
        [dst for _, dst in pairs], core.weight, edge_mask=edge_mask
    )
    out: List[Optional[Tuple[Hashable, ...]]] = []
    for src, dst in pairs:
        s = index.get(src)
        if s is None or dst not in row_of:
            out.append(None)
        elif s == index[dst]:
            out.append((src,))
        else:
            path = core._key_path(pred[row_of[dst]], s, index[dst])
            out.append(None if path is None else tuple(path))
    return out
