"""§5 and §6.3 reference implementations over per-call NetworkX graphs.

Moved verbatim out of :mod:`repro.mitigation`; the ``*_reference``
wrappers at the bottom of each section run them end to end with the
package's own pair selection, drivers and result types, so the parity
suites compare whole analyses.  The §5.2 section also keeps the
substrate engine's former per-call solves (an exposure walk and an
estimate that each re-solve their sources), which the engine's cached
rows must equal at every state.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.mitigation import augmentation as _aug
from repro.mitigation.augmentation import (
    COST_PENALTY_PER_KM,
    LENGTH_EPSILON,
    _demand_costs,
    candidate_gain,
    candidate_new_edges,
)
from repro.mitigation.drivers import AugmentationEnv, make_driver, run_driver
from repro.mitigation.exchange import (
    COST_PER_KM,
    MIN_GAIN,
    ExchangeConduit,
    ExchangeMember,
)
from repro.mitigation.latency import (
    DEFAULT_MAX_KM,
    DEFAULT_MAX_PATHS,
    DEFAULT_MIN_KM,
    DEFAULT_SLACK,
    LatencyStudy,
    PairDelays,
    _study_pairs,
)
from repro.mitigation.robustness import _suggestion_for_isp
from repro.perf.substrate import GraphView
from repro.risk.metrics import most_shared_conduits
from repro.transport.network import EdgeKey, TransportationNetwork
from tests.oracles.fibermap import simple_conduit_graph
from tests.oracles.graphs import row_graph


# ----------------------------------------------------------------------
# §5.1 robustness suggestions
# ----------------------------------------------------------------------
def _risk_graph(fiber_map: FiberMap, exclude: Optional[str] = None) -> nx.Graph:
    """Conduit graph weighted by shared risk (tenant count).

    Parallel conduits collapse to the least-shared one; the conduit being
    optimized away is excluded so the alternate path cannot use it.
    """
    graph = nx.Graph()
    for cid, conduit in sorted(fiber_map.conduits.items()):
        if cid == exclude:
            continue
        a, b = conduit.edge
        data = graph.get_edge_data(a, b)
        if data is None or conduit.num_tenants < data["risk"]:
            graph.add_edge(
                a, b, conduit_id=cid, risk=conduit.num_tenants,
                length_km=conduit.length_km,
            )
    return graph


def _optimized_path_reference(
    fiber_map: FiberMap, conduit_id: str
) -> Optional[Tuple[Tuple[str, ...], int]]:
    """NetworkX reference: the min-shared-risk alternate path around one
    conduit, as ``(conduit_ids, max_risk)``."""
    conduit = fiber_map.conduit(conduit_id)
    graph = _risk_graph(fiber_map, exclude=conduit_id)
    a, b = conduit.edge
    try:
        path = nx.shortest_path(graph, a, b, weight="risk")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    conduits = tuple(
        graph[u][v]["conduit_id"] for u, v in zip(path, path[1:])
    )
    max_risk = max(graph[u][v]["risk"] for u, v in zip(path, path[1:]))
    return conduits, max_risk


def optimize_all_isps_reference(fiber_map: FiberMap, matrix, top: int = 12):
    """:func:`repro.mitigation.robustness.optimize_all_isps` on the
    NetworkX reference solve."""
    shared = [cid for cid, _ in most_shared_conduits(matrix, top=top)]
    solved = {
        cid: _optimized_path_reference(fiber_map, cid)
        for cid in dict.fromkeys(shared)
    }
    return {
        isp: _suggestion_for_isp(fiber_map, isp, shared, solved)
        for isp in matrix.isps
    }


# ----------------------------------------------------------------------
# §5.2 augmentation
# ----------------------------------------------------------------------
class _FootprintRouter:
    """Minimum-risk routing over one provider's (augmentable) footprint."""

    def __init__(self, fiber_map: FiberMap, isp: str):
        self.graph = nx.Graph()
        for cid, conduit in sorted(fiber_map.conduits.items()):
            if isp not in conduit.tenants:
                continue
            a, b = conduit.edge
            weight = conduit.num_tenants + LENGTH_EPSILON * conduit.length_km
            data = self.graph.get_edge_data(a, b)
            if data is None or weight < data["w"]:
                self.graph.add_edge(
                    a, b, w=weight, risk=conduit.num_tenants
                )

    def add_private_conduit(self, edge: EdgeKey, length_km: float) -> None:
        weight = 1.0 + LENGTH_EPSILON * length_km
        data = self.graph.get_edge_data(*edge)
        if data is None or weight < data["w"]:
            self.graph.add_edge(edge[0], edge[1], w=weight, risk=1)

    def route_exposure(self, demands: Sequence[EdgeKey]) -> float:
        """Traffic-weighted average shared risk over all demands."""
        total_risk = 0.0
        total_hops = 0
        for a, b in demands:
            try:
                path = nx.shortest_path(self.graph, a, b, weight="w")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                continue
            for u, v in zip(path, path[1:]):
                total_risk += self.graph[u][v]["risk"]
                total_hops += 1
        if total_hops == 0:
            return 0.0
        return total_risk / total_hops

    def dijkstra_risk(self, source: str) -> Dict[str, float]:
        if source not in self.graph:
            return {}
        return nx.single_source_dijkstra_path_length(
            self.graph, source, weight="w"
        )


class _ReferenceEngine:
    """NetworkX reference state (two dict Dijkstras per candidate per
    estimate); the scipy-absent and cross-check path."""

    def __init__(
        self,
        fiber_map: FiberMap,
        isp: str,
        candidates: List[Tuple[EdgeKey, float]],
    ):
        self._fiber_map = fiber_map
        self._isp = isp
        self.router = _FootprintRouter(fiber_map, isp)
        self.demands = sorted(
            {link.endpoints for link in fiber_map.links_of(isp)}
        )
        footprint_cities = set(self.router.graph.nodes)
        eligible = [
            (edge, length)
            for edge, length in candidates
            if edge[0] in footprint_cities and edge[1] in footprint_cities
        ]
        self.pool = eligible[: _aug.MAX_CANDIDATES]
        self.pool_truncated = len(eligible) - len(self.pool)
        self.baseline = self.router.route_exposure(self.demands)

    def reset(self) -> None:
        self.router = _FootprintRouter(self._fiber_map, self._isp)

    def estimate_scores(self, applied: Set[int]) -> List[Optional[float]]:
        router = self.router
        demands = self.demands
        # Current demand costs, computed once per estimate: one Dijkstra
        # per distinct demand source.
        sources = sorted({a for a, _ in demands} | {b for _, b in demands})
        dist_from: Dict[str, Dict[str, float]] = {
            s: router.dijkstra_risk(s) for s in sources
        }
        current_cost: Dict[EdgeKey, float] = {}
        for a, b in demands:
            cost = dist_from.get(a, {}).get(b)
            if cost is not None:
                current_cost[(a, b)] = cost
        inf = float("inf")
        scores: List[Optional[float]] = []
        for pos, (edge, length) in enumerate(self.pool):
            if pos in applied:
                scores.append(None)
                continue
            # Estimated gain: links that would reroute through the new
            # conduit save (old path cost) - (cost via new conduit).
            from_u = dist_from.get(edge[0], router.dijkstra_risk(edge[0]))
            from_v = dist_from.get(edge[1], router.dijkstra_risk(edge[1]))
            new_weight = 1.0 + LENGTH_EPSILON * length
            gain = 0.0
            for (a, b), cost in current_cost.items():
                # Inf-safe on both orientations, mirroring the kernel's
                # mask-on-the-min (see candidate_gain).
                via_new = min(
                    from_u.get(a, inf) + new_weight + from_v.get(b, inf),
                    from_v.get(a, inf) + new_weight + from_u.get(b, inf),
                )
                if via_new < cost:
                    gain += cost - via_new
            scores.append(gain - COST_PENALTY_PER_KM * length)
        return scores

    def apply(self, pos: int) -> float:
        edge, length = self.pool[pos]
        self.router.add_private_conduit(edge, length)
        return self.router.route_exposure(self.demands)


class ReferenceAugmentationEnv(AugmentationEnv):
    """:class:`AugmentationEnv` over the NetworkX reference engine."""

    @staticmethod
    def _make_engine(fiber_map, isp, candidates):
        return _ReferenceEngine(fiber_map, isp, candidates)


def route_exposure_reference(view: GraphView, demands: Sequence[EdgeKey]) -> float:
    """The substrate engine's exposure walk as it was: one batched
    Dijkstra over the demand sources per call (moved out of
    :mod:`repro.mitigation.augmentation`)."""
    total_risk = 0.0
    total_hops = 0
    _dist, pred, row_of = view.dijkstra([a for a, _ in demands], "w")
    risk = view.weights["risk"]
    edge_of = view._edge_of
    for a, b in demands:
        if not view.present(a) or not view.present(b):
            continue
        path = view.walk(pred[row_of[a]], view.index[a], view.index[b])
        if path is None:
            continue
        for u, v in zip(path, path[1:]):
            total_risk += float(risk[edge_of[(min(u, v), max(u, v))]])
            total_hops += 1
    if total_hops == 0:
        return 0.0
    return total_risk / total_hops


def estimate_scores_reference(
    view: GraphView,
    demands: Sequence[EdgeKey],
    pool: Sequence[Tuple[EdgeKey, float]],
    applied: Set[int],
) -> List[Optional[float]]:
    """The substrate engine's estimate as it was: every source it reads
    (both demand endpoints, both candidate endpoints) re-solved in one
    scipy call, whatever the exposure walk solved before."""
    all_sources = sorted(
        {a for a, _ in demands}
        | {b for _, b in demands}
        | {e for edge, _ in pool for e in edge}
    )
    dist, _pred, row_of = view.dijkstra(all_sources, "w")
    ai, bi, costs = _demand_costs(view, dist, row_of, demands)
    scores: List[Optional[float]] = []
    for pos, (edge, length) in enumerate(pool):
        if pos in applied:
            scores.append(None)
            continue
        du = dist[row_of[edge[0]]]
        dv = dist[row_of[edge[1]]]
        new_weight = 1.0 + LENGTH_EPSILON * length
        gain = candidate_gain(du, dv, ai, bi, costs, new_weight)
        scores.append(gain - COST_PENALTY_PER_KM * length)
    return scores


def improvement_curve_reference(
    fiber_map: FiberMap,
    network: Optional[TransportationNetwork],
    isp: str,
    max_k: int = 10,
    candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
    driver: str = "greedy",
    driver_seed: int = 0,
    **driver_params,
):
    """:func:`repro.mitigation.augmentation.improvement_curve` on the
    NetworkX reference engine."""
    env = ReferenceAugmentationEnv(
        fiber_map, network, isp, max_k=max_k, candidates=candidates
    )
    return run_driver(env, make_driver(driver, seed=driver_seed, **driver_params))


# ----------------------------------------------------------------------
# §5.3 propagation delay
# ----------------------------------------------------------------------
def _alternative_paths_mean_km(
    graph: nx.Graph,
    a: str,
    b: str,
    best_km: float,
    max_paths: int,
    slack: float,
) -> float:
    """Mean length of distinct physical paths between two cities.

    Enumerates shortest simple paths until the slack bound or path-count
    cap is hit; always includes the best path.
    """
    lengths: List[float] = []
    generator = nx.shortest_simple_paths(graph, a, b, weight="length_km")
    for path in generator:
        km = sum(
            graph[u][v]["length_km"] for u, v in zip(path, path[1:])
        )
        if km > best_km * slack and lengths:
            break
        lengths.append(km)
        if len(lengths) >= max_paths:
            break
    return sum(lengths) / len(lengths)


def _subgraph_for_kinds(
    network: TransportationNetwork, kinds: Optional[FrozenSet[str]]
) -> nx.Graph:
    if kinds is None:
        return row_graph(network)
    sub = nx.Graph()
    for record in network._edges.values():
        usable = record.kinds & kinds
        if not usable:
            continue
        # Weight by the shortest geometry among the allowed kinds.
        length = min(
            record.geometries[name].length_km
            for name in record.corridor_names
            if record.kind_of[name] in usable
        )
        sub.add_edge(record.edge[0], record.edge[1], length_km=length)
    return sub


def row_shortest_path_reference(
    network: TransportationNetwork,
    a_key: str,
    b_key: str,
    kinds: Optional[Iterable[str]] = None,
) -> Tuple[List[str], float]:
    """:meth:`TransportationNetwork.row_shortest_path` on a NetworkX
    subgraph rebuilt per call."""
    kind_set = frozenset(kinds) if kinds is not None else None
    graph = _subgraph_for_kinds(network, kind_set)
    path = nx.shortest_path(graph, a_key, b_key, weight="length_km")
    length = nx.path_weight(graph, path, weight="length_km")
    return path, length


def _pair_delays_reference(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    ordered: Sequence[EdgeKey],
    los_of: Dict[EdgeKey, float],
    max_paths: int,
    slack: float,
    row_kinds: Tuple[str, ...],
) -> List[PairDelays]:
    """NetworkX reference: per-pair graph solves (and a per-call ROW
    subgraph rebuild inside :func:`row_shortest_path_reference`)."""
    conduit_graph = simple_conduit_graph(fiber_map)
    results: List[PairDelays] = []
    for a, b in ordered:
        if a not in conduit_graph or b not in conduit_graph:
            continue
        try:
            best_km = nx.shortest_path_length(
                conduit_graph, a, b, weight="length_km"
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
        avg_km = _alternative_paths_mean_km(
            conduit_graph, a, b, best_km, max_paths, slack
        )
        try:
            _, row_km = row_shortest_path_reference(
                network, a, b, kinds=row_kinds
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
        results.append(
            PairDelays(
                pair=(a, b),
                best_ms=fiber_delay_ms(best_km),
                avg_ms=fiber_delay_ms(avg_km),
                row_ms=fiber_delay_ms(row_km),
                los_ms=fiber_delay_ms(los_of[(a, b)]),
            )
        )
    return results


def latency_study_reference(
    fiber_map: FiberMap, network: TransportationNetwork, max_pairs: int = 400
) -> LatencyStudy:
    """:func:`repro.mitigation.latency.latency_study` (default bands and
    seed) on the NetworkX reference solves."""
    ordered, los_of = _study_pairs(
        fiber_map, network, DEFAULT_MIN_KM, DEFAULT_MAX_KM, max_pairs, 97
    )
    return LatencyStudy(
        pairs=tuple(
            _pair_delays_reference(
                fiber_map, network, ordered, los_of, DEFAULT_MAX_PATHS,
                DEFAULT_SLACK, ("road", "rail"),
            )
        )
    )


# ----------------------------------------------------------------------
# §6.3 link exchange (the planner before it moved onto the substrate)
# ----------------------------------------------------------------------
def _estimated_gain(
    router: _FootprintRouter,
    demands: Sequence[EdgeKey],
    dist_cache: Dict[str, Dict[str, float]],
    edge: EdgeKey,
    length_km: float,
) -> float:
    """Exposure-cost drop for one provider if *edge* existed (estimate)."""
    if edge[0] not in router.graph or edge[1] not in router.graph:
        return 0.0
    from_u = dist_cache.setdefault(edge[0], router.dijkstra_risk(edge[0]))
    from_v = dist_cache.setdefault(edge[1], router.dijkstra_risk(edge[1]))
    new_weight = 1.0 + LENGTH_EPSILON * length_km
    gain = 0.0
    for a, b in demands:
        current = dist_cache.setdefault(a, router.dijkstra_risk(a)).get(b)
        if current is None:
            continue
        via = min(
            from_u.get(a, float("inf")) + new_weight + from_v.get(b, float("inf")),
            from_v.get(a, float("inf")) + new_weight + from_u.get(b, float("inf")),
        )
        if via < current:
            gain += current - via
    return gain


def plan_exchange(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    isps: Sequence[str],
    num_conduits: int = 5,
    candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
) -> List[ExchangeConduit]:
    """Plan the *num_conduits* most beneficial jointly funded conduits.

    Benefit per provider is the §5.2 exposure-gain estimate; cost shares
    are proportional to benefit (providers that gain nothing pay
    nothing and stay out).
    """
    if num_conduits <= 0:
        raise ValueError("num_conduits must be positive")
    if candidates is None:
        candidates = candidate_new_edges(fiber_map, network)
    routers: Dict[str, _FootprintRouter] = {}
    demands: Dict[str, List[EdgeKey]] = {}
    caches: Dict[str, Dict[str, Dict[str, float]]] = {}
    for isp in isps:
        routers[isp] = _FootprintRouter(fiber_map, isp)
        demands[isp] = sorted({l.endpoints for l in fiber_map.links_of(isp)})
        caches[isp] = {}
    scored: List[Tuple[EdgeKey, float, float, Dict[str, float]]] = []
    for edge, length in candidates:
        gains = {}
        for isp in isps:
            gain = _estimated_gain(
                routers[isp], demands[isp], caches[isp], edge, length
            )
            if gain > MIN_GAIN:
                gains[isp] = gain
        total = sum(gains.values())
        if total > MIN_GAIN:
            scored.append((edge, length, total, gains))
    scored.sort(key=lambda item: (-item[2], item[0]))
    result = []
    for edge, length, total, gains in scored[:num_conduits]:
        cost = length * COST_PER_KM
        members = tuple(
            ExchangeMember(
                isp=isp,
                gain=gain,
                cost_share=cost * gain / total,
                solo_cost=cost,
            )
            for isp, gain in sorted(gains.items())
        )
        result.append(
            ExchangeConduit(
                edge=edge, length_km=length, total_gain=total, members=members
            )
        )
    return result
