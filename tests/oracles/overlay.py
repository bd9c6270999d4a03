"""The two overlay ingests the vectorized columnar pass replaced, and
the NetworkX conduit graphs its paths were resolved on.

:class:`ReferenceTrafficOverlay` interprets record objects one hop at a
time; :class:`LoopTrafficOverlay` is the per-hop loop over columnar
batches that preceded the whole-array pass.  Both credit conduits one
segment at a time through :meth:`_count`, so their ``traffic()`` order
is the order a hop-by-hop walk meets each conduit.
:class:`NetworkXConduitPaths` is the segment-to-conduit resolution as it
ran before the overlay read substrate views: a NetworkX conduit graph
per provider, each compiled into its own routing core.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import networkx as nx

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.obs.tracer import get_tracer
from repro.perf.routing import RoutingCore
from repro.perf.substrate import substrate_for
from repro.traceroute import overlay as overlay_module
from repro.traceroute.columns import TraceColumns
from repro.traceroute.geolocate import resolve_hop_city
from repro.traceroute.overlay import (
    EAST_TO_WEST,
    WEST_TO_EAST,
    ConduitTraffic,
    TrafficOverlay,
)
from repro.traceroute.probe import TracerouteRecord
from tests.oracles.fibermap import simple_conduit_graph
from tests.oracles.graphs import core_from_networkx


def conduit_paths(overlay, segments):
    """Conduit ids between the hop cities of every ``(isp, city_a,
    city_b)`` segment, ``None`` where no path joins them, as *overlay*
    resolves them (one batched walk per conduit graph)."""
    overlay._resolve(segments)
    return [overlay._path_cache[s] for s in segments]


def overlay_state(overlay):
    """Everything an ingest decides: conduit traffic in insertion order
    (``ConduitTraffic ==`` covers ``observed_isps``), the counters and
    the set of resolved segment keys."""
    return (
        list(overlay.traffic().items()),
        overlay.traces_processed,
        overlay.hops_unresolved,
        set(overlay._path_cache),
    )


class _CountingOverlay(TrafficOverlay):
    """:class:`TrafficOverlay` plus the one-segment path resolution and
    conduit credit."""

    def _core_for(
        self, isp: Optional[str], city_a: str, city_b: str
    ) -> RoutingCore:
        """The ISP's core when it holds both hop cities, else the
        generic conduit view's."""
        core = self._isp_core(isp)
        if core is not None and core.present(city_a) and core.present(city_b):
            return core
        return self._generic_core()

    def _conduit_path(
        self, isp: Optional[str], city_a: str, city_b: str
    ) -> Optional[Tuple[str, ...]]:
        """One segment's conduit ids, solving its destination's row on
        first use: the scalar reference of :func:`conduit_paths`."""
        key = (isp or "*", city_a, city_b)
        if key in self._path_cache:
            return self._path_cache[key]
        core = self._core_for(isp, city_a, city_b)
        result: Optional[Tuple[str, ...]] = None
        path = core.path(city_a, city_b)
        if path is not None and len(path) > 1:
            result = substrate_for(self._map).path_conduits(
                core, [core.index[city] for city in path]
            )
        self._path_cache[key] = result
        return result

    def _count(
        self, conduit_id: str, direction: str, isp: Optional[str]
    ) -> None:
        traffic = self._traffic.get(conduit_id)
        if traffic is None:
            conduit = self._map.conduit(conduit_id)
            traffic = ConduitTraffic(
                conduit_id=conduit_id, endpoints=conduit.edge
            )
            self._traffic[conduit_id] = traffic
        traffic.total += 1
        if direction == WEST_TO_EAST:
            traffic.west_to_east += 1
        else:
            traffic.east_to_west += 1
        if isp is not None:
            traffic.observed_isps.add(isp)


class ReferenceTrafficOverlay(_CountingOverlay):
    """:class:`TrafficOverlay` fed :class:`TracerouteRecord` objects one
    at a time, interpreting every hop from its DNS name and IP instead
    of from per-router schema tables."""

    @staticmethod
    def _direction(src_city: str, dst_city: str) -> str:
        src_lon = city_by_name(src_city).lon
        dst_lon = city_by_name(dst_city).lon
        return WEST_TO_EAST if src_lon <= dst_lon else EAST_TO_WEST

    def add_trace(self, record: TracerouteRecord) -> None:
        """Overlay one traceroute onto the conduit map."""
        if not record.reached or len(record.hops) < 2:
            return
        self._traces_processed += 1
        direction = self._direction(record.src_city, record.dst_city)
        previous_city: Optional[str] = None
        previous_isp: Optional[str] = None
        for hop in record.hops:
            isp = self._isp_from_name(hop.dns_name)
            city = resolve_hop_city(hop.dns_name, hop.ip, self._database)
            if city is None:
                self._hops_unresolved += 1
                previous_city, previous_isp = None, isp
                continue
            if (
                previous_city is not None
                and previous_isp is not None
                and isp == previous_isp
                and city != previous_city
            ):
                conduits = self._conduit_path(isp, previous_city, city)
                if conduits:
                    for conduit_id in conduits:
                        self._count(conduit_id, direction, isp)
            previous_city, previous_isp = city, isp


class LoopTrafficOverlay(_CountingOverlay):
    """:class:`TrafficOverlay` whose :meth:`add_traces` walks every hop
    of every streamed batch in a Python loop, resolving and crediting
    one segment at a time."""

    def add_traces(self, columns: TraceColumns) -> None:
        tracer = get_tracer()
        before_processed = self._traces_processed
        before_unresolved = self._hops_unresolved
        router_isp, router_city, city_lon = self._tables_for(columns.schema)
        with tracer.span("overlay.add_traces"):
            for batch in columns.iter_batches(
                overlay_module.INGEST_BATCH_SIZE
            ):
                traces = batch.traces
                src_cities = traces["src_city"].tolist()
                dst_cities = traces["dst_city"].tolist()
                reached = traces["reached"].tolist()
                offsets = batch.hop_offsets.tolist()
                routers = batch.hop_router.tolist()
                for i in range(len(batch)):
                    lo = offsets[i]
                    hi = offsets[i + 1]
                    if not reached[i] or hi - lo < 2:
                        continue
                    self._traces_processed += 1
                    direction = (
                        WEST_TO_EAST
                        if city_lon[src_cities[i]] <= city_lon[dst_cities[i]]
                        else EAST_TO_WEST
                    )
                    previous_city: Optional[str] = None
                    previous_isp: Optional[str] = None
                    for h in range(lo, hi):
                        router = routers[h]
                        isp = router_isp[router]
                        city = router_city[router]
                        if city is None:
                            self._hops_unresolved += 1
                            previous_city, previous_isp = None, isp
                            continue
                        if (
                            previous_city is not None
                            and previous_isp is not None
                            and isp == previous_isp
                            and city != previous_city
                        ):
                            conduits = self._conduit_path(
                                isp, previous_city, city
                            )
                            if conduits:
                                for conduit_id in conduits:
                                    self._count(conduit_id, direction, isp)
                        previous_city, previous_isp = city, isp
            tracer.annotate(
                traces_added=self._traces_processed - before_processed,
                hops_unresolved=self._hops_unresolved - before_unresolved,
                path_cache_entries=len(self._path_cache),
                conduits_with_traffic=len(self._traffic),
            )


class NetworkXConduitPaths:
    """:func:`conduit_paths` over NetworkX conduit graphs:
    the provider's ``simple_conduit_graph(isp)`` when it holds both hop
    cities, else the generic one, each compiled by
    :func:`tests.oracles.graphs.core_from_networkx`."""

    def __init__(self, fiber_map: FiberMap):
        self._map = fiber_map
        self._generic_graph = simple_conduit_graph(fiber_map)
        self._isp_graphs: Dict[str, nx.Graph] = {}
        self._cores: Dict[str, RoutingCore] = {}

    def _core_for(
        self, isp: Optional[str], city_a: str, city_b: str
    ) -> Tuple[RoutingCore, nx.Graph]:
        graph = None
        if isp is not None and isp in self._map.isps():
            graph = self._isp_graphs.get(isp)
            if graph is None:
                graph = simple_conduit_graph(self._map, isp)
                self._isp_graphs[isp] = graph
            if city_a not in graph or city_b not in graph:
                graph = None
        if graph is None:
            graph = self._generic_graph
            core_key = "*"
        else:
            core_key = isp or "*"
        core = self._cores.get(core_key)
        if core is None:
            core = self._cores[core_key] = core_from_networkx(
                graph, weight="length_km"
            )
        return core, graph

    def conduit_path(
        self, isp: Optional[str], city_a: str, city_b: str
    ) -> Optional[Tuple[str, ...]]:
        core, graph = self._core_for(isp, city_a, city_b)
        path = core.path(city_a, city_b)
        if path is None or len(path) < 2:
            return None
        return tuple(
            graph[u][v]["conduit_id"] for u, v in zip(path, path[1:])
        )
