"""Overlaying layer-3 traceroute paths onto the physical conduit map.

This is the §4.3 analysis: "By using geolocation information and naming
hints in the traceroute data, we are able to overlay individual layer 3
links onto our underlying physical map of Internet infrastructure."  The
overlay works entirely from observables — hop DNS names, IPs, and the
constructed (not ground-truth) map — so geolocation noise, MPLS gaps,
and unknown providers affect it the same way they affected the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.obs.tracer import get_tracer
from repro.perf.routing import RoutingCore
from repro.perf.substrate import substrate_for
from repro.traceroute.columns import ColumnSchema, TraceColumns
from repro.traceroute.geolocate import GeolocationDatabase, resolve_hop_city
from repro.traceroute.topology import InternetTopology, _slug

#: Direction labels for the Table 2 / Table 3 split.
WEST_TO_EAST = "west_to_east"
EAST_TO_WEST = "east_to_west"

#: Traces per :meth:`TrafficOverlay.add_traces` streaming window.
INGEST_BATCH_SIZE = 8192


@dataclass
class ConduitTraffic:
    """Accumulated probe traffic over one conduit."""

    conduit_id: str
    endpoints: Tuple[str, str]
    total: int = 0
    west_to_east: int = 0
    east_to_west: int = 0
    observed_isps: Set[str] = field(default_factory=set)

    def add(self, isp: str, west_to_east: int, east_to_west: int) -> None:
        """Credit probes one provider sent over this conduit."""
        self.total += west_to_east + east_to_west
        self.west_to_east += west_to_east
        self.east_to_west += east_to_west
        self.observed_isps.add(isp)


def _codes(values: List[Optional[str]], names: List[str]) -> np.ndarray:
    """*values* as int positions in sorted *names*, −1 for ``None``."""
    position = {name: i for i, name in enumerate(names)}
    return np.array(
        [-1 if v is None else position[v] for v in values], dtype=np.int64
    )


class TrafficOverlay:
    """Maps traceroute hop pairs onto conduits of a constructed map."""

    def __init__(
        self,
        fiber_map: FiberMap,
        topology: InternetTopology,
        database: GeolocationDatabase,
    ):
        self._map = fiber_map
        self._topology = topology
        self._database = database
        self._slug_to_isp: Dict[str, str] = {
            _slug(name): name for name in topology.providers()
        }
        self._traffic: Dict[str, ConduitTraffic] = {}
        #: One routing core per conduit view of the map's substrate
        #: ("*" = generic).
        self._cores: Dict[str, RoutingCore] = {}
        self._path_cache: Dict[Tuple[str, str, str], Optional[Tuple[str, ...]]] = {}
        self._traces_processed = 0
        self._hops_unresolved = 0
        #: Per-schema resolution tables for the columnar ingest path
        #: (hop interpretation is deterministic per router, so it is
        #: done once per router instead of once per hop).
        self._schema_tables: Optional[
            Tuple[ColumnSchema, List[Optional[str]], List[Optional[str]],
                  List[float]]
        ] = None

    # ------------------------------------------------------------------
    # Hop interpretation
    # ------------------------------------------------------------------
    def _isp_from_name(self, dns_name: str) -> Optional[str]:
        parts = dns_name.split(".")
        if len(parts) < 2:
            return None
        return self._slug_to_isp.get(parts[-2])

    def _core_for(
        self, isp: Optional[str], city_a: str, city_b: str
    ) -> RoutingCore:
        """The routing core a path between two hop cities runs on: the
        ISP's footprint in the constructed map (collapsed to the
        least-shared conduit per pair) when it holds both cities, else
        the generic conduit view."""
        if isp is not None and isp in self._map.isps():
            core = self._cores.get(isp)
            if core is None:
                view = substrate_for(self._map).tenant_view(isp)
                core = self._cores[isp] = RoutingCore(view, "length_km")
            if core.present(city_a) and core.present(city_b):
                return core
        core = self._cores.get("*")
        if core is None:
            view = substrate_for(self._map).conduit_view()
            core = self._cores["*"] = RoutingCore(view, "length_km")
        return core

    def _conduit_path(
        self, isp: Optional[str], city_a: str, city_b: str
    ) -> Optional[Tuple[str, ...]]:
        """Conduit ids between two hop cities (see :meth:`_core_for`)."""
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

    def _prepare_paths(self, segments: List[Tuple[str, str, str]]) -> None:
        """Solve every uncached segment's destination row up front: one
        batched :meth:`RoutingCore.prepare` per conduit graph instead of
        one Dijkstra per destination."""
        wanted: Dict[int, Tuple[RoutingCore, List[str]]] = {}
        for isp, city_a, city_b in segments:
            if (isp, city_a, city_b) in self._path_cache:
                continue
            core = self._core_for(isp, city_a, city_b)
            wanted.setdefault(id(core), (core, []))[1].append(city_b)
        for core, destinations in wanted.values():
            core.prepare(destinations)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _tables_for(
        self, schema: ColumnSchema
    ) -> Tuple[List[Optional[str]], List[Optional[str]], List[float]]:
        """Per-router ISP/city resolution plus per-city longitudes.

        ``_isp_from_name`` and ``resolve_hop_city`` are pure functions
        of one router's published DNS name and IP, so a campaign of
        millions of hops needs them evaluated only once per router in
        the schema.
        """
        cached = self._schema_tables
        if cached is not None and cached[0] is schema:
            return cached[1], cached[2], cached[3]
        router_isp = [
            self._isp_from_name(dns) for dns in schema.router_dns
        ]
        router_city = [
            resolve_hop_city(dns, ip, self._database)
            for dns, ip in zip(schema.router_dns, schema.router_ips)
        ]
        city_lon = [city_by_name(c).lon for c in schema.cities]
        self._schema_tables = (schema, router_isp, router_city, city_lon)
        return router_isp, router_city, city_lon

    def add_traces(self, columns: TraceColumns) -> None:
        """Overlay a columnar campaign (one ``overlay.add_traces`` span).

        Streams :meth:`TraceColumns.iter_batches` windows of
        :data:`INGEST_BATCH_SIZE` traces, so memory stays bounded by one
        batch regardless of campaign size.  Each window is whole-array
        work: hop provider and city are gathered from per-router code
        tables, a mask finds the segments (consecutive hops of one
        provider in two different resolved cities), and the segments
        are tallied per ``(isp, city_a, city_b)`` key and direction.
        After the last window each distinct key's conduit path is
        resolved once and its tallies credited to the path's conduits,
        keys in first-occurrence order, so conduits enter
        :meth:`traffic` in the order a hop-by-hop walk meets them.
        """
        tracer = get_tracer()
        before_processed = self._traces_processed
        before_unresolved = self._hops_unresolved
        router_isp, router_city, city_lon = self._tables_for(columns.schema)
        isp_names = sorted({isp for isp in router_isp if isp is not None})
        city_names = sorted({c for c in router_city if c is not None})
        isp_code = _codes(router_isp, isp_names)
        city_code = _codes(router_city, city_names)
        lon = np.asarray(city_lon, dtype=np.float64)
        n_cities = len(city_names)
        # Segment key -> [west_to_east, east_to_west], in first-seen order.
        tallies: Dict[int, List[int]] = {}
        with tracer.span("overlay.add_traces"):
            for batch in columns.iter_batches(INGEST_BATCH_SIZE):
                traces = batch.traces
                lengths = np.diff(batch.hop_offsets)
                counted = traces["reached"] & (lengths >= 2)
                self._traces_processed += int(np.count_nonzero(counted))
                hop_trace = np.repeat(np.arange(len(batch)), lengths)
                hop_counted = counted[hop_trace]
                isp = isp_code[batch.hop_router]
                city = city_code[batch.hop_router]
                self._hops_unresolved += int(
                    np.count_nonzero(hop_counted & (city < 0))
                )
                # Hop h ends a segment when h-1 is in the same counted
                # trace, both cities resolve and differ, and both hops
                # name the same provider.
                ends = 1 + np.flatnonzero(
                    hop_counted[1:]
                    & (hop_trace[1:] == hop_trace[:-1])
                    & (city[1:] >= 0)
                    & (city[:-1] >= 0)
                    & (city[1:] != city[:-1])
                    & (isp[:-1] >= 0)
                    & (isp[1:] == isp[:-1])
                )
                if not len(ends):
                    continue
                keys = (
                    isp[ends] * n_cities + city[ends - 1]
                ) * n_cities + city[ends]
                east_to_west = (
                    lon[traces["src_city"]] > lon[traces["dst_city"]]
                )
                direction = east_to_west[hop_trace[ends]]
                distinct, first, inverse = np.unique(
                    keys, return_index=True, return_inverse=True
                )
                counts = np.bincount(
                    inverse * 2 + direction,
                    minlength=2 * len(distinct),
                ).reshape(-1, 2)
                order = np.argsort(first)
                for key, (w2e, e2w) in zip(
                    distinct[order].tolist(), counts[order].tolist()
                ):
                    tally = tallies.get(key)
                    if tally is None:
                        tallies[key] = [w2e, e2w]
                    else:
                        tally[0] += w2e
                        tally[1] += e2w
            segments = [
                (
                    isp_names[key // (n_cities * n_cities)],
                    city_names[key // n_cities % n_cities],
                    city_names[key % n_cities],
                )
                for key in tallies
            ]
            self._prepare_paths(segments)
            for (isp_name, city_a, city_b), (w2e, e2w) in zip(
                segments, tallies.values()
            ):
                for conduit_id in self._conduit_path(
                    isp_name, city_a, city_b
                ) or ():
                    traffic = self._traffic.get(conduit_id)
                    if traffic is None:
                        traffic = self._traffic[conduit_id] = ConduitTraffic(
                            conduit_id=conduit_id,
                            endpoints=self._map.conduit(conduit_id).edge,
                        )
                    traffic.add(isp_name, w2e, e2w)
            tracer.annotate(
                traces_added=self._traces_processed - before_processed,
                hops_unresolved=self._hops_unresolved - before_unresolved,
                path_cache_entries=len(self._path_cache),
                conduits_with_traffic=len(self._traffic),
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def traces_processed(self) -> int:
        return self._traces_processed

    @property
    def hops_unresolved(self) -> int:
        return self._hops_unresolved

    def traffic(self) -> Dict[str, ConduitTraffic]:
        return dict(self._traffic)

    def top_conduits(
        self, direction: str, top: int = 20
    ) -> List[Tuple[Tuple[str, str], int]]:
        """Tables 2 / 3: most probed conduits in one direction."""
        if direction not in (WEST_TO_EAST, EAST_TO_WEST):
            raise ValueError(f"unknown direction: {direction}")
        rows = [
            (
                t.endpoints,
                t.west_to_east if direction == WEST_TO_EAST else t.east_to_west,
            )
            for t in self._traffic.values()
        ]
        rows = [r for r in rows if r[1] > 0]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:top]

    def isp_conduit_usage(self) -> List[Tuple[str, int]]:
        """Table 4: providers ranked by conduits observed carrying their
        probe traffic."""
        usage: Dict[str, Set[str]] = {}
        for conduit_id, traffic in self._traffic.items():
            for isp in traffic.observed_isps:
                usage.setdefault(isp, set()).add(conduit_id)
        rows = [(isp, len(conduits)) for isp, conduits in usage.items()]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows

    def effective_tenants(self, conduit_id: str) -> FrozenSet[str]:
        """Constructed-map tenants plus providers observed via traceroute."""
        tenants = set(self._map.conduit(conduit_id).tenants)
        traffic = self._traffic.get(conduit_id)
        if traffic is not None:
            tenants |= traffic.observed_isps
        return frozenset(tenants)

    def inferred_additional_isps(self, conduit_id: str) -> FrozenSet[str]:
        """Providers seen on a conduit that the map did not list as tenants."""
        traffic = self._traffic.get(conduit_id)
        if traffic is None:
            return frozenset()
        return frozenset(
            traffic.observed_isps - self._map.conduit(conduit_id).tenants
        )

    def sharing_cdf_with_traffic(self) -> List[Tuple[int, float]]:
        """Figure 9, dashed line: CDF of effective tenant counts."""
        counts = sorted(
            len(self.effective_tenants(cid)) for cid in self._map.conduits
        )
        total = max(1, len(counts))
        maximum = counts[-1] if counts else 0
        return [
            (k, sum(1 for c in counts if c <= k) / total)
            for k in range(0, maximum + 1)
        ]
