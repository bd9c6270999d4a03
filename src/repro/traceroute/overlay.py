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
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.obs.tracer import get_tracer
from repro.perf.routing import RoutingCore
from repro.perf.substrate import _NO_PREDECESSOR, substrate_for, walk_many
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

    def add(
        self, isps: Iterable[str], west_to_east: int, east_to_west: int
    ) -> None:
        """Credit probes the providers *isps* sent over this conduit."""
        self.total += west_to_east + east_to_west
        self.west_to_east += west_to_east
        self.east_to_west += east_to_west
        self.observed_isps.update(isps)


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
        #: Per resolved ``(isp, city_a, city_b)`` segment: its conduit
        #: ids (``None`` without a path) and its conduit rows in the
        #: map's substrate (empty without a path).
        self._path_cache: Dict[Tuple[str, str, str], Optional[Tuple[str, ...]]] = {}
        self._path_rows: Dict[Tuple[str, str, str], np.ndarray] = {}
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

    def _isp_core(self, isp: Optional[str]) -> Optional[RoutingCore]:
        """The routing core of the ISP's footprint in the constructed
        map (collapsed to the least-shared conduit per pair), or
        ``None`` for a provider the map does not hold."""
        if isp is None or isp not in self._map.isps():
            return None
        core = self._cores.get(isp)
        if core is None:
            view = substrate_for(self._map).tenant_view(isp)
            core = self._cores[isp] = RoutingCore(view, "length_km")
        return core

    def _generic_core(self) -> RoutingCore:
        """The routing core of the map's generic conduit view."""
        core = self._cores.get("*")
        if core is None:
            view = substrate_for(self._map).conduit_view()
            core = self._cores["*"] = RoutingCore(view, "length_km")
        return core

    def _resolve(self, segments: Sequence[Tuple[str, str, str]]) -> None:
        """Resolve every segment this overlay has not resolved yet.

        A path runs on the ISP's core when it holds both cities, else
        on the generic conduit view.  The new segments are resolved
        together: one :meth:`_walk`, and so at most one batched Dijkstra,
        per conduit graph.
        """
        todo = [s for s in dict.fromkeys(segments) if s not in self._path_rows]
        if not todo:
            return
        generic: List[Tuple[str, str, str]] = []
        by_isp: Dict[str, List[Tuple[str, str, str]]] = {}
        for segment in todo:
            by_isp.setdefault(segment[0], []).append(segment)
        groups = []
        for isp, members in by_isp.items():
            core = self._isp_core(isp)
            if core is None:
                generic += members
                continue
            held = core.present_many(
                [a for _, a, _ in members]
            ) & core.present_many([b for _, _, b in members])
            groups.append((core, [m for m, ok in zip(members, held) if ok]))
            generic += [m for m, ok in zip(members, held) if not ok]
        groups.append((self._generic_core(), generic))
        for core, members in groups:
            if members:
                self._walk(core, members)

    def _walk(
        self, core: RoutingCore, segments: List[Tuple[str, str, str]]
    ) -> None:
        """Resolve *segments* on one core: one batched
        :meth:`RoutingCore.prepare` over their destinations, then every
        predecessor chain walked simultaneously (the path ``a -> b`` is
        ``a, pred[a], ...`` in the tree rooted at ``b``).  Stores each
        segment's conduit rows and conduit ids."""
        rows_of, ids_of = self._path_rows, self._path_cache
        no_path = np.zeros(0, dtype=np.int64)
        for segment in segments:
            rows_of[segment] = no_path
            ids_of[segment] = None
        index = core.index
        src = np.array([index.get(a, -1) for _, a, _ in segments],
                       dtype=np.int64)
        dst = np.array([index.get(b, -1) for _, _, b in segments],
                       dtype=np.int64)
        known = np.flatnonzero((src >= 0) & (dst >= 0) & (src != dst))
        if not known.size:
            return
        roots = np.unique(dst[known])
        nodes = core.nodes
        core.prepare([nodes[d] for d in roots.tolist()])
        pred = np.stack(
            [core.predecessors(nodes[d]) for d in roots.tolist()]
        )
        row = np.searchsorted(roots, dst[known])
        reach = pred[row, src[known]] != _NO_PREDECESSOR
        known, row = known[reach], row[reach]
        if not known.size:
            return
        paths = walk_many(pred, row, src[known], dst[known])
        step = paths[:, 1:] != paths[:, :-1]
        u = paths[:, :-1][step]
        v = paths[:, 1:][step]
        n = core.num_nodes
        edge_key = core.eu.astype(np.int64) * n + core.ev
        order = np.argsort(edge_key)
        wanted = np.minimum(u, v) * n + np.maximum(u, v)
        at = order[np.searchsorted(edge_key[order], wanted)]
        if not np.array_equal(edge_key[at], wanted):
            raise RuntimeError("path step without a graph edge")
        conduit_rows = core.payload["conduit"][at].astype(np.int64)
        cids = substrate_for(self._map).cids
        names = [cids[r] for r in conduit_rows.tolist()]
        ends = np.cumsum(step.sum(axis=1)).tolist()
        for i, lo, hi in zip(known.tolist(), [0] + ends[:-1], ends):
            segment = segments[i]
            rows_of[segment] = conduit_rows[lo:hi]
            ids_of[segment] = tuple(names[lo:hi])

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
        provider in two different resolved cities), and ``np.unique``
        tallies them per ``(isp, city_a, city_b)`` key and direction.
        After the last window one array merge sums every window's
        tallies per key and orders the keys by their first hop; the new
        keys' conduit paths are resolved together
        (:meth:`_resolve`), and the tallies are credited to the
        conduits with ``bincount``, so conduits enter :meth:`traffic`
        in the order a hop-by-hop walk meets them.
        """
        tracer = get_tracer()
        before_processed = self._traces_processed
        before_unresolved = self._hops_unresolved
        before_paths = len(self._path_rows)
        router_isp, router_city, city_lon = self._tables_for(columns.schema)
        isp_names = sorted({isp for isp in router_isp if isp is not None})
        city_names = sorted({c for c in router_city if c is not None})
        isp_code = _codes(router_isp, isp_names)
        city_code = _codes(router_city, city_names)
        lon = np.asarray(city_lon, dtype=np.float64)
        n_cities = len(city_names)
        # Per window: its distinct keys, their first global hop position
        # and their [west_to_east, east_to_west] tallies.
        keys_seen: List[np.ndarray] = []
        firsts: List[np.ndarray] = []
        tallies: List[np.ndarray] = []
        hop_base = 0
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
                if len(ends):
                    keys = (
                        isp[ends] * n_cities + city[ends - 1]
                    ) * n_cities + city[ends]
                    east_to_west = (
                        lon[traces["src_city"]] > lon[traces["dst_city"]]
                    )
                    direction = east_to_west[hop_trace[ends]]
                    distinct, inverse = np.unique(keys, return_inverse=True)
                    first = np.full(
                        len(distinct), hop_base + len(batch.hop_router)
                    )
                    np.minimum.at(first, inverse, hop_base + ends)
                    keys_seen.append(distinct)
                    firsts.append(first)
                    tallies.append(np.bincount(
                        inverse * 2 + direction,
                        minlength=2 * len(distinct),
                    ).reshape(-1, 2))
                hop_base += len(batch.hop_router)
            if keys_seen:
                keys, inverse = np.unique(
                    np.concatenate(keys_seen), return_inverse=True
                )
                first = np.full(len(keys), hop_base, dtype=np.int64)
                np.minimum.at(first, inverse, np.concatenate(firsts))
                tally = np.zeros((len(keys), 2), dtype=np.int64)
                np.add.at(tally, inverse, np.concatenate(tallies))
                order = np.argsort(first)
                self._credit(
                    [
                        (
                            isp_names[key // (n_cities * n_cities)],
                            city_names[key // n_cities % n_cities],
                            city_names[key % n_cities],
                        )
                        for key in keys[order].tolist()
                    ],
                    tally[order],
                )
            tracer.annotate(
                traces_added=self._traces_processed - before_processed,
                hops_unresolved=self._hops_unresolved - before_unresolved,
                segments_resolved=len(self._path_rows) - before_paths,
                path_cache_entries=len(self._path_cache),
                conduits_with_traffic=len(self._traffic),
            )

    def _credit(
        self, segments: List[Tuple[str, str, str]], tally: np.ndarray
    ) -> None:
        """Credit each segment's ``[west_to_east, east_to_west]`` tally
        to every conduit of its path; conduits new to the overlay enter
        it in the order the segments (in order) meet them."""
        self._resolve(segments)
        paths = [self._path_rows[s] for s in segments]
        flat = np.concatenate(paths)
        if not flat.size:
            return
        segment = np.repeat(np.arange(len(paths)), [len(p) for p in paths])
        rows, first, code = np.unique(
            flat, return_index=True, return_inverse=True
        )
        sums = [
            np.bincount(
                code, weights=tally[segment, side], minlength=len(rows)
            ).astype(np.int64).tolist()
            for side in (0, 1)
        ]
        # Each (conduit, provider) pair once, in first-seen order.
        isp_names = sorted({isp for isp, _, _ in segments})
        isp_code = _codes([isp for isp, _, _ in segments], isp_names)
        pair = code * len(isp_names) + isp_code[segment]
        _, seen = np.unique(pair, return_index=True)
        isps: List[List[str]] = [[] for _ in rows]
        for p in pair[np.sort(seen)].tolist():
            isps[p // len(isp_names)].append(isp_names[p % len(isp_names)])
        cids = substrate_for(self._map).cids
        for c in np.argsort(first).tolist():
            conduit_id = cids[rows[c]]
            traffic = self._traffic.get(conduit_id)
            if traffic is None:
                traffic = self._traffic[conduit_id] = ConduitTraffic(
                    conduit_id=conduit_id,
                    endpoints=self._map.conduit(conduit_id).edge,
                )
            traffic.add(isps[c], sums[0][c], sums[1][c])

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
