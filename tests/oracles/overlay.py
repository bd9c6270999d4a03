"""The two overlay ingests the vectorized columnar pass replaced.

:class:`ReferenceTrafficOverlay` interprets record objects one hop at a
time; :class:`LoopTrafficOverlay` is the per-hop loop over columnar
batches that preceded the whole-array pass.  Both credit conduits one
segment at a time through :meth:`_count`, so their ``traffic()`` order
is the order a hop-by-hop walk meets each conduit.
"""

from __future__ import annotations

from typing import Optional

from repro.data.cities import city_by_name
from repro.obs.tracer import get_tracer
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
    """:class:`TrafficOverlay` plus the one-segment conduit credit."""

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
