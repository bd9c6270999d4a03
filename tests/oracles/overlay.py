"""The record-object overlay ingest the columnar path replaced."""

from __future__ import annotations

from typing import Optional

from repro.data.cities import city_by_name
from repro.traceroute.geolocate import resolve_hop_city
from repro.traceroute.overlay import (
    EAST_TO_WEST,
    WEST_TO_EAST,
    TrafficOverlay,
)
from repro.traceroute.probe import TracerouteRecord


class ReferenceTrafficOverlay(TrafficOverlay):
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
