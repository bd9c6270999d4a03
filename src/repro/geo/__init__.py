"""Geospatial substrate: great-circle math, polylines, spatial indexing.

This subpackage replaces the geographic machinery the paper obtained from
ArcGIS [30]: distance computation along fiber routes, point-to-corridor
distances, and buffer ("polygon overlap") analysis between fiber paths and
transportation infrastructure.
"""

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    FIBER_KM_PER_MS,
    LIGHT_SPEED_KM_PER_MS,
    GeoPoint,
    bearing_deg,
    destination_point,
    fiber_delay_ms,
    great_circle_interpolate,
    haversine_km,
    midpoint,
)
from repro.geo.overlap import CorridorIndex, overlap_profile
from repro.geo.polyline import Polyline
from repro.geo.projection import LocalProjection

__all__ = [
    "EARTH_RADIUS_KM",
    "FIBER_KM_PER_MS",
    "LIGHT_SPEED_KM_PER_MS",
    "GeoPoint",
    "bearing_deg",
    "destination_point",
    "fiber_delay_ms",
    "great_circle_interpolate",
    "haversine_km",
    "midpoint",
    "Polyline",
    "LocalProjection",
    "CorridorIndex",
    "overlap_profile",
]
