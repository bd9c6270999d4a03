"""Geographic coordinates and great-circle geometry.

All distances are in kilometers, all angles in degrees unless stated
otherwise.  The paper computes actual route lengths from the detailed
geography of long-haul routes (§7) and converts distance to one-way
propagation delay using the speed of light in fiber (refractive index
~1.468, see reference [32] of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Mean Earth radius used for all great-circle computations.
EARTH_RADIUS_KM = 6371.0088

#: Speed of light in vacuum, km per millisecond.
LIGHT_SPEED_KM_PER_MS = 299.792458

#: Group refractive index of standard single-mode fiber (paper ref. [32]).
FIBER_REFRACTIVE_INDEX = 1.468

#: Kilometers of fiber traversed per millisecond of one-way delay.
FIBER_KM_PER_MS = LIGHT_SPEED_KM_PER_MS / FIBER_REFRACTIVE_INDEX


@dataclass(frozen=True, order=True)
class GeoPoint:
    """A point on the Earth's surface (WGS-84 latitude / longitude).

    Instances are immutable and hashable so they can be used as graph
    node keys and set members.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to *other* in kilometers."""
        return haversine_km(self, other)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.lat:.4f}, {self.lon:.4f})"


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points (haversine formula)."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    sin_dphi = math.sin(dphi / 2.0)
    sin_dlam = math.sin(dlam / 2.0)
    h = sin_dphi * sin_dphi + math.cos(phi1) * math.cos(phi2) * sin_dlam * sin_dlam
    # Clamp against floating point drift before the asin.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def bearing_deg(a: GeoPoint, b: GeoPoint) -> float:
    """Initial bearing from *a* to *b*, degrees clockwise from north in [0, 360)."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    theta = math.degrees(math.atan2(y, x))
    result = theta % 360.0
    # Float modulo of a tiny negative angle can yield exactly 360.0.
    return 0.0 if result >= 360.0 else result


def destination_point(origin: GeoPoint, bearing: float, distance_km: float) -> GeoPoint:
    """Point reached by travelling *distance_km* from *origin* on *bearing*."""
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing)
    phi1 = math.radians(origin.lat)
    lam1 = math.radians(origin.lon)
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * sin_phi2
    lam2 = lam1 + math.atan2(y, x)
    lon = math.degrees(lam2)
    # Normalize longitude into [-180, 180].
    lon = (lon + 540.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(phi2), lon)


def great_circle_interpolate(a: GeoPoint, b: GeoPoint, fraction: float) -> GeoPoint:
    """Point a given *fraction* of the way along the great circle from a to b.

    ``fraction`` = 0 yields *a*, 1 yields *b*.  Uses spherical linear
    interpolation, falling back to *a* for coincident points.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1]: {fraction}")
    if fraction == 0.0:
        return a
    if fraction == 1.0:
        return b
    phi1, lam1 = math.radians(a.lat), math.radians(a.lon)
    phi2, lam2 = math.radians(b.lat), math.radians(b.lon)
    delta = haversine_km(a, b) / EARTH_RADIUS_KM
    if delta < 1e-12:
        return a
    sin_delta = math.sin(delta)
    w1 = math.sin((1.0 - fraction) * delta) / sin_delta
    w2 = math.sin(fraction * delta) / sin_delta
    x = w1 * math.cos(phi1) * math.cos(lam1) + w2 * math.cos(phi2) * math.cos(lam2)
    y = w1 * math.cos(phi1) * math.sin(lam1) + w2 * math.cos(phi2) * math.sin(lam2)
    z = w1 * math.sin(phi1) + w2 * math.sin(phi2)
    phi = math.atan2(z, math.sqrt(x * x + y * y))
    lam = math.atan2(y, x)
    return GeoPoint(math.degrees(phi), math.degrees(lam))


def midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Great-circle midpoint of *a* and *b*."""
    return great_circle_interpolate(a, b, 0.5)


def fiber_delay_ms(distance_km: float) -> float:
    """One-way propagation delay over *distance_km* of fiber, milliseconds."""
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative: {distance_km}")
    return distance_km / FIBER_KM_PER_MS
