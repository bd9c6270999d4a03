"""Vectorized geometry kernels (numpy).

The scalar routines in :mod:`repro.geo.coords` are the reference
implementation; these batch versions compute the same quantities over
arrays and back the hot loops of the buffer-overlap analysis.  Every
function is tested against its scalar counterpart.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint

Array = np.ndarray


def points_to_arrays(points: Sequence[GeoPoint]) -> Tuple[Array, Array]:
    """Split a point sequence into (lat, lon) arrays in degrees."""
    lats = np.fromiter((p.lat for p in points), dtype=float, count=len(points))
    lons = np.fromiter((p.lon for p in points), dtype=float, count=len(points))
    return lats, lons


def haversine_km_batch(
    lat1: Array, lon1: Array, lat2: Array, lon2: Array
) -> Array:
    """Pairwise (broadcast) great-circle distances in kilometers."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    h = (
        np.sin(dphi / 2.0) ** 2
        + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    )
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def segment_distances_km(
    point: GeoPoint,
    seg_lat_a: Array,
    seg_lon_a: Array,
    seg_lat_b: Array,
    seg_lon_b: Array,
) -> Array:
    """Distances from one point to many segments (projected plane).

    Vector version of
    :func:`repro.geo.projection.point_segment_distance_km`: all segments
    are projected into the local tangent plane of *point* and the
    clamped point-to-segment distance is evaluated in one shot.
    """
    return _plane_distances_km(
        point.lat, point.lon, np.cos(np.radians(point.lat)),
        seg_lat_a, seg_lon_a, seg_lat_b, seg_lon_b,
    )


def segment_distance_matrix_km(
    lats: Array,
    lons: Array,
    seg_lat_a: Array,
    seg_lon_a: Array,
    seg_lat_b: Array,
    seg_lon_b: Array,
) -> Array:
    """Distances from many points to many segments, as a ``(points,
    segments)`` matrix whose row *i* equals :func:`segment_distances_km`
    of point *i* bit for bit: each point's cosine comes from the same
    scalar ``np.cos`` call (an array ``np.cos`` may differ in the last
    place, and buffer membership is decided at exact equality)."""
    cos_ref = np.array([np.cos(np.radians(lat)) for lat in lats.tolist()])
    return _plane_distances_km(
        lats[:, None], lons[:, None], cos_ref[:, None],
        seg_lat_a, seg_lon_a, seg_lat_b, seg_lon_b,
    )


def _plane_distances_km(lat, lon, cos_ref, seg_lat_a, seg_lon_a, seg_lat_b,
                        seg_lon_b) -> Array:
    """The clamped distances in the tangent plane at (*lat*, *lon*), whose
    cosine is *cos_ref*; point and segment arguments broadcast."""
    km_per_deg = np.pi * EARTH_RADIUS_KM / 180.0
    ax = (seg_lon_a - lon) * km_per_deg * cos_ref
    ay = (seg_lat_a - lat) * km_per_deg
    bx = (seg_lon_b - lon) * km_per_deg * cos_ref
    by = (seg_lat_b - lat) * km_per_deg
    dx = bx - ax
    dy = by - ay
    seg_len_sq = dx * dx + dy * dy
    # Degenerate segments fall back to endpoint distance.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(
            seg_len_sq > 1e-12,
            -(ax * dx + ay * dy) / seg_len_sq,
            0.0,
        )
    t = np.clip(t, 0.0, 1.0)
    cx = ax + t * dx
    cy = ay + t * dy
    return np.sqrt(cx * cx + cy * cy)


def min_distance_to_segments_km(
    point: GeoPoint,
    seg_lat_a: Array,
    seg_lon_a: Array,
    seg_lat_b: Array,
    seg_lon_b: Array,
) -> float:
    """Minimum distance from one point to many segments (projected plane)."""
    if seg_lat_a.size == 0:
        return float("inf")
    return float(
        np.min(
            segment_distances_km(
                point, seg_lat_a, seg_lon_a, seg_lat_b, seg_lon_b
            )
        )
    )
