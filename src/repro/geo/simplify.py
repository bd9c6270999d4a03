"""Polyline simplification (Douglas-Peucker).

Conduit geometry is densified to ~20 km points for overlap analysis;
exports (GeoJSON, rendering) rarely need that resolution.  The classic
Douglas-Peucker algorithm reduces point counts while bounding the
maximum deviation from the original route.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.geo.projection import point_segment_distance_km


def _douglas_peucker(
    points: Sequence[GeoPoint], tolerance_km: float
) -> List[GeoPoint]:
    if len(points) <= 2:
        return list(points)
    first = points[0]
    last = points[-1]
    worst_index = 0
    worst_distance = -1.0
    for i in range(1, len(points) - 1):
        distance = point_segment_distance_km(points[i], first, last)
        if distance > worst_distance:
            worst_distance = distance
            worst_index = i
    if worst_distance <= tolerance_km:
        return [first, last]
    left = _douglas_peucker(points[: worst_index + 1], tolerance_km)
    right = _douglas_peucker(points[worst_index:], tolerance_km)
    return left[:-1] + right


def simplify_polyline(line: Polyline, tolerance_km: float = 2.0) -> Polyline:
    """Simplified copy of *line*; no point deviates more than the tolerance.

    Endpoints are always preserved, so simplified conduit geometry still
    terminates exactly at its cities.
    """
    if tolerance_km <= 0:
        raise ValueError(f"tolerance must be positive: {tolerance_km}")
    reduced = _douglas_peucker(line.points, tolerance_km)
    if len(reduced) < 2:  # pragma: no cover - DP always keeps endpoints
        reduced = [line.start, line.end]
    return Polyline(reduced)
