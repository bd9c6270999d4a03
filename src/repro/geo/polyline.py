"""Polylines: the geometry of fiber routes and transportation corridors."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.geo.coords import GeoPoint, great_circle_interpolate
from repro.geo.vectorized import (
    haversine_km_batch,
    min_distance_to_segments_km,
    points_to_arrays,
    segment_distance_matrix_km,
)


class Polyline:
    """An ordered sequence of geographic points with geometric queries.

    Used for conduit geometry, road/rail corridor geometry, and
    traceroute-path geometry.  Immutable once constructed.  Leg lengths
    and point-to-route distances run on vectorized numpy kernels; the
    scalar routines in :mod:`repro.geo.coords` remain the reference.
    """

    __slots__ = ("_points", "_cumulative", "_segment_arrays")

    def __init__(self, points: Iterable[GeoPoint]):
        pts: Tuple[GeoPoint, ...] = tuple(points)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two points")
        self._points = pts
        lats, lons = points_to_arrays(pts)
        legs = haversine_km_batch(lats[:-1], lons[:-1], lats[1:], lons[1:])
        cumulative: List[float] = [0.0]
        total = 0.0
        for leg in legs.tolist():
            total += leg
            cumulative.append(total)
        self._cumulative = tuple(cumulative)
        #: Per-segment endpoint arrays, shared by every distance query.
        self._segment_arrays = (lats[:-1], lons[:-1], lats[1:], lons[1:])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def points(self) -> Tuple[GeoPoint, ...]:
        return self._points

    @property
    def start(self) -> GeoPoint:
        return self._points[0]

    @property
    def end(self) -> GeoPoint:
        return self._points[-1]

    @property
    def length_km(self) -> float:
        """Total route length in kilometers."""
        return self._cumulative[-1]

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[GeoPoint]:
        return iter(self._points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polyline) and self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Polyline({len(self._points)} pts, {self.length_km:.1f} km, "
            f"{self.start}..{self.end})"
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def segments(self) -> Iterator[Tuple[GeoPoint, GeoPoint]]:
        """Iterate over consecutive point pairs."""
        return zip(self._points, self._points[1:])

    def reversed(self) -> "Polyline":
        return Polyline(reversed(self._points))

    def point_at_km(self, distance_km: float) -> GeoPoint:
        """The point *distance_km* along the route from its start.

        Values are clamped to the route extent.
        """
        if distance_km <= 0.0:
            return self.start
        if distance_km >= self.length_km:
            return self.end
        # Binary search over the cumulative distance table.
        lo, hi = 0, len(self._cumulative) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._cumulative[mid] <= distance_km:
                lo = mid
            else:
                hi = mid
        seg_start = self._cumulative[lo]
        seg_len = self._cumulative[hi] - seg_start
        if seg_len < 1e-12:
            return self._points[lo]
        fraction = (distance_km - seg_start) / seg_len
        return great_circle_interpolate(self._points[lo], self._points[hi], fraction)

    def resample(self, spacing_km: float) -> List[GeoPoint]:
        """Sample points along the route every *spacing_km* (endpoints included)."""
        if spacing_km <= 0:
            raise ValueError(f"spacing must be positive: {spacing_km}")
        samples = [self.start]
        d = spacing_km
        while d < self.length_km:
            samples.append(self.point_at_km(d))
            d += spacing_km
        samples.append(self.end)
        return samples

    def distance_to_point_km(self, point: GeoPoint) -> float:
        """Minimum distance from *point* to any segment of the polyline."""
        return min_distance_to_segments_km(point, *self._segment_arrays)

    def distances_to_points_km(self, points: Sequence[GeoPoint]) -> np.ndarray:
        """Minimum distance from each of *points* to the polyline, in one
        kernel call; element *i* equals ``distance_to_point_km(points[i])``
        bit for bit."""
        lats, lons = points_to_arrays(points)
        return segment_distance_matrix_km(
            lats, lons, *self._segment_arrays
        ).min(axis=1)
