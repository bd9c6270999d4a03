"""Local equirectangular projection.

For distances at conduit scale (tens to a few hundred kilometers) a local
equirectangular projection around a reference latitude is accurate to well
under one percent, and it turns point-to-segment distance into plain 2-D
geometry.  This is how we replace ArcGIS's planar overlay operations.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint

XY = Tuple[float, float]


class LocalProjection:
    """Projects lat/lon into a local tangent x/y plane (kilometers).

    ``x`` grows eastward, ``y`` northward.  The projection is centered on
    a reference point so that distortion stays small over the region of
    interest.
    """

    def __init__(self, reference: GeoPoint):
        self.reference = reference
        self._cos_ref = math.cos(math.radians(reference.lat))
        self._km_per_deg = math.pi * EARTH_RADIUS_KM / 180.0

    def to_xy(self, point: GeoPoint) -> XY:
        """Project *point* to local (x, y) kilometers."""
        dx = (point.lon - self.reference.lon) * self._km_per_deg * self._cos_ref
        dy = (point.lat - self.reference.lat) * self._km_per_deg
        return (dx, dy)


def point_segment_distance_km(
    point: GeoPoint, seg_a: GeoPoint, seg_b: GeoPoint
) -> float:
    """Distance from *point* to the segment ``seg_a -> seg_b`` in km.

    Computed in a local projection centered on the query point, which is
    accurate for the corridor-scale distances this library deals with.
    """
    proj = LocalProjection(point)
    ax, ay = proj.to_xy(seg_a)
    bx, by = proj.to_xy(seg_b)
    # Query point is the projection origin.
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq < 1e-12:
        return math.hypot(ax, ay)
    # Parameter of the closest point on the infinite line, clamped to [0,1].
    t = -(ax * dx + ay * dy) / seg_len_sq
    t = min(1.0, max(0.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(cx, cy)
