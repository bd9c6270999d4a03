"""Buffer-overlap analysis between fiber routes and transport corridors.

The paper uses "the polygon overlap analysis capability in ArcGIS [30] to
quantify the correspondence between physical links and transportation
infrastructure" (§3).  We reproduce the same measurement: sample each fiber
route densely and compute the fraction of samples lying within a buffer of
the corridor geometry of each infrastructure kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.geo.vectorized import points_to_arrays, segment_distance_matrix_km

#: Default buffer: the paper does not publish its exact buffer width; conduits
#: laid "along" a highway ROW sit within a few hundred meters of it, but our
#: synthetic corridor geometry is city-waypoint scale, so a wider buffer that
#: captures "same corridor" is appropriate.
DEFAULT_BUFFER_KM = 15.0

#: Sampling density along fiber routes.
DEFAULT_SAMPLE_SPACING_KM = 10.0

#: Route samples evaluated per distance matrix.  Bounds the matrix of a
#: long route (an 8,000 km submarine cable has 800 samples at 10 km) to
#: the candidates near one stretch of it.
_SAMPLE_BLOCK = 64


def _lon_ring(row: int, radius_km: float, cell_deg: float) -> int:
    """Longitude cells to search either side of a point in grid *row*:
    a degree spans ``111 km * cos(lat)`` at the row's latitude farthest
    from the equator (so the ring grows monotonically away from it),
    plus one cell."""
    lat = min(90.0, max(abs(row), abs(row + 1)) * cell_deg)
    span_km = 111.0 * cell_deg * math.cos(math.radians(lat))
    return int(math.ceil(radius_km / span_km)) + 1


class CorridorIndex:
    """Spatial index over corridor geometry, one tag per infrastructure kind.

    Kinds are free-form strings, e.g. ``"road"``, ``"rail"``, ``"pipeline"``.
    A segment covers the ``cell_deg`` lat/lon cells of its endpoints'
    bounding box.  Segments are compiled into arrays on first query; a
    route's samples are answered in blocks, each one samples × candidates
    distance matrix over the segments covering the block's cell rings.
    """

    def __init__(self, cell_deg: float = 0.5):
        if cell_deg <= 0:
            raise ValueError(f"cell size must be positive: {cell_deg}")
        self.cell_deg = cell_deg
        self._kinds: set = set()
        self._lines: List[Tuple[Polyline, str]] = []
        self._arrays: Optional[Dict[str, np.ndarray]] = None

    @property
    def kinds(self) -> frozenset:
        return frozenset(self._kinds)

    def add(self, line: Polyline, kind: str) -> None:
        """Index one corridor polyline under infrastructure *kind*."""
        self._kinds.add(kind)
        self._lines.append((line, kind))
        self._arrays = None

    def compile(self) -> Dict[str, np.ndarray]:
        """Segment endpoints, kind codes (a kind's rank in ``sorted(kinds)``)
        and bbox cell ranges as arrays, built on first use after ``add``."""
        if self._arrays is None:
            code = {kind: i for i, kind in enumerate(sorted(self._kinds))}
            lat_a, lon_a, lat_b, lon_b = np.concatenate(
                [np.zeros((4, 0))]
                + [np.vstack(line._segment_arrays) for line, _ in self._lines],
                axis=1,
            )
            rows_a, rows_b = self._cells(lat_a), self._cells(lat_b)
            cols_a, cols_b = self._cells(lon_a), self._cells(lon_b)
            self._arrays = {
                "lat_a": lat_a, "lon_a": lon_a, "lat_b": lat_b, "lon_b": lon_b,
                "kind": np.repeat(
                    np.asarray([code[k] for _, k in self._lines], dtype=np.int64),
                    [len(line) - 1 for line, _ in self._lines],
                ),
                "rmin": np.minimum(rows_a, rows_b),
                "rmax": np.maximum(rows_a, rows_b),
                "cmin": np.minimum(cols_a, cols_b),
                "cmax": np.maximum(cols_a, cols_b),
            }
        return self._arrays

    def _cells(self, degrees: np.ndarray) -> np.ndarray:
        return np.floor(degrees / self.cell_deg).astype(np.int64)

    def near(self, lats: np.ndarray, lons: np.ndarray,
             radius_km: float) -> np.ndarray:
        """``(points, kinds)`` booleans: which kinds (columns in
        ``sorted(kinds)`` order) have geometry within *radius_km* of each
        point.

        Every segment within *radius_km* of a point covers a cell of the
        point's ring, so the rings of a block of points bound its
        candidate segments without losing a hit.
        """
        seg = self.compile()
        near = np.zeros((len(lats), len(self._kinds)), dtype=bool)
        rows, cols = self._cells(lats), self._cells(lons)
        ring = int(math.ceil(radius_km / (111.0 * self.cell_deg))) + 1
        for start in range(0, len(lats), _SAMPLE_BLOCK):
            block = slice(start, start + _SAMPLE_BLOCK)
            r_lo, r_hi = int(rows[block].min()), int(rows[block].max())
            lon_ring = max(_lon_ring(r, radius_km, self.cell_deg)
                           for r in (r_lo, r_hi))
            candidates = np.flatnonzero(
                (seg["rmin"] <= r_hi + ring)
                & (seg["rmax"] >= r_lo - ring)
                & (seg["cmin"] <= cols[block].max() + lon_ring)
                & (seg["cmax"] >= cols[block].min() - lon_ring)
            )
            hits = segment_distance_matrix_km(
                lats[block], lons[block],
                *(seg[k][candidates] for k in ("lat_a", "lon_a", "lat_b", "lon_b")),
            ) <= radius_km
            kinds = seg["kind"][candidates]
            for code in np.unique(kinds).tolist():
                near[block, code] = hits[:, kinds == code].any(axis=1)
        return near

    def kinds_near(self, point: GeoPoint, radius_km: float) -> frozenset:
        """Infrastructure kinds with geometry within *radius_km* of *point*."""
        (row,) = self.near(np.array([point.lat]), np.array([point.lon]), radius_km)
        return frozenset(k for k, hit in zip(sorted(self._kinds), row) if hit)


@dataclass(frozen=True)
class OverlapProfile:
    """Per-kind co-location fractions for one fiber route.

    ``fractions[kind]`` is the fraction of route samples within the buffer
    of that kind; ``any_fraction`` uses the union of all kinds;
    ``union_fractions`` holds exact per-sample unions for the kind
    combinations requested at computation time.
    """

    fractions: Mapping[str, float]
    any_fraction: float
    samples: int
    union_fractions: Optional[Mapping[frozenset, float]] = field(default=None)

    def fraction(self, kind: str) -> float:
        return self.fractions.get(kind, 0.0)

    def union(self, *kinds: str) -> float:
        """Exact fraction of samples within the buffer of ANY given kind.

        The combination must have been requested via ``unions=`` when the
        profile was computed.
        """
        key = frozenset(kinds)
        if self.union_fractions is None or key not in self.union_fractions:
            raise KeyError(f"union {sorted(key)} was not computed")
        return self.union_fractions[key]


def overlap_profile(
    route: Polyline,
    index: CorridorIndex,
    buffer_km: float = DEFAULT_BUFFER_KM,
    spacing_km: float = DEFAULT_SAMPLE_SPACING_KM,
    unions: Iterable[Tuple[str, ...]] = (("road", "rail"),),
) -> OverlapProfile:
    """Compute the co-location profile of one fiber *route*.

    Mirrors the ArcGIS buffer-overlap measurement: resample the route at
    ``spacing_km`` and test each sample against each corridor kind's
    buffer of width ``buffer_km``.  ``unions`` lists kind combinations
    whose exact per-sample union fraction should also be computed (the
    paper's "Rail and Road" series).
    """
    lats, lons = points_to_arrays(route.resample(spacing_km))
    near = index.near(lats, lons, buffer_km)
    n = len(lats)
    kinds = sorted(index.kinds)
    union_fractions = {}
    for union in map(frozenset, unions):
        columns = [i for i, kind in enumerate(kinds) if kind in union]
        union_fractions[union] = int(near[:, columns].any(axis=1).sum()) / n
    return OverlapProfile(
        fractions=dict(zip(kinds, (near.sum(axis=0) / n).tolist())),
        any_fraction=int(near.any(axis=1).sum()) / n,
        samples=n,
        union_fractions=union_fractions,
    )


#: Float round-off tolerance for fractions that were averaged or summed
#: before binning.
_ROUNDOFF_EPS = 1e-9


def histogram(values: Iterable[float], bins: int = 10) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    """Histogram over [0, 1] used for the paper's Figure 4.

    Returns (bin_left_edges, counts).  Values equal to 1.0 fall in the
    last bin; values within ``1e-9`` outside [0, 1] are clamped (float
    round-off from averaging), anything farther out still raises.
    """
    if bins <= 0:
        raise ValueError("bins must be positive")
    counts = [0] * bins
    for v in values:
        if -_ROUNDOFF_EPS <= v < 0.0:
            v = 0.0
        elif 1.0 < v <= 1.0 + _ROUNDOFF_EPS:
            v = 1.0
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"co-location fraction out of [0,1]: {v}")
        idx = min(int(v * bins), bins - 1)
        counts[idx] += 1
    edges = tuple(i / bins for i in range(bins))
    return edges, tuple(counts)
