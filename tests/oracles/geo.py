"""The per-point buffer-overlap reference (§3), kept as a test oracle.

``SpatialGridIndex`` is the scalar lat/lon bucket grid the package's
compiled :class:`repro.geo.overlap.CorridorIndex` replaced: every query
point gathers the segments of its cell ring one by one and evaluates
them with the one-point kernel.  ``OracleCorridorIndex`` and
``overlap_profile`` rebuild the old per-sample co-location loop on top
of it.  The parity suite requires the compiled kernel to give the same
hit set for every sample.

Also two geometry helpers the package no longer calls: joining two
contiguous polylines, and orienting a right-of-way edge's geometry.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.overlap import OverlapProfile
from repro.geo.polyline import Polyline
from repro.geo.projection import point_segment_distance_km
from repro.geo.vectorized import segment_distances_km
from repro.transport.network import RowEdge, canonical_edge

CellKey = Tuple[int, int]
Segment = Tuple[GeoPoint, GeoPoint, Hashable]


class SpatialGridIndex:
    """Uniform lat/lon grid holding tagged polyline segments.

    Parameters
    ----------
    cell_deg:
        Grid cell size in degrees.  0.5 degrees (~55 km N-S) is a good
        default for corridor-scale queries.
    """

    def __init__(self, cell_deg: float = 0.5):
        if cell_deg <= 0:
            raise ValueError(f"cell size must be positive: {cell_deg}")
        self.cell_deg = cell_deg
        self._cells: Dict[CellKey, List[Segment]] = defaultdict(list)
        self._count = 0

    # ------------------------------------------------------------------
    def _cell_of(self, point: GeoPoint) -> CellKey:
        return (
            int(math.floor(point.lat / self.cell_deg)),
            int(math.floor(point.lon / self.cell_deg)),
        )

    def _cells_for_segment(self, a: GeoPoint, b: GeoPoint) -> Set[CellKey]:
        """All cells a segment may touch (bounding box of its endpoints)."""
        ra, ca = self._cell_of(a)
        rb, cb = self._cell_of(b)
        return {
            (r, c)
            for r in range(min(ra, rb), max(ra, rb) + 1)
            for c in range(min(ca, cb), max(ca, cb) + 1)
        }

    # ------------------------------------------------------------------
    def insert_segment(self, a: GeoPoint, b: GeoPoint, tag: Hashable) -> None:
        """Insert one segment with an arbitrary hashable *tag*."""
        seg: Segment = (a, b, tag)
        for key in self._cells_for_segment(a, b):
            self._cells[key].append(seg)
        self._count += 1

    def insert_polyline(self, line: Polyline, tag: Hashable) -> None:
        """Insert every segment of *line* under *tag*."""
        for a, b in line.segments():
            self.insert_segment(a, b, tag)

    def __len__(self) -> int:
        """Number of segments inserted (not counting multi-cell duplicates)."""
        return self._count

    # ------------------------------------------------------------------
    def _candidate_segments(self, point: GeoPoint, radius_km: float) -> Iterable[Segment]:
        """Segments in all cells within *radius_km* of *point* (deduplicated)."""
        # Convert the radius to a conservative cell ring count.  A degree of
        # latitude is ~111 km; a degree of longitude 111 km * cos(lat), so
        # the longitude ring is sized at the row's latitude farthest from
        # the equator (capped at the whole circle).  Both pad by one ring.
        ring = int(math.ceil(radius_km / (111.0 * self.cell_deg))) + 1
        r0, c0 = self._cell_of(point)
        edge_lat = min(90.0, max(abs(r0), abs(r0 + 1)) * self.cell_deg)
        span_km = 111.0 * self.cell_deg * math.cos(math.radians(edge_lat))
        lon_ring = min(
            int(math.ceil(radius_km / span_km)) + 1,
            int(math.ceil(360.0 / self.cell_deg)),
        )
        seen: Set[int] = set()
        for r in range(r0 - ring, r0 + ring + 1):
            for c in range(c0 - lon_ring, c0 + lon_ring + 1):
                for seg in self._cells.get((r, c), ()):
                    ident = id(seg)
                    if ident not in seen:
                        seen.add(ident)
                        yield seg

    def nearest_distance_km(
        self, point: GeoPoint, radius_km: float, tags: Set[Hashable] = None
    ) -> float:
        """Distance to the nearest indexed segment within *radius_km*.

        Returns ``math.inf`` when nothing lies within the radius.  When
        *tags* is given, only segments whose tag is in the set count.
        """
        best = math.inf
        for a, b, tag in self._candidate_segments(point, radius_km):
            if tags is not None and tag not in tags:
                continue
            # Cheap rejection: if both endpoints are far beyond radius + best,
            # skip the exact projection.
            if (
                haversine_km(point, a) - haversine_km(a, b) > min(best, radius_km)
            ):
                continue
            d = point_segment_distance_km(point, a, b)
            if d < best:
                best = d
        return best if best <= radius_km else math.inf

    def within(self, point: GeoPoint, radius_km: float) -> Set[Hashable]:
        """Tags of all segments within *radius_km* of *point*, evaluated
        with the one-point vectorized kernel."""
        segments = list(self._candidate_segments(point, radius_km))
        if not segments:
            return set()
        lat_a = np.fromiter((s[0].lat for s in segments), dtype=float)
        lon_a = np.fromiter((s[0].lon for s in segments), dtype=float)
        lat_b = np.fromiter((s[1].lat for s in segments), dtype=float)
        lon_b = np.fromiter((s[1].lon for s in segments), dtype=float)
        distances = segment_distances_km(point, lat_a, lon_a, lat_b, lon_b)
        hits: Set[Hashable] = set()
        for index in np.nonzero(distances <= radius_km)[0]:
            hits.add(segments[index][2])
        return hits


class OracleCorridorIndex:
    """The per-point corridor index: one grid tag per infrastructure kind."""

    def __init__(self, cell_deg: float = 0.5):
        self._grid = SpatialGridIndex(cell_deg=cell_deg)
        self._kinds: set = set()

    @property
    def kinds(self) -> frozenset:
        return frozenset(self._kinds)

    def add(self, line: Polyline, kind: str) -> None:
        self._kinds.add(kind)
        self._grid.insert_polyline(line, kind)

    def kinds_near(self, point: GeoPoint, radius_km: float) -> frozenset:
        return frozenset(self._grid.within(point, radius_km))


def corridor_index(network, cell_deg: float = 0.5) -> OracleCorridorIndex:
    """The oracle index over a network's corridors, in the order
    ``TransportationNetwork.corridor_index`` adds them."""
    index = OracleCorridorIndex(cell_deg=cell_deg)
    for record in network.edges():
        for name in sorted(record.corridor_names):
            index.add(record.geometries[name], record.kind_of[name])
    return index


def overlap_profile(
    route: Polyline,
    index: OracleCorridorIndex,
    buffer_km: float,
    spacing_km: float,
    unions: Iterable[Tuple[str, ...]] = (("road", "rail"),),
) -> OverlapProfile:
    """The per-sample co-location loop: one ``kinds_near`` per sample."""
    samples = route.resample(spacing_km)
    counts: Dict[str, int] = {kind: 0 for kind in index.kinds}
    union_keys = [frozenset(u) for u in unions]
    union_counts: Dict[frozenset, int] = {key: 0 for key in union_keys}
    any_count = 0
    for point in samples:
        near = index.kinds_near(point, buffer_km)
        if near:
            any_count += 1
        for kind in near:
            counts[kind] += 1
        for key in union_keys:
            if near & key:
                union_counts[key] += 1
    n = len(samples)
    return OverlapProfile(
        fractions={kind: counts[kind] / n for kind in counts},
        any_fraction=any_count / n,
        samples=n,
        union_fractions={key: union_counts[key] / n for key in union_keys},
    )


def concat(first: Polyline, second: Polyline) -> Polyline:
    """Join two polylines; *second* must start where *first* ends."""
    if second.start != first.end:
        raise ValueError("polylines are not contiguous")
    return Polyline(first.points + second.points[1:])


def geometry_oriented(
    edge: RowEdge, a_key: str, b_key: str,
    corridor_name: Optional[str] = None,
) -> Polyline:
    """The geometry of *edge* running from *a_key* to *b_key*: that
    corridor's leg when *corridor_name* is given, otherwise the shortest
    covering geometry."""
    if canonical_edge(a_key, b_key) != edge.edge:
        raise ValueError(f"({a_key}, {b_key}) is not edge {edge.edge}")
    if corridor_name is not None:
        line = edge.geometries[corridor_name]
    else:
        line = min(edge.geometries.values(), key=lambda g: g.length_km)
    return line if a_key == edge.edge[0] else line.reversed()
