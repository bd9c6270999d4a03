"""Tests for the local projection and the per-point grid oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint, haversine_km
from repro.geo.polyline import Polyline
from repro.geo.projection import LocalProjection, point_segment_distance_km
from tests.oracles.geo import SpatialGridIndex

CENTER = GeoPoint(40.0, -100.0)


class TestLocalProjection:
    def test_reference_is_origin(self):
        proj = LocalProjection(CENTER)
        assert proj.to_xy(CENTER) == (0.0, 0.0)

    def test_roundtrip(self):
        proj = LocalProjection(CENTER)
        p = GeoPoint(40.7, -99.2)
        x, y = proj.to_xy(p)
        # The inverse of the equirectangular map, written out.
        km_per_deg = math.pi * EARTH_RADIUS_KM / 180.0
        back = GeoPoint(
            CENTER.lat + y / km_per_deg,
            CENTER.lon + x / (km_per_deg * math.cos(math.radians(CENTER.lat))),
        )
        assert haversine_km(p, back) < 0.01

    def test_distance_agreement_locally(self):
        proj = LocalProjection(CENTER)
        p = GeoPoint(40.4, -100.6)
        x, y = proj.to_xy(p)
        planar = math.hypot(x, y)
        assert planar == pytest.approx(haversine_km(CENTER, p), rel=0.01)


class TestPointSegmentDistance:
    def test_point_on_segment(self):
        a, b = GeoPoint(40.0, -100.0), GeoPoint(40.0, -99.0)
        mid = GeoPoint(40.0, -99.5)
        assert point_segment_distance_km(mid, a, b) < 0.5

    def test_point_beyond_endpoint_clamps(self):
        a, b = GeoPoint(40.0, -100.0), GeoPoint(40.0, -99.0)
        beyond = GeoPoint(40.0, -98.0)
        assert point_segment_distance_km(beyond, a, b) == pytest.approx(
            haversine_km(beyond, b), rel=0.02
        )

    def test_degenerate_segment(self):
        a = GeoPoint(40.0, -100.0)
        p = GeoPoint(41.0, -100.0)
        assert point_segment_distance_km(p, a, a) == pytest.approx(
            haversine_km(p, a), rel=0.02
        )

    def test_perpendicular_distance(self):
        a, b = GeoPoint(40.0, -101.0), GeoPoint(40.0, -99.0)
        p = GeoPoint(40.9, -100.0)  # ~100 km north of the segment
        assert point_segment_distance_km(p, a, b) == pytest.approx(100, rel=0.05)


class TestSpatialGridIndex:
    def _line(self):
        return Polyline([GeoPoint(40.0, -101.0), GeoPoint(40.0, -99.0)])

    def test_insert_and_count(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        assert len(grid) == 1

    def test_within_hit(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        near = GeoPoint(40.05, -100.0)
        assert grid.within(near, 10.0) == {"road"}

    def test_within_miss(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        far = GeoPoint(42.0, -100.0)
        assert grid.within(far, 10.0) == set()

    def test_nearest_distance(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        p = GeoPoint(40.45, -100.0)  # ~50 km north
        d = grid.nearest_distance_km(p, 100.0)
        assert d == pytest.approx(50, rel=0.05)

    def test_nearest_distance_inf_outside_radius(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        p = GeoPoint(45.0, -100.0)
        assert grid.nearest_distance_km(p, 50.0) == math.inf

    def test_tag_filter(self):
        grid = SpatialGridIndex()
        grid.insert_polyline(self._line(), "road")
        p = GeoPoint(40.05, -100.0)
        assert grid.nearest_distance_km(p, 50.0, tags={"rail"}) == math.inf
        assert grid.nearest_distance_km(p, 50.0, tags={"road"}) < 10.0

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            SpatialGridIndex(cell_deg=0.0)

    @given(
        st.floats(min_value=39.2, max_value=40.8),
        st.floats(min_value=-101.8, max_value=-98.2),
    )
    @settings(max_examples=40)
    def test_grid_matches_brute_force(self, lat, lon):
        line = self._line()
        grid = SpatialGridIndex()
        grid.insert_polyline(line, "road")
        point = GeoPoint(lat, lon)
        brute = line.distance_to_point_km(point)
        indexed = grid.nearest_distance_km(point, 500.0)
        assert indexed == pytest.approx(brute, abs=0.5)
