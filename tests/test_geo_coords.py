"""Unit and property tests for great-circle geometry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    FIBER_KM_PER_MS,
    GeoPoint,
    bearing_deg,
    destination_point,
    fiber_delay_ms,
    great_circle_interpolate,
    haversine_km,
    midpoint,
)

NYC = GeoPoint(40.71, -74.01)
LA = GeoPoint(34.05, -118.24)
CHI = GeoPoint(41.88, -87.63)

lat_strategy = st.floats(min_value=-85.0, max_value=85.0)
lon_strategy = st.floats(min_value=-179.0, max_value=179.0)
point_strategy = st.builds(GeoPoint, lat_strategy, lon_strategy)


class TestGeoPoint:
    def test_valid_construction(self):
        p = GeoPoint(45.0, -100.0)
        assert p.lat == 45.0
        assert p.lon == -100.0

    def test_latitude_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-90.5, 0.0)

    def test_longitude_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)

    def test_hashable_and_equal(self):
        assert GeoPoint(1.0, 2.0) == GeoPoint(1.0, 2.0)
        assert len({GeoPoint(1.0, 2.0), GeoPoint(1.0, 2.0)}) == 1

    def test_distance_method_matches_function(self):
        assert NYC.distance_km(LA) == haversine_km(NYC, LA)


class TestHaversine:
    def test_nyc_la_distance(self):
        # Great-circle NYC-LA is roughly 3940 km.
        assert haversine_km(NYC, LA) == pytest.approx(3940, rel=0.02)

    def test_zero_distance(self):
        assert haversine_km(NYC, NYC) == 0.0

    def test_antipodal_is_half_circumference(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert haversine_km(a, b) == pytest.approx(
            math.pi * EARTH_RADIUS_KM, rel=1e-6
        )

    def test_one_degree_latitude(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(1.0, 0.0)
        assert haversine_km(a, b) == pytest.approx(111.2, rel=0.01)

    @given(point_strategy, point_strategy)
    def test_symmetry(self, a, b):
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))

    @given(point_strategy, point_strategy)
    def test_non_negative_and_bounded(self, a, b):
        d = haversine_km(a, b)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-6

    @given(point_strategy, point_strategy, point_strategy)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= (
            haversine_km(a, b) + haversine_km(b, c) + 1e-6
        )


class TestBearing:
    def test_due_north(self):
        assert bearing_deg(GeoPoint(0, 0), GeoPoint(10, 0)) == pytest.approx(0.0)

    def test_due_east_at_equator(self):
        assert bearing_deg(GeoPoint(0, 0), GeoPoint(0, 10)) == pytest.approx(90.0)

    def test_due_south(self):
        assert bearing_deg(GeoPoint(10, 0), GeoPoint(0, 0)) == pytest.approx(180.0)

    @given(point_strategy, point_strategy)
    def test_range(self, a, b):
        assert 0.0 <= bearing_deg(a, b) < 360.0


class TestDestinationPoint:
    def test_north_displacement(self):
        start = GeoPoint(0.0, 0.0)
        end = destination_point(start, 0.0, 111.2)
        assert end.lat == pytest.approx(1.0, abs=0.01)
        assert end.lon == pytest.approx(0.0, abs=1e-6)

    @given(point_strategy, st.floats(min_value=0, max_value=359.9),
           st.floats(min_value=0.1, max_value=2000.0))
    @settings(max_examples=60)
    def test_roundtrip_distance(self, origin, bearing, distance):
        end = destination_point(origin, bearing, distance)
        assert haversine_km(origin, end) == pytest.approx(distance, rel=1e-3)


class TestInterpolation:
    def test_endpoints(self):
        assert great_circle_interpolate(NYC, LA, 0.0) == NYC
        end = great_circle_interpolate(NYC, LA, 1.0)
        assert haversine_km(end, LA) < 0.5

    def test_midpoint_equidistant(self):
        mid = midpoint(NYC, LA)
        d1 = haversine_km(NYC, mid)
        d2 = haversine_km(mid, LA)
        assert d1 == pytest.approx(d2, rel=1e-6)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            great_circle_interpolate(NYC, LA, 1.5)

    def test_coincident_points(self):
        assert great_circle_interpolate(NYC, NYC, 0.5) == NYC

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40)
    def test_on_great_circle(self, fraction):
        p = great_circle_interpolate(NYC, LA, fraction)
        total = haversine_km(NYC, LA)
        assert haversine_km(NYC, p) == pytest.approx(fraction * total, abs=1.0)


class TestFiberDelay:
    def test_known_value(self):
        # ~204 km of fiber per millisecond.
        assert FIBER_KM_PER_MS == pytest.approx(204.2, rel=0.01)
        assert fiber_delay_ms(FIBER_KM_PER_MS) == pytest.approx(1.0)

    def test_zero(self):
        assert fiber_delay_ms(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fiber_delay_ms(-1.0)

    @given(st.floats(min_value=0.0, max_value=1e5))
    def test_linear(self, km):
        assert fiber_delay_ms(2 * km) == pytest.approx(2 * fiber_delay_ms(km))
