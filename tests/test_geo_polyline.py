"""Unit and property tests for polylines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.polyline import Polyline
from tests.oracles.geo import concat

A = GeoPoint(40.0, -100.0)
B = GeoPoint(41.0, -100.0)
C = GeoPoint(41.0, -99.0)

# Continental-US scale: the library's domain, and the scale at which the
# planar point-to-segment projection is accurate.
lat_strategy = st.floats(min_value=25.0, max_value=49.0)
lon_strategy = st.floats(min_value=-124.0, max_value=-67.0)
point_strategy = st.builds(GeoPoint, lat_strategy, lon_strategy)
points_strategy = st.lists(point_strategy, min_size=2, max_size=8, unique=True)


class TestConstruction:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Polyline([A])

    def test_basic_properties(self):
        line = Polyline([A, B, C])
        assert line.start == A
        assert line.end == C
        assert len(line) == 3
        assert list(line) == [A, B, C]

    def test_length_is_sum_of_segments(self):
        line = Polyline([A, B, C])
        expected = haversine_km(A, B) + haversine_km(B, C)
        assert line.length_km == pytest.approx(expected)

    def test_equality_and_hash(self):
        assert Polyline([A, B]) == Polyline([A, B])
        assert hash(Polyline([A, B])) == hash(Polyline([A, B]))
        assert Polyline([A, B]) != Polyline([B, A])


class TestGeometryQueries:
    def test_point_at_zero_and_end(self):
        line = Polyline([A, B, C])
        assert line.point_at_km(0.0) == A
        assert line.point_at_km(line.length_km + 10) == C

    def test_point_at_half(self):
        line = Polyline([A, B])
        mid = line.point_at_km(line.length_km / 2)
        assert haversine_km(A, mid) == pytest.approx(
            line.length_km / 2, rel=1e-3
        )

    def test_resample_endpoints_included(self):
        line = Polyline([A, B, C])
        samples = line.resample(25.0)
        assert samples[0] == A
        assert samples[-1] == C

    def test_resample_spacing(self):
        line = Polyline([A, B])
        samples = line.resample(30.0)
        for p, q in zip(samples, samples[1:]):
            assert haversine_km(p, q) <= 30.0 + 1.0

    def test_resample_invalid_spacing(self):
        with pytest.raises(ValueError):
            Polyline([A, B]).resample(0.0)

    def test_distance_to_point_on_line(self):
        line = Polyline([A, B])
        on_line = line.point_at_km(line.length_km / 3)
        assert line.distance_to_point_km(on_line) < 0.5

    def test_distance_to_far_point(self):
        line = Polyline([A, B])
        far = GeoPoint(40.5, -95.0)  # ~420 km east of the segment
        assert line.distance_to_point_km(far) > 300.0

    def test_reversed(self):
        line = Polyline([A, B, C])
        back = line.reversed()
        assert back.start == C
        assert back.end == A
        assert back.length_km == pytest.approx(line.length_km)

    def test_concat(self):
        first = Polyline([A, B])
        second = Polyline([B, C])
        joined = concat(first, second)
        assert joined.start == A
        assert joined.end == C
        assert joined.length_km == pytest.approx(
            first.length_km + second.length_km
        )

    def test_concat_requires_contiguity(self):
        with pytest.raises(ValueError):
            concat(Polyline([A, B]), Polyline([C, A]))

    def test_segments(self):
        assert list(Polyline([A, B, C]).segments()) == [(A, B), (B, C)]


class TestProperties:
    @given(points_strategy)
    @settings(max_examples=60)
    def test_length_at_least_endpoint_distance(self, points):
        line = Polyline(points)
        assert line.length_km >= haversine_km(line.start, line.end) - 1e-6

    # Corridor-leg-scale steps: real corridor geometry is densified to
    # ~20 km, so segment-as-straight-chord accuracy applies.
    step_strategy = st.tuples(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
    )

    @given(
        st.floats(min_value=30.0, max_value=44.0),
        st.floats(min_value=-115.0, max_value=-75.0),
        st.lists(step_strategy, min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=5000.0),
    )
    @settings(max_examples=60)
    def test_point_at_km_is_on_route(self, lat, lon, steps, distance):
        points = [GeoPoint(lat, lon)]
        for dlat, dlon in steps:
            last = points[-1]
            candidate = GeoPoint(last.lat + dlat, last.lon + dlon)
            if candidate != last:
                points.append(candidate)
        if len(points) < 2:
            points.append(GeoPoint(lat + 0.5, lon))
        line = Polyline(points)
        p = line.point_at_km(distance)
        assert line.distance_to_point_km(p) < 3.0

    @given(points_strategy)
    @settings(max_examples=40)
    def test_reverse_involution(self, points):
        line = Polyline(points)
        assert line.reversed().reversed() == line
