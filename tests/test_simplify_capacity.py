"""Tests for polyline simplification and the capacity layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fibermap.capacity import (
    build_capacity_model,
    capacity_risk_correlation,
)
from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.polyline import Polyline
from repro.geo.simplify import simplify_polyline


class TestSimplify:
    def test_straight_line_collapses(self):
        line = Polyline(
            [GeoPoint(40.0, -100.0 + 0.1 * i) for i in range(20)]
        )
        simplified = simplify_polyline(line, tolerance_km=2.0)
        assert len(simplified) == 2
        assert simplified.start == line.start
        assert simplified.end == line.end

    def test_corner_preserved(self):
        line = Polyline(
            [GeoPoint(40.0, -100.0), GeoPoint(41.0, -100.0),
             GeoPoint(41.0, -99.0)]
        )
        simplified = simplify_polyline(line, tolerance_km=2.0)
        assert len(simplified) == 3

    def test_deviation_bounded(self, built_map):
        conduit = max(
            built_map.conduits.values(), key=lambda c: c.length_km
        )
        tolerance = 3.0
        simplified = simplify_polyline(conduit.geometry, tolerance)
        for point in conduit.geometry.points:
            assert simplified.distance_to_point_km(point) <= tolerance + 0.5

    def test_invalid_tolerance(self):
        line = Polyline([GeoPoint(40.0, -100.0), GeoPoint(41.0, -100.0)])
        with pytest.raises(ValueError):
            simplify_polyline(line, tolerance_km=0.0)

    @given(st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=20, deadline=None)
    def test_length_shrinks_but_endpoints_fixed(self, tolerance):
        line = Polyline(
            [
                GeoPoint(40.0 + 0.05 * (i % 3), -100.0 + 0.2 * i)
                for i in range(15)
            ]
        )
        simplified = simplify_polyline(line, tolerance)
        assert simplified.start == line.start
        assert simplified.end == line.end
        assert simplified.length_km <= line.length_km + 1e-9
        assert len(simplified) <= len(line)


class TestCapacity:
    @pytest.fixture(scope="class")
    def model(self, built_map, overlay):
        return build_capacity_model(built_map, overlay)

    def test_covers_all_conduits(self, model, built_map):
        assert len(model) == built_map.stats().num_conduits

    def test_strands_scale_with_tenants(self, model):
        for conduit in model.conduits:
            assert conduit.strands == max(1, conduit.tenants) * 96

    def test_lit_capacity_positive(self, model):
        assert all(c.lit_gbps > 0 for c in model.conduits)
        assert model.total_lit_gbps > 0

    def test_probe_shares_sum_to_at_most_one(self, model):
        # Each probe traverses several conduits, so shares are per-conduit
        # fractions of total conduit-crossings, each in [0, 1].
        assert all(0.0 <= c.probe_share <= 1.0 for c in model.conduits)

    def test_by_id(self, model):
        by_id = {c.conduit_id: c for c in model.conduits}
        assert len(by_id) == len(model)
        first = model.conduits[0]
        assert by_id[first.conduit_id] is first
        assert "C9999x" not in by_id

    def test_top_capacity_sorted(self, model):
        top = model.top_capacity(10)
        values = [c.lit_gbps for c in top]
        assert values == sorted(values, reverse=True)

    def test_amplification(self, model):
        # Top decile by tenancy holds far more than 10% of capacity.
        assert model.amplification() > 0.10

    def test_correlation_positive(self, model):
        assert capacity_risk_correlation(model) > 0.5

    def test_deterministic(self, built_map, overlay, model):
        again = build_capacity_model(built_map, overlay)
        assert [c.lit_gbps for c in again.conduits] == [
            c.lit_gbps for c in model.conduits
        ]

    def test_without_overlay(self, built_map):
        model = build_capacity_model(built_map)
        assert all(c.probe_share == 0.0 for c in model.conduits)
