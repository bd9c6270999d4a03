"""Tests for the buffer-overlap (co-location) analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import GeoPoint
from repro.geo.overlap import (
    CorridorIndex,
    histogram,
    overlap_profile,
)
from repro.geo.polyline import Polyline

ROAD = Polyline([GeoPoint(40.0, -105.0), GeoPoint(40.0, -100.0)])
RAIL = Polyline([GeoPoint(40.1, -105.0), GeoPoint(40.1, -102.5)])
FAR = Polyline([GeoPoint(45.0, -105.0), GeoPoint(45.0, -100.0)])


@pytest.fixture()
def index():
    idx = CorridorIndex()
    idx.add(ROAD, "road")
    idx.add(RAIL, "rail")
    return idx


class TestCorridorIndex:
    def test_kinds(self, index):
        assert index.kinds == {"road", "rail"}

    def test_kinds_near(self, index):
        p = GeoPoint(40.05, -104.0)
        assert index.kinds_near(p, 15.0) == {"road", "rail"}
        assert index.kinds_near(p, 2.0) == set()


class TestOverlapProfile:
    def test_route_on_corridor_fully_colocated(self, index):
        profile = overlap_profile(ROAD, index, buffer_km=15.0)
        assert profile.fraction("road") == 1.0
        assert profile.any_fraction == 1.0

    def test_far_route_not_colocated(self, index):
        profile = overlap_profile(FAR, index, buffer_km=15.0)
        assert profile.fraction("road") == 0.0
        assert profile.any_fraction == 0.0

    def test_partial_rail_colocation(self, index):
        # ROAD spans -105..-100 but RAIL only -105..-102.5: about half.
        profile = overlap_profile(ROAD, index, buffer_km=15.0)
        assert 0.3 <= profile.fraction("rail") <= 0.7

    def test_sample_count_positive(self, index):
        profile = overlap_profile(ROAD, index, spacing_km=50.0)
        assert profile.samples >= 2

    def test_unknown_kind_fraction_zero(self, index):
        assert overlap_profile(ROAD, index).fraction("pipeline") == 0.0


class TestHistogram:
    def test_bins_and_counts(self):
        edges, counts = histogram([0.0, 0.05, 0.55, 1.0], bins=10)
        assert len(edges) == 10
        assert sum(counts) == 4
        assert counts[0] == 2  # 0.0 and 0.05
        assert counts[5] == 1  # 0.55
        assert counts[9] == 1  # 1.0 falls into the last bin

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            histogram([1.5])
        with pytest.raises(ValueError):
            histogram([-0.01])

    def test_clamps_float_roundoff(self):
        # Averaged fractions routinely land a few ulps outside [0, 1];
        # those are clamped rather than rejected.
        edges, counts = histogram([-1e-10, 1.0 + 1e-10], bins=10)
        assert sum(counts) == 2
        assert counts[0] == 1
        assert counts[9] == 1

    def test_union_fractions_default_none(self, index):
        from repro.geo.overlap import OverlapProfile

        profile = OverlapProfile(
            fractions={"road": 1.0}, any_fraction=1.0, samples=10
        )
        assert profile.union_fractions is None
        with pytest.raises(KeyError):
            profile.union("road", "rail")

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([0.5], bins=0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=50),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=50)
    def test_counts_sum_to_input_size(self, values, bins):
        _, counts = histogram(values, bins=bins)
        assert sum(counts) == len(values)
        assert len(counts) == bins
