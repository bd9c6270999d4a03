"""Tests for vectorized geometry, partition analysis, and metro rings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fibermap.metro import (
    MetroRing,
    build_metro_ring,
    metro_coverage,
)
from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.projection import point_segment_distance_km
from repro.geo.vectorized import (
    haversine_km_batch,
    min_distance_to_segments_km,
    points_to_arrays,
    segment_distance_matrix_km,
    segment_distances_km,
)
from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.geo.polyline import Polyline
from repro.resilience.partition import (
    isp_partition_cuts,
    partition_report,
)
from tests.oracles.resilience import (
    isp_partition_cuts_reference,
    partition_report_reference,
)

lat_strategy = st.floats(min_value=25.0, max_value=49.0)
lon_strategy = st.floats(min_value=-124.0, max_value=-67.0)


class TestVectorized:
    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    @settings(max_examples=50)
    def test_batch_matches_scalar(self, lat1, lon1, lat2, lon2):
        scalar = haversine_km(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
        batch = haversine_km_batch(
            np.array([lat1]), np.array([lon1]),
            np.array([lat2]), np.array([lon2]),
        )
        assert batch[0] == pytest.approx(scalar, abs=1e-9)

    def test_points_to_arrays(self):
        points = [GeoPoint(40.0, -100.0), GeoPoint(41.0, -99.0)]
        lats, lons = points_to_arrays(points)
        assert lats.tolist() == [40.0, 41.0]
        assert lons.tolist() == [-100.0, -99.0]

    @given(lat_strategy, lon_strategy)
    @settings(max_examples=40)
    def test_segment_distance_matches_scalar(self, lat, lon):
        point = GeoPoint(lat, lon)
        seg_a = GeoPoint(40.0, -105.0)
        seg_b = GeoPoint(40.0, -100.0)
        scalar = point_segment_distance_km(point, seg_a, seg_b)
        batch = min_distance_to_segments_km(
            point,
            np.array([seg_a.lat]), np.array([seg_a.lon]),
            np.array([seg_b.lat]), np.array([seg_b.lon]),
        )
        assert batch == pytest.approx(scalar, rel=1e-6, abs=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_distance_matrix_rows_equal_one_point_kernel(self, seed):
        rng = np.random.default_rng(seed)
        lats, lons = rng.uniform(-80, 80, 12), rng.uniform(-180, 180, 12)
        segs = [rng.uniform(-80, 80, 30), rng.uniform(-180, 180, 30),
                rng.uniform(-80, 80, 30), rng.uniform(-180, 180, 30)]
        segs[2][:3], segs[3][:3] = segs[0][:3], segs[1][:3]  # degenerate
        matrix = segment_distance_matrix_km(lats, lons, *segs)
        for i, (lat, lon) in enumerate(zip(lats.tolist(), lons.tolist())):
            row = segment_distances_km(GeoPoint(lat, lon), *segs)
            assert np.array_equal(matrix[i], row)

    def test_min_over_many_segments(self):
        point = GeoPoint(40.0, -100.0)
        lat_a = np.array([40.0, 45.0])
        lon_a = np.array([-101.0, -101.0])
        lat_b = np.array([40.0, 45.0])
        lon_b = np.array([-99.0, -99.0])
        d = min_distance_to_segments_km(point, lat_a, lon_a, lat_b, lon_b)
        assert d < 1.0  # the first segment passes through the point

    def test_empty_segments(self):
        point = GeoPoint(40.0, -100.0)
        empty = np.array([])
        assert min_distance_to_segments_km(point, empty, empty, empty, empty) == float("inf")


class TestPartition:
    def test_report_consistent(self, built_map):
        report = partition_report(built_map)
        assert report.min_cuts == len(report.cut_edges)
        assert 2 <= report.min_cuts <= 30

    def test_cut_edges_are_real_rows(self, built_map):
        report = partition_report(built_map)
        for edge in report.cut_edges:
            assert built_map.conduits_between(*edge)

    def test_undersea_prevents_partition(self, built_map):
        report = partition_report(built_map)
        assert not report.partitionable_with_undersea
        assert report.min_cuts_with_undersea is None

    def test_cut_actually_partitions(self, built_map):
        import networkx as nx

        report = partition_report(built_map)
        graph = nx.Graph()
        for conduit in built_map.conduits.values():
            graph.add_edge(*conduit.edge)
        for edge in report.cut_edges:
            if graph.has_edge(*edge):
                graph.remove_edge(*edge)
        assert not nx.has_path(graph, "Los Angeles, CA", "New York, NY")

    def test_isp_cuts_leq_global_plus(self, built_map):
        # A single provider's west-east connectivity is at most as hard to
        # cut as the whole industry's.
        report = partition_report(built_map)
        for isp in ("Level 3", "AT&T", "EarthLink"):
            assert 0 < isp_partition_cuts(built_map, isp) <= report.min_cuts

    def test_regional_isp_not_partitionable(self, built_map):
        # Suddenlink (south-central) has no west-coast presence.
        assert isp_partition_cuts(built_map, "Suddenlink") == 0



def _maps(scenario):
    yield "constructed", scenario.constructed_map
    yield "truth", scenario.ground_truth.fiber_map


class TestPartitionParity:
    """The max-flow cuts equal ``nx.minimum_cut``'s, cut side included,
    on both families' constructed and ground-truth maps."""

    def test_report_matches_networkx(self, family_scenario):
        for name, fiber_map in _maps(family_scenario):
            assert partition_report(fiber_map) == partition_report_reference(
                fiber_map
            ), name

    def test_isp_cuts_match_networkx(self, family_scenario):
        for name, fiber_map in _maps(family_scenario):
            for isp in fiber_map.isps():
                assert isp_partition_cuts(
                    fiber_map, isp
                ) == isp_partition_cuts_reference(fiber_map, isp), (name, isp)

    def test_cut_is_on_the_sink_side(self):
        # A west-east chain with three distinct one-edge minimum cuts.
        # NetworkX's east side is every node that still reaches the sink
        # in the residual graph, so the reported cut is the edge nearest
        # the east coast, not the one nearest the west.
        chain = ("Seattle, WA", "Denver, CO", "Chicago, IL", "New York, NY")
        fiber_map = FiberMap()
        conduits = [
            fiber_map.add_conduit(
                a, b, row_id=f"row-{a}-{b}",
                geometry=Polyline([city_by_name(a).location,
                                   city_by_name(b).location]),
            ).conduit_id
            for a, b in zip(chain, chain[1:])
        ]
        fiber_map.add_link("AlphaNet", chain, conduits)
        report = partition_report(fiber_map)
        assert report == partition_report_reference(fiber_map)
        assert report.cut_edges == (("Chicago, IL", "New York, NY"),)
        assert report.min_cuts == 1
        # Seattle and New York are landing stations on opposite coasts.
        assert report.min_cuts_with_undersea is None
        assert isp_partition_cuts(fiber_map, "AlphaNet") == 1

class TestMetro:
    def test_ring_structure(self, built_map):
        ring = build_metro_ring(built_map, "Denver, CO")
        assert 3 <= ring.num_sites <= 12
        assert len(ring.segments) == ring.num_sites
        assert ring.ring_km > 0

    def test_sites_near_city(self, built_map):
        from repro.data.cities import city_by_name

        ring = build_metro_ring(built_map, "New York, NY")
        center = city_by_name("New York, NY").location
        for site in ring.sites:
            assert haversine_km(center, site.location) <= 40.0

    def test_tenants_subset_of_city_providers(self, built_map):
        ring = build_metro_ring(built_map, "Denver, CO")
        providers = set(built_map.nodes["Denver, CO"].isps)
        for site in ring.sites:
            assert set(site.tenants) <= providers

    def test_deterministic(self, built_map):
        first = build_metro_ring(built_map, "Chicago, IL")
        second = build_metro_ring(built_map, "Chicago, IL")
        assert first == second

    def test_bigger_city_bigger_ring(self, built_map):
        nyc = build_metro_ring(built_map, "New York, NY")
        laurel = build_metro_ring(built_map, "Laurel, MS")
        assert nyc.ring_km > laurel.ring_km

    def test_geometry_closed(self, built_map):
        ring = build_metro_ring(built_map, "Denver, CO")
        geometry = ring.geometry()
        assert geometry.start == geometry.end

    def test_coverage_report(self, built_map):
        report = metro_coverage(built_map, top=10)
        assert len(report.rings) == 10
        assert report.metro_sites >= 30
        assert 0.0 < report.coverage_gain < 1.0

    def test_coverage_validation(self, built_map):
        with pytest.raises(ValueError):
            metro_coverage(built_map, top=0)
