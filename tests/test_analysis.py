"""Tests for geography/connectivity analyses and text reporting."""

import copy
import sys
import threading

import numpy as np
import pytest

from repro.analysis import geography
from repro.analysis.connectivity import connectivity_report, region_of
from repro.analysis.geography import (
    geography_report,
    non_transport_conduits,
)
from repro.analysis.report import format_cdf, format_histogram, format_table
from repro.perf.substrate import substrate_for


@pytest.fixture(scope="module")
def geo_report(built_map, network):
    return geography_report(built_map, network)


class TestGeography:
    def test_fractions_in_unit_interval(self, geo_report):
        for row in geo_report.colocations:
            assert 0.0 <= row.road <= 1.0
            assert 0.0 <= row.rail <= 1.0
            assert 0.0 <= row.pipeline <= 1.0
            assert 0.0 <= row.road_or_rail <= 1.0

    def test_union_at_least_parts(self, geo_report):
        for row in geo_report.colocations:
            assert row.road_or_rail >= max(row.road, row.rail) - 1e-9

    def test_road_dominates_rail(self, geo_report):
        # The paper's central §3 finding.
        assert geo_report.mean_fraction("road") > geo_report.mean_fraction("rail")
        assert geo_report.road_beats_rail_fraction > 0.5

    def test_union_highest(self, geo_report):
        assert geo_report.mean_fraction("road_or_rail") >= geo_report.mean_fraction("road")

    def test_histogram_counts(self, geo_report, built_map):
        _, counts = geo_report.histogram("road")
        assert sum(counts) == built_map.stats().num_conduits

    def test_covers_every_conduit(self, geo_report, built_map):
        assert len(geo_report.colocations) == built_map.stats().num_conduits

    def test_non_transport_conduits_sorted(self, geo_report, built_map):
        rows = non_transport_conduits(geo_report, built_map, threshold=0.9)
        values = [c.road_or_rail for _, c in rows]
        assert values == sorted(values)


class TestGeographyMemo:
    def test_fig5_reuses_the_report(self, built_map, network, geo_report):
        assert geography_report(built_map, network, buffer_km=15.0) is geo_report
        narrow = geography_report(built_map, network, buffer_km=5.0)
        assert narrow is not geo_report and narrow.buffer_km == 5.0

    def test_threads_share_one_computation(self, built_map, network,
                                           monkeypatch):
        """Eight threads ask for the report of one (fresh) map at once:
        every conduit is profiled once, and all get the same object."""
        fiber_map = copy.copy(built_map)
        calls, lock = [], threading.Lock()
        profile = geography.overlap_profile

        def counting_profile(*args, **kwargs):
            with lock:
                calls.append(1)
            return profile(*args, **kwargs)

        monkeypatch.setattr(geography, "overlap_profile", counting_profile)
        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(slot):
            barrier.wait(timeout=30)
            results[slot] = geography_report(fiber_map, network)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] is not None
        assert all(result is results[0] for result in results)
        assert len(calls) == len(fiber_map.conduits)


class TestConnectivity:
    @pytest.fixture(scope="class")
    def report(self, built_map):
        return connectivity_report(built_map)

    def test_stats_match_map(self, report, built_map):
        assert report.stats == built_map.stats()

    def test_hubs_sorted_by_degree(self, report):
        degrees = [d for _, d in report.top_hubs]
        assert degrees == sorted(degrees, reverse=True)
        assert len(report.top_hubs) == 10

    def test_connected(self, report):
        assert report.connected
        assert report.diameter_hops > 3

    def test_parallel_edges_have_multiple_conduits(self, report, built_map):
        for edge in report.parallel_edges:
            assert len(built_map.conduits_between(*edge)) > 1

    def test_spurs_have_degree_one(self, report, built_map):
        view = substrate_for(built_map).conduit_view()
        for city in report.spurs:
            i = view.index[city]
            assert int((view.eu == i).sum() + (view.ev == i).sum()) == 1

    def test_region_density_positive(self, report):
        assert report.region_density
        assert all(v > 0 for v in report.region_density.values())

    def test_northeast_denser_than_plains(self, report):
        # The paper's "dense deployments (northeast)" vs "pronounced
        # absence (upper plains)" contrast.
        assert report.region_density["northeast"] > report.region_density["plains"] * 0.5

    def test_region_of(self):
        assert region_of("New York, NY") == "northeast"
        assert region_of("Casper, WY") == "mountain"
        assert region_of("Denver, CO") == "four_corners"


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bbb"), [(1, 2), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_format_histogram(self):
        text = format_histogram((0.0, 0.5), (1, 3), title="H", width=10)
        assert "H" in text
        assert "###" in text

    def test_format_histogram_empty(self):
        text = format_histogram((), (), title="E")
        assert text == "E"

    def test_format_cdf(self):
        series = [(1.0, 0.25), (2.0, 0.5), (4.0, 1.0)]
        text = format_cdf(series, title="C", points=3)
        assert "p  0" in text or "p0" in text.replace(" ", "")
        assert "4.0" in text

    def test_format_cdf_empty(self):
        assert "(empty)" in format_cdf([], title="C")


class TestStats:
    def test_fig9_shift_as_ks(self, risk_matrix, overlay):
        physical = [
            risk_matrix.sharing_count(cid) for cid in risk_matrix.conduit_ids
        ]
        effective = [
            len(overlay.effective_tenants(cid))
            for cid in risk_matrix.conduit_ids
        ]
        # Kolmogorov-Smirnov distance between the two tenant-count
        # samples: Figure 9's visual gap, as a number.
        a, b = np.sort(physical), np.sort(effective)
        points = np.union1d(a, b)
        ks = np.max(np.abs(
            np.searchsorted(a, points, side="right") / a.size
            - np.searchsorted(b, points, side="right") / b.size
        ))
        assert 0.0 < ks < 1.0
