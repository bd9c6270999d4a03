"""Tests for the annotated map and the Pareto risk-latency routing."""

import json

import pytest

from repro.fibermap.annotate import (
    annotate_map,
    annotated_geojson,
    risk_class,
)
from repro.routing.pareto import pareto_paths


def _fastest_within(options, max_tenants):
    """The fastest frontier path whose worst conduit has at most
    *max_tenants* tenants (the frontier is sorted by delay)."""
    return next((o for o in options if o.max_risk <= max_tenants), None)


class TestRiskClass:
    def test_boundaries(self):
        assert risk_class(0) == "private"
        assert risk_class(1) == "private"
        assert risk_class(2) == "shared"
        assert risk_class(4) == "shared"
        assert risk_class(5) == "heavily-shared"
        assert risk_class(9) == "heavily-shared"
        assert risk_class(10) == "critical"
        assert risk_class(20) == "critical"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            risk_class(-1)


class TestAnnotatedMap:
    @pytest.fixture(scope="class")
    def annotated(self, built_map, overlay):
        return annotate_map(built_map, overlay)

    def test_covers_every_conduit(self, annotated, built_map):
        assert len(annotated) == built_map.stats().num_conduits

    def test_annotation_consistency(self, annotated, built_map):
        for annotation in annotated.annotations[:100]:
            conduit = built_map.conduit(annotation.conduit_id)
            assert annotation.tenants == conduit.num_tenants
            assert annotation.endpoints == conduit.edge
            assert annotation.length_km == pytest.approx(conduit.length_km)
            assert annotation.delay_ms > 0
            assert (
                annotation.probes_total
                == annotation.probes_west_to_east + annotation.probes_east_to_west
            )

    def test_by_id(self, annotated):
        by_id = {a.conduit_id: a for a in annotated.annotations}
        assert len(by_id) == len(annotated)
        first = annotated.annotations[0]
        assert by_id[first.conduit_id] is first
        assert "C9999" not in by_id

    def test_critical_class_members(self, annotated):
        for annotation in annotated.critical():
            assert annotation.tenants >= 10

    def test_busiest_sorted(self, annotated):
        rows = annotated.busiest(top=10)
        counts = [a.probes_total for a in rows]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 0

    def test_without_overlay(self, built_map):
        annotated = annotate_map(built_map)
        assert all(a.probes_total == 0 for a in annotated.annotations)
        assert all(a.inferred_extra_isps == 0 for a in annotated.annotations)

    def test_geojson_export(self, annotated, built_map):
        geojson = annotated_geojson(built_map, annotated)
        assert geojson["type"] == "FeatureCollection"
        assert len(geojson["features"]) == len(annotated)
        props = geojson["features"][0]["properties"]
        for key in ("risk_class", "probes_total", "delay_ms", "tenants"):
            assert key in props
        json.dumps(geojson)


class TestParetoRouting:
    def test_frontier_is_pareto(self, built_map):
        options = pareto_paths(built_map, "Denver, CO", "Chicago, IL")
        assert options
        delays = [o.delay_ms for o in options]
        risks = [o.max_risk for o in options]
        # Sorted by delay ascending, risk strictly decreasing.
        assert delays == sorted(delays)
        assert risks == sorted(risks, reverse=True)
        assert len(set(risks)) == len(risks)

    def test_paths_connect_endpoints(self, built_map):
        options = pareto_paths(built_map, "Denver, CO", "Chicago, IL")
        for option in options:
            first = built_map.conduit(option.conduit_ids[0])
            last = built_map.conduit(option.conduit_ids[-1])
            assert "Denver, CO" in first.edge
            assert "Chicago, IL" in last.edge
            assert option.max_risk <= option.total_risk

    def test_isp_restriction_subset(self, built_map):
        all_opts = pareto_paths(built_map, "Denver, CO", "Chicago, IL")
        isp_opts = pareto_paths(built_map, "Denver, CO", "Chicago, IL", isp="AT&T")
        if isp_opts:
            # A restricted footprint cannot beat the unrestricted optimum.
            assert min(o.delay_ms for o in isp_opts) >= min(
                o.delay_ms for o in all_opts
            ) - 1e-9

    def test_unknown_city(self, built_map):
        assert pareto_paths(built_map, "Atlantis, XX", "Denver, CO") == []

    def test_budget_query(self, built_map):
        options = pareto_paths(built_map, "Denver, CO", "Chicago, IL")
        lowest_risk = min(o.max_risk for o in options)
        best = _fastest_within(options, lowest_risk)
        assert best is not None
        assert best.max_risk <= lowest_risk
        assert _fastest_within(options, 0) is None

    def test_budget_monotone(self, built_map):
        options = pareto_paths(built_map, "Denver, CO", "Chicago, IL")
        loose = _fastest_within(options, 20)
        tight = _fastest_within(options, 5)
        if loose and tight:
            assert tight.delay_ms >= loose.delay_ms - 1e-9
