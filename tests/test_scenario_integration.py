"""Scenario wiring and cross-subsystem integration checks."""

import numpy as np
import pytest

from repro.scenario import Scenario, us2015
from repro.traceroute.topology import PHANTOM_PROVIDERS


class TestScenario:
    def test_lazy_components_cached(self, scenario):
        assert scenario.ground_truth is scenario.ground_truth
        assert scenario.constructed_map is scenario.constructed_map
        assert scenario.overlay is scenario.overlay
        assert scenario.risk_matrix is scenario.risk_matrix

    def test_isps_are_the_twenty(self, scenario):
        assert len(scenario.isps) == 20
        assert scenario.isps[0] == "AT&T"

    def test_campaign_size(self, scenario):
        assert len(scenario.campaign) == scenario.campaign_traces

    def test_us2015_cache(self):
        assert us2015(seed=2015, campaign_traces=50) is us2015(
            seed=2015, campaign_traces=50
        )

    def test_scenario_determinism(self, scenario):
        other = Scenario(seed=2015, campaign_traces=scenario.campaign_traces)
        assert other.constructed_map.stats() == scenario.constructed_map.stats()
        assert (
            other.constructed_map.tenancy()
            == scenario.constructed_map.tenancy()
        )
        first = [
            (r.src_city, r.dst_city) for r in other.campaign[:100]
        ]
        second = [
            (r.src_city, r.dst_city) for r in scenario.campaign[:100]
        ]
        assert first == second

    def test_different_seed_differs(self, scenario):
        other = Scenario(seed=77, campaign_traces=10)
        assert (
            other.ground_truth.fiber_map.tenancy()
            != scenario.ground_truth.fiber_map.tenancy()
        )


class TestCrossSubsystem:
    def test_matrix_covers_constructed_conduits(self, scenario):
        matrix = scenario.risk_matrix
        assert set(matrix.conduit_ids) == set(scenario.constructed_map.conduits)

    def test_topology_over_ground_truth(self, scenario):
        # Probes route over the true world; the overlay sees only the
        # constructed map — the paper's epistemic split.
        gt_isps = set(scenario.ground_truth.fiber_map.isps())
        topo_isps = set(scenario.topology.providers())
        assert gt_isps <= topo_isps
        assert topo_isps - gt_isps == set(PHANTOM_PROVIDERS)

    def test_overlay_counts_bounded_by_campaign(self, scenario):
        overlay = scenario.overlay
        assert overlay.traces_processed <= len(scenario.campaign)
        assert overlay.traces_processed > len(scenario.campaign) * 0.8

    def test_constructed_map_conduit_geometry_on_rows(self, scenario):
        registry = scenario.ground_truth.registry
        for conduit in list(scenario.constructed_map.conduits.values())[:50]:
            row_geometry = registry.geometry(conduit.row_id)
            assert conduit.geometry == row_geometry

    def test_risk_matrix_consistent_with_map(self, scenario):
        matrix = scenario.risk_matrix
        fiber_map = scenario.constructed_map
        for cid in list(matrix.conduit_ids)[:100]:
            mapped = {
                t for t in fiber_map.conduit(cid).tenants
                if t in matrix.isps
            }
            column = matrix.values[:, matrix.conduit_ids.index(cid)]
            assert {matrix.isps[i] for i in np.nonzero(column)[0]} == mapped

    def test_ground_truth_vs_constructed_sizes(self, scenario):
        gt = scenario.ground_truth.fiber_map.stats()
        built = scenario.constructed_map.stats()
        assert built.num_links == gt.num_links
        # Construction errors may add or split a few conduits.
        assert abs(built.num_conduits - gt.num_conduits) <= gt.num_conduits * 0.1
