"""Tests for the §5 mitigation frameworks."""

import pytest

from repro.mitigation.augmentation import (
    candidate_new_edges,
    improvement_curve,
)
from repro.mitigation.latency import latency_study
from repro.mitigation.peering import (
    peering_candidates_for_isp,
    peering_suggestions,
)
from repro.mitigation.robustness import (
    optimize_all_isps,
    optimize_isp_around_conduits,
)
from repro.risk.metrics import most_shared_conduits
from tests.oracles.views import optimize_conduit_for_isp


class TestRobustness:
    def test_optimized_path_avoids_target(self, built_map, risk_matrix):
        cid, _ = most_shared_conduits(risk_matrix, top=1)[0]
        outcome = optimize_conduit_for_isp(built_map, risk_matrix, "AT&T", cid)
        assert outcome is not None
        assert cid not in outcome.optimized_conduits

    def test_optimized_path_connects_endpoints(self, built_map, risk_matrix):
        from repro.transport.network import canonical_edge

        cid, _ = most_shared_conduits(risk_matrix, top=1)[0]
        conduit = built_map.conduit(cid)
        outcome = optimize_conduit_for_isp(built_map, risk_matrix, "AT&T", cid)
        first = built_map.conduit(outcome.optimized_conduits[0])
        last = built_map.conduit(outcome.optimized_conduits[-1])
        assert set(conduit.edge) & set(first.edge)
        assert set(conduit.edge) & set(last.edge)

    def test_path_inflation_non_negative(self, built_map, risk_matrix):
        suggestion = optimize_isp_around_conduits(
            built_map, risk_matrix, "Sprint"
        )
        for outcome in suggestion.outcomes:
            assert outcome.path_inflation >= 0

    def test_srr_positive_for_top_conduits(self, built_map, risk_matrix):
        suggestion = optimize_isp_around_conduits(
            built_map, risk_matrix, "Sprint"
        )
        assert suggestion.outcomes
        # The most-shared conduits are precisely where alternatives win.
        assert suggestion.avg_srr > 0

    def test_only_tenant_conduits_optimized(self, built_map, risk_matrix):
        suggestion = optimize_isp_around_conduits(
            built_map, risk_matrix, "Integra"
        )
        for outcome in suggestion.outcomes:
            assert "Integra" in built_map.conduit(outcome.conduit_id).tenants

    def test_aggregates_consistent(self, built_map, risk_matrix):
        suggestion = optimize_isp_around_conduits(built_map, risk_matrix, "AT&T")
        if suggestion.outcomes:
            assert suggestion.min_pi <= suggestion.avg_pi <= suggestion.max_pi
            assert suggestion.min_srr <= suggestion.avg_srr <= suggestion.max_srr

    def test_all_isps_covered(self, built_map, risk_matrix):
        results = optimize_all_isps(built_map, risk_matrix)
        assert set(results) == set(risk_matrix.isps)

    def test_avg_pi_small(self, built_map, risk_matrix):
        # Paper: "an addition of between one and two conduits".
        results = optimize_all_isps(built_map, risk_matrix)
        values = [r.avg_pi for r in results.values() if r.outcomes]
        overall = sum(values) / len(values)
        assert 0.5 <= overall <= 4.0


class TestPeering:
    def test_suggestions_exclude_self(self, built_map, risk_matrix):
        suggestions = peering_suggestions(built_map, risk_matrix)
        for isp, peers in suggestions.items():
            assert isp not in peers
            assert len(peers) <= 3

    def test_peers_are_tracked_isps(self, built_map, risk_matrix):
        suggestions = peering_suggestions(built_map, risk_matrix)
        for peers in suggestions.values():
            for peer in peers:
                assert peer in risk_matrix.isps

    def test_rich_networks_dominate(self, built_map, risk_matrix):
        from collections import Counter

        suggestions = peering_suggestions(built_map, risk_matrix)
        counts = Counter(p for peers in suggestions.values() for p in peers)
        top_two = {isp for isp, _ in counts.most_common(2)}
        # Paper: Level 3 predominant.  Our map's equivalents are the two
        # infrastructure-rich builders.
        assert top_two & {"Level 3", "EarthLink"}

    def test_ranked_votes_descending(self, built_map, risk_matrix):
        ranked = peering_candidates_for_isp(
            built_map, risk_matrix, "Tata", top_peers=5
        )
        votes = [v for _, v in ranked]
        assert votes == sorted(votes, reverse=True)


class TestAugmentation:
    def test_candidates_unused(self, built_map, network):
        used = {c.edge for c in built_map.conduits.values()}
        for edge, length in candidate_new_edges(built_map, network):
            assert edge not in used
            assert length > 0

    def test_improvement_monotone_and_bounded(self, built_map, network):
        result = improvement_curve(built_map, network, "Tata", max_k=3)
        ratios = [r for _, r in result.curve]
        assert all(0.0 <= r < 1.0 for r in ratios)
        assert ratios == sorted(ratios)

    def test_added_edges_are_candidates(self, built_map, network):
        candidates = {e for e, _ in candidate_new_edges(built_map, network)}
        result = improvement_curve(built_map, network, "NTT", max_k=2)
        for edge in result.added_edges:
            assert edge in candidates

    def test_baseline_positive(self, built_map, network):
        result = improvement_curve(built_map, network, "Sprint", max_k=1)
        assert result.baseline_risk > 1.0

    def test_k_out_of_range(self, built_map, network):
        result = improvement_curve(built_map, network, "Sprint", max_k=1)
        with pytest.raises(ValueError):
            result.improvement_ratio(5)


class TestLatency:
    @pytest.fixture(scope="class")
    def study(self, built_map, network):
        return latency_study(built_map, network, max_pairs=120)

    def test_pairs_found(self, study):
        assert len(study.pairs) >= 50

    def test_delay_orderings(self, study):
        for pair in study.pairs:
            assert pair.best_ms <= pair.avg_ms + 1e-9
            assert pair.los_ms <= pair.row_ms + 1e-9
            assert pair.los_ms <= pair.best_ms + 1e-9

    def test_cdf_sorted(self, study):
        cdf = study.cdf("best_ms")
        values = [x for x, _ in cdf]
        assert values == sorted(values)
        assert cdf[-1][1] == pytest.approx(1.0)

    def test_row_best_fraction_in_band(self, study):
        # Paper: ~65%.  Accept a generous band; ours runs higher because
        # conduits follow ROW shortest paths by construction.
        assert 0.5 <= study.fraction_best_is_row_best <= 1.0

    def test_gap_percentiles_ordered(self, study):
        p50, p75 = study.row_los_gap_percentiles((50, 75))
        assert 0 <= p50 <= p75

    def test_distance_band_respected(self, study, network):
        from repro.mitigation.latency import DEFAULT_MAX_KM, DEFAULT_MIN_KM

        for pair in study.pairs:
            los = network.los_km(*pair.pair)
            assert DEFAULT_MIN_KM <= los <= DEFAULT_MAX_KM
