"""Tests for the risk matrix and its §4 metrics."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fibermap.elements import FiberMap
from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.risk.hamming import (
    hamming_distance,
    hamming_distance_matrix,
    most_similar_pairs,
    risk_profile_similarity,
)
from repro.risk.matrix import RiskMatrix
from repro.risk.metrics import (
    conduits_shared_by_at_least,
    isp_ranking,
    most_shared_conduits,
    sharing_cdf,
    sharing_fractions,
)


def _tiny_map():
    """The paper's §4.1 worked example: Level 3 and Sprint over c1-c3."""
    fm = FiberMap()
    geo = Polyline([GeoPoint(40.76, -111.89), GeoPoint(39.74, -104.99)])
    c1 = fm.add_conduit("Salt Lake City, UT", "Denver, CO", "r1", geo)
    geo2 = Polyline([GeoPoint(40.76, -111.89), GeoPoint(38.58, -121.49)])
    c2 = fm.add_conduit("Salt Lake City, UT", "Sacramento, CA", "r2", geo2)
    geo3 = Polyline([GeoPoint(38.58, -121.49), GeoPoint(37.44, -122.14)])
    c3 = fm.add_conduit("Sacramento, CA", "Palo Alto, CA", "r3", geo3)
    fm.add_link("Level 3", ["Denver, CO", "Salt Lake City, UT"], [c1.conduit_id])
    fm.add_link("Level 3", ["Salt Lake City, UT", "Sacramento, CA"], [c2.conduit_id])
    fm.add_link("Level 3", ["Sacramento, CA", "Palo Alto, CA"], [c3.conduit_id])
    fm.add_link("Sprint", ["Denver, CO", "Salt Lake City, UT"], [c1.conduit_id])
    fm.add_link("Sprint", ["Salt Lake City, UT", "Sacramento, CA"], [c2.conduit_id])
    return fm, (c1.conduit_id, c2.conduit_id, c3.conduit_id)


class TestPaperExample:
    def test_matrix_matches_worked_example(self):
        fm, (c1, c2, c3) = _tiny_map()
        matrix = RiskMatrix(fm, isps=["Level 3", "Sprint"])
        # Level 3 row: 2 2 1; Sprint row: 2 2 0 (the paper's example).
        level3 = {c: v for c, v in zip(matrix.conduit_ids, matrix.row("Level 3"))}
        sprint = {c: v for c, v in zip(matrix.conduit_ids, matrix.row("Sprint"))}
        assert level3[c1] == 2 and level3[c2] == 2 and level3[c3] == 1
        assert sprint[c1] == 2 and sprint[c2] == 2 and sprint[c3] == 0


class TestMatrixInvariants:
    def test_entries_equal_column_tenant_counts(self, risk_matrix, built_map):
        values = risk_matrix.values
        for j, cid in enumerate(risk_matrix.conduit_ids[:100]):
            tenants = built_map.conduit(cid).tenants & set(risk_matrix.isps)
            count = len(tenants)
            column = values[:, j]
            nonzero = column[column > 0]
            assert all(v == count for v in nonzero)
            assert (column > 0).sum() == count

    def test_values_read_only(self, risk_matrix):
        with pytest.raises(ValueError):
            risk_matrix.values[0, 0] = 99

    def test_sharing_counts_match(self, risk_matrix):
        counts = risk_matrix.sharing_counts()
        for j, cid in enumerate(risk_matrix.conduit_ids[:50]):
            assert counts[j] == risk_matrix.sharing_count(cid)

    def test_conduits_of_matches_presence(self, risk_matrix):
        for isp in risk_matrix.isps[:5]:
            conduits = risk_matrix.conduits_of(isp)
            assert len(conduits) == (risk_matrix.row(isp) > 0).sum()

    def test_average_risk_bounds(self, risk_matrix):
        for row in isp_ranking(risk_matrix):
            assert 1.0 <= row.average <= len(risk_matrix.isps)

    def test_percentiles_ordered(self, risk_matrix):
        for row in isp_ranking(risk_matrix):
            assert row.p25 <= row.p75

    def test_empty_isp_average(self):
        fm, _ = _tiny_map()
        matrix = RiskMatrix(fm, isps=["Level 3", "Sprint", "Ghost"])
        ghost = next(r for r in isp_ranking(matrix) if r.isp == "Ghost")
        assert (ghost.average, ghost.p25, ghost.p75) == (0.0, 0.0, 0.0)


class TestMetrics:
    def test_series_monotone_decreasing(self, risk_matrix):
        series = conduits_shared_by_at_least(risk_matrix)
        counts = [n for _, n in series]
        assert counts == sorted(counts, reverse=True)
        assert series[0] == (1, len(risk_matrix.conduit_ids))

    def test_fractions_consistent_with_series(self, risk_matrix):
        series = dict(conduits_shared_by_at_least(risk_matrix))
        fractions = sharing_fractions(risk_matrix)
        total = len(risk_matrix.conduit_ids)
        for k in (2, 3, 4):
            assert fractions[k] == pytest.approx(series[k] / total)

    def test_cdf_reaches_one(self, risk_matrix):
        cdf = sharing_cdf(risk_matrix)
        assert cdf[-1][1] == pytest.approx(1.0)
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)

    def test_conduit_free_map_yields_vacuous_cdf(self):
        from repro.fibermap.elements import FiberMap

        empty = RiskMatrix(FiberMap(), isps=["Level 3"])
        assert sharing_cdf(empty) == [(0, 1.0)]
        assert conduits_shared_by_at_least(empty) == [(1, 0)]
        assert conduits_shared_by_at_least(empty, max_k=3) == [
            (1, 0), (2, 0), (3, 0),
        ]

    def test_ranking_sorted(self, risk_matrix):
        rows = isp_ranking(risk_matrix)
        averages = [r.average for r in rows]
        assert averages == sorted(averages)
        assert len(rows) == len(risk_matrix.isps)

    def test_ranking_percentiles(self, risk_matrix):
        for row in isp_ranking(risk_matrix):
            assert row.p25 <= row.p75
            assert row.std_error >= 0

    def test_most_shared_order(self, risk_matrix):
        top = most_shared_conduits(risk_matrix, top=12)
        counts = [n for _, n in top]
        assert counts == sorted(counts, reverse=True)
        assert len(top) == 12


class TestHamming:
    def test_symmetric_zero_diagonal(self, risk_matrix):
        distances = hamming_distance_matrix(risk_matrix)
        assert (distances == distances.T).all()
        assert (np.diag(distances) == 0).all()

    def test_pairwise_matches_direct(self, risk_matrix):
        distances = hamming_distance_matrix(risk_matrix)
        isps = risk_matrix.isps
        assert distances[0, 1] == hamming_distance(risk_matrix, isps[0], isps[1])

    def test_similarity_ranking_descending(self, risk_matrix):
        ranked = risk_profile_similarity(risk_matrix)
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)

    def test_most_similar_pairs_sorted(self, risk_matrix):
        pairs = most_similar_pairs(risk_matrix, top=5)
        distances = [d for _, _, d in pairs]
        assert distances == sorted(distances)
        for a, b, _ in pairs:
            assert a != b

    def test_paper_example_distance(self):
        fm, _ = _tiny_map()
        matrix = RiskMatrix(fm, isps=["Level 3", "Sprint"])
        # Rows differ only in c3 (1 vs 0).
        assert hamming_distance(matrix, "Level 3", "Sprint") == 1


class TestHammingProperty:
    @given(st.integers(min_value=0, max_value=2**20 - 1),
           st.integers(min_value=0, max_value=2**20 - 1))
    @settings(max_examples=30)
    def test_hamming_is_metric_on_synthetic_rows(self, mask_a, mask_b):
        a = np.array([(mask_a >> i) & 1 for i in range(20)])
        b = np.array([(mask_b >> i) & 1 for i in range(20)])
        d_ab = int((a != b).sum())
        assert d_ab == int((b != a).sum())
        assert (d_ab == 0) == (mask_a == mask_b)


#: Small profile over the shared session scenarios (the fixture health
#: check does not apply to them).
FAMILY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _family_matrix(scenario, truth):
    """The scenario's risk matrix, or one over its ground-truth map."""
    if truth:
        fiber_map = scenario.ground_truth.fiber_map
        return fiber_map, RiskMatrix(fiber_map)
    return scenario.constructed_map, scenario.risk_matrix


class TestRiskMatrixFamilyProperties:
    """§4 invariants over drawn providers and conduits of both families'
    constructed and ground-truth maps."""

    @FAMILY
    @given(data=st.data())
    def test_entries_are_tenant_counts(self, family_scenario, data):
        truth = data.draw(st.booleans())
        fiber_map, matrix = _family_matrix(family_scenario, truth)
        isp = data.draw(st.sampled_from(matrix.isps))
        cid = data.draw(st.sampled_from(matrix.conduit_ids))
        tenants = fiber_map.conduit(cid).tenants
        assert matrix.sharing_count(cid) == len(tenants)
        j = matrix.conduit_ids.index(cid)
        assert matrix.row(isp)[j] == (len(tenants) if isp in tenants else 0)

    @FAMILY
    @given(data=st.data())
    def test_hamming_distance_is_a_metric(self, family_scenario, data):
        _, matrix = _family_matrix(family_scenario, data.draw(st.booleans()))
        a, b, c = (data.draw(st.sampled_from(matrix.isps)) for _ in range(3))
        d_ab = hamming_distance(matrix, a, b)
        assert hamming_distance(matrix, a, a) == 0
        assert d_ab == hamming_distance(matrix, b, a) >= 0
        assert (d_ab == 0) == np.array_equal(matrix.row(a), matrix.row(b))
        assert hamming_distance(matrix, a, c) <= d_ab + hamming_distance(
            matrix, b, c
        )
