"""Tests for the community-database diff/merge toolkit (§2.5)."""

import pytest

from repro.fibermap.diff import diff_maps, fidelity_gain
from repro.fibermap.elements import FiberMap
from repro.fibermap.merge import merge_maps
from repro.fibermap.pipeline import MapConstructionPipeline
from repro.fibermap.records import generate_records
from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from tests.test_golden_hashes import fiber_map_digest

A, B, C = "Denver, CO", "Limon, CO", "Hays, KS"


def _geom(lat1, lon1, lat2, lon2):
    return Polyline([GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)])


def _small_map(with_extra=False):
    fm = FiberMap()
    c1 = fm.add_conduit(A, B, "road:I-70:x", _geom(39.74, -104.99, 39.26, -103.69))
    fm.add_link("Alpha", [A, B], [c1.conduit_id])
    if with_extra:
        c2 = fm.add_conduit(B, C, "road:I-70:y", _geom(39.26, -103.69, 38.88, -99.33))
        fm.add_link("Beta", [B, C], [c2.conduit_id])
        fm.add_tenant(c1.conduit_id, "Beta")
    return fm


@pytest.fixture(scope="module")
def sparse_built(scenario):
    corpus = generate_records(scenario.ground_truth, seed=99, coverage=0.4)
    built, _ = MapConstructionPipeline(
        scenario.ground_truth,
        provider_maps=scenario.provider_maps,
        corpus=corpus,
    ).run()
    return built


class TestDiff:
    def test_identical_maps_empty_diff(self):
        first = _small_map()
        second = _small_map()
        diff = diff_maps(first, second)
        assert not diff.added_conduits and not diff.removed_conduits
        assert not diff.tenancy_changes
        assert diff.unchanged == 1

    def test_added_and_tenancy(self):
        old = _small_map(with_extra=False)
        new = _small_map(with_extra=True)
        diff = diff_maps(old, new)
        assert len(diff.added_conduits) == 1
        assert not diff.removed_conduits
        assert len(diff.tenancy_changes) == 1
        assert diff.tenancy_changes[0].added == frozenset({"Beta"})
        assert diff.tenancies_added == 1
        assert diff.tenancies_removed == 0

    def test_removed_symmetry(self):
        old = _small_map(with_extra=True)
        new = _small_map(with_extra=False)
        diff = diff_maps(old, new)
        assert len(diff.removed_conduits) == 1

    def test_summary_text(self):
        diff = diff_maps(_small_map(), _small_map(True))
        assert "+1 conduits" in diff.summary()

    def test_real_maps_diff(self, built_map, sparse_built):
        diff = diff_maps(sparse_built, built_map)
        assert diff.tenancies_added > 0


class TestMerge:
    def test_merge_identity(self):
        base = _small_map(with_extra=True)
        merged, report = merge_maps(base, _small_map(with_extra=True))
        assert report.conduits_added == 0
        assert report.conduits_matched == 2
        assert report.tenancies_added == 0
        assert merged.stats().num_conduits == 2

    def test_merge_adds_missing(self):
        base = _small_map(with_extra=False)
        merged, report = merge_maps(base, _small_map(with_extra=True))
        assert report.conduits_added == 1
        assert report.tenancies_added >= 1
        assert merged.stats().num_conduits == 2
        # The base map is untouched.
        assert base.stats().num_conduits == 1

    def test_merge_improves_fidelity(self, scenario, built_map, sparse_built):
        merged, report = merge_maps(sparse_built, built_map)
        old_recall, new_recall = fidelity_gain(
            scenario.ground_truth.fiber_map, sparse_built, merged
        )
        assert new_recall >= old_recall
        assert report.tenancies_added > 0

    def test_merge_preserves_link_validity(self, built_map, sparse_built):
        from repro.transport.network import canonical_edge

        merged, _ = merge_maps(sparse_built, built_map)
        for link in list(merged.links.values())[:200]:
            for (a, b), cid in zip(
                zip(link.city_path, link.city_path[1:]), link.conduit_ids
            ):
                assert merged.conduit(cid).edge == canonical_edge(a, b)

    def test_fidelity_gain_bounds(self, scenario, sparse_built, built_map):
        old_recall, new_recall = fidelity_gain(
            scenario.ground_truth.fiber_map, sparse_built, built_map
        )
        assert 0.0 <= old_recall <= 1.0
        assert 0.0 <= new_recall <= 1.0


class TestEvolution:
    @pytest.fixture(scope="class")
    def growth(self, scenario):
        from repro.fibermap.evolution import simulate_growth

        return simulate_growth(scenario.ground_truth, years=2, seed=5)

    def test_snapshot_count(self, growth):
        assert len(growth.snapshots) == 3
        assert [s.year for s in growth.snapshots] == [0, 1, 2]

    def test_links_grow(self, growth):
        links = [s.stats.num_links for s in growth.snapshots]
        assert links == sorted(links)
        assert links[-1] > links[0]

    def test_sharing_monotone(self, growth):
        means = [s.mean_tenancy for s in growth.snapshots]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))

    def test_input_not_mutated(self, scenario):
        from repro.fibermap.evolution import simulate_growth

        truth = scenario.ground_truth.fiber_map
        before = fiber_map_digest(truth)
        simulate_growth(scenario.ground_truth, years=2, seed=5)
        assert fiber_map_digest(truth) == before
        assert truth.stats().num_links == 2411

    def test_reuse_dominates(self, growth):
        assert growth.reuse_fraction > 0.5

    def test_validation(self, scenario):
        from repro.fibermap.evolution import simulate_growth

        with pytest.raises(ValueError):
            simulate_growth(scenario.ground_truth, years=0)
        with pytest.raises(ValueError):
            simulate_growth(
                scenario.ground_truth, years=1, annual_link_growth=-0.1
            )

    def test_deterministic(self, scenario, growth):
        from repro.fibermap.evolution import simulate_growth

        again = simulate_growth(scenario.ground_truth, years=2, seed=5)
        assert [s.stats for s in again.snapshots] == [
            s.stats for s in growth.snapshots
        ]
