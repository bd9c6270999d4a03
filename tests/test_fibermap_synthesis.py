"""Tests for ground-truth synthesis: determinism, calibration, validity."""

import pytest

from repro.data.isps import ISPS, isp_by_name
from repro.fibermap.synthesis import synthesize_ground_truth
from repro.transport.network import canonical_edge


class TestCalibration:
    def test_per_isp_link_counts_match_targets(self, ground_truth):
        fiber_map = ground_truth.fiber_map
        for profile in ISPS:
            assert len(fiber_map.links_of(profile.name)) == profile.target_links

    def test_total_links_2411(self, ground_truth):
        assert ground_truth.fiber_map.stats().num_links == 2411

    def test_conduit_count_near_paper(self, ground_truth):
        # Paper: 542 conduits.  Shape target: within ~15%.
        n = ground_truth.fiber_map.stats().num_conduits
        assert 460 <= n <= 640

    def test_node_count_near_paper(self, ground_truth):
        # Paper: 273 nodes.
        n = ground_truth.fiber_map.stats().num_nodes
        assert 250 <= n <= 300

    def test_sharing_pervasive(self, ground_truth):
        conduits = ground_truth.fiber_map.conduits.values()
        shared2 = sum(1 for c in conduits if c.num_tenants >= 2)
        assert shared2 / len(list(conduits)) > 0.75

    def test_super_shared_tail_exists(self, ground_truth):
        counts = sorted(
            (c.num_tenants for c in ground_truth.fiber_map.conduits.values()),
            reverse=True,
        )
        # A dozen conduits carry most of the industry (paper: 12 > 17/20).
        assert counts[11] >= 13

    def test_unused_rows_remain(self, ground_truth):
        # §5.2 needs unused rights-of-way as candidates for new conduits.
        used = {c.edge for c in ground_truth.fiber_map.conduits.values()}
        total = {r.edge for r in ground_truth.network.edges()}
        assert len(total - used) > 50


class TestValidity:
    def test_links_follow_transport_edges(self, ground_truth):
        network = ground_truth.network
        for link in list(ground_truth.fiber_map.links.values())[:200]:
            for a, b in zip(link.city_path, link.city_path[1:]):
                assert network.has_edge(a, b)

    def test_link_conduits_match_path(self, ground_truth):
        fiber_map = ground_truth.fiber_map
        for link in list(fiber_map.links.values())[:200]:
            for (a, b), cid in zip(
                zip(link.city_path, link.city_path[1:]), link.conduit_ids
            ):
                assert fiber_map.conduit(cid).edge == canonical_edge(a, b)

    def test_isp_is_tenant_of_its_conduits(self, ground_truth):
        fiber_map = ground_truth.fiber_map
        for link in list(fiber_map.links.values())[:200]:
            for cid in link.conduit_ids:
                assert link.isp in fiber_map.conduit(cid).tenants

    def test_conduit_rows_unique(self, ground_truth):
        rows = [c.row_id for c in ground_truth.fiber_map.conduits.values()]
        assert len(set(rows)) == len(rows)

    def test_regional_style_respected(self, ground_truth):
        from repro.data.cities import city_by_name
        from repro.data.isps import STYLE_STATES

        profile = isp_by_name("Suddenlink")
        states = set(STYLE_STATES[profile.style])
        endpoints = {
            e
            for link in ground_truth.fiber_map.links_of("Suddenlink")
            for e in link.endpoints
        }
        for key in endpoints:
            assert city_by_name(key).state in states


class TestDeterminism:
    def test_same_seed_same_map(self, ground_truth):
        other = synthesize_ground_truth(2015, network=ground_truth.network)
        assert other.fiber_map.stats() == ground_truth.fiber_map.stats()
        assert other.fiber_map.tenancy() == ground_truth.fiber_map.tenancy()

    def test_different_seed_different_map(self, ground_truth):
        other = synthesize_ground_truth(7, network=ground_truth.network)
        assert other.fiber_map.tenancy() != ground_truth.fiber_map.tenancy()


class TestCustomProfiles:
    def test_subset_of_profiles(self, network):
        subset = tuple(p for p in ISPS if p.name in ("AT&T", "Level 3"))
        gt = synthesize_ground_truth(1, network=network, profiles=subset)
        assert gt.fiber_map.isps() == ["AT&T", "Level 3"]
        assert gt.fiber_map.stats().num_links == sum(
            p.target_links for p in subset
        )
