"""Tests for ground-truth synthesis: determinism, calibration, validity."""

import random
from dataclasses import replace

import pytest

from repro.data.isps import ISPS
from repro.fibermap.elements import FiberMap
from repro.fibermap.synthesis import (
    US_RULES,
    _occupy_edge,
    synthesize_ground_truth,
)
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
                assert network.edge(a, b).edge == canonical_edge(a, b)

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

        profile = next(p for p in ISPS if p.name == "Suddenlink")
        states = set(STYLE_STATES[profile.style])
        endpoints = {
            e
            for link in ground_truth.fiber_map.links_of("Suddenlink")
            for e in link.endpoints
        }
        for key in endpoints:
            assert city_by_name(key).state in states


class TestOccupyEdge:
    """``_occupy_edge`` on a hand-built edge whose conduits are all
    crowded, with every edge splittable (``parallel_prob=1.0``) and a
    spare right-of-way in the registry.  No sampled seed re-crowds an
    edge that already holds ``max_parallel`` conduits, so only this case
    pins the cap."""

    RULES = replace(US_RULES, parallel_prob=1.0)

    def _crowded(self, ground_truth, conduits):
        """A map holding *conduits* crowded conduits on an edge with a
        spare right-of-way; the first conduit is the least loaded."""
        registry = ground_truth.registry
        edge = next(
            row.edge
            for row in registry.rows()
            if len(registry.rows_for_edge(*row.edge)) > self.RULES.max_parallel
        )
        fiber_map = FiberMap()
        used_row_ids = set()
        for k, row in enumerate(registry.rows_for_edge(*edge)[:conduits]):
            conduit = fiber_map.add_conduit(
                edge[0], edge[1], row.row_id, registry.geometry(row.row_id)
            )
            for t in range(self.RULES.parallel_threshold + k):
                fiber_map.add_tenant(conduit.conduit_id, f"Tenant-{k}-{t}")
            used_row_ids.add(row.row_id)
        return fiber_map, registry, edge, used_row_ids

    def _occupy(self, fiber_map, registry, edge, used_row_ids):
        return _occupy_edge(
            fiber_map, registry, edge, "Entrant", used_row_ids,
            random.Random(7), self.RULES,
        )

    def test_full_edge_leases_the_least_loaded_conduit(self, ground_truth):
        full = self.RULES.max_parallel
        fiber_map, registry, edge, used_row_ids = self._crowded(ground_truth, full)
        least_loaded = fiber_map.conduits_between(*edge)[0]
        conduit = self._occupy(fiber_map, registry, edge, used_row_ids)
        assert conduit is least_loaded
        assert len(fiber_map.conduits_between(*edge)) == full

    def test_edge_with_room_trenches_a_parallel_conduit(self, ground_truth):
        fiber_map, registry, edge, used_row_ids = self._crowded(
            ground_truth, self.RULES.max_parallel - 1
        )
        before = set(used_row_ids)
        conduit = self._occupy(fiber_map, registry, edge, used_row_ids)
        assert conduit.row_id not in before
        assert len(fiber_map.conduits_between(*edge)) == self.RULES.max_parallel


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
