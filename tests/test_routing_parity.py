"""Parity suite: §6 routing, ground-truth routers, the ROW aligner, the
§4.3 overlay's conduit paths and the Figure 1 connectivity summary on
the compiled graph core vs the NetworkX references they replaced.

The references (``tests/oracles/routing.py``,
``tests/oracles/synthesis.py``, ``tests/oracles/overlay.py`` and
``tests/oracles/fibermap.py``) are the pre-port implementations moved
verbatim; every comparison here is exact equality, on both map families
and on randomized fiber maps.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from repro.analysis.connectivity import connectivity_report, hop_components
from repro.cli import main
from repro.data.cities import CITIES
from repro.data.isps import ISPS
from repro.families.global2023 import synthesize_global_ground_truth
from repro.fibermap.augment import RowAligner
from repro.fibermap.pipeline import MapConstructionPipeline
from repro.fibermap.synthesis import US_RULES, _IspRouter, synthesize_ground_truth
from repro.perf.substrate import row_view, substrate_for
from repro.routing.backup import plan_backup
from repro.routing.opacity import check_pair
from repro.routing.pareto import pareto_paths
from repro.traceroute.overlay import TrafficOverlay
from repro.transport.network import TransportationNetwork
from tests.oracles.fibermap import (
    connectivity_reference,
    hub_order_reference,
    simple_conduit_graph,
)
from tests.oracles.overlay import NetworkXConduitPaths, conduit_paths
from tests.oracles.routing import (
    check_pair_reference,
    conduit_graph_path_reference,
    pareto_paths_reference,
    plan_backup_reference,
)
from tests.oracles.synthesis import RowAlignerReference, reference_router
from tests.test_golden_hashes import fiber_map_digest
from tests.test_substrate import SEEDS, _random_fiber_map


def _sample_pairs(fiber_map, rng, count):
    """Link endpoints (connected pairs) plus random city pairs (some
    outside a provider's footprint)."""
    cities = sorted(fiber_map.nodes)
    pairs = sorted({l.endpoints for l in fiber_map.links.values()})
    pairs = rng.sample(pairs, min(count, len(pairs)))
    for _ in range(count):
        pairs.append(tuple(rng.sample(cities, 2)))
    return pairs


@pytest.fixture(params=["us2015", "global2023", *SEEDS])
def fiber_map(request):
    """Each family's constructed map, then randomized fiber maps."""
    if request.param == "us2015":
        return request.getfixturevalue("scenario").constructed_map
    if request.param == "global2023":
        return request.getfixturevalue("global_scenario").constructed_map
    return _random_fiber_map(request.param)


class TestSection6Parity:
    def test_backup_plans(self, fiber_map):
        rng = random.Random(5)
        pairs = _sample_pairs(fiber_map, rng, 12)
        ours = [
            plan_backup(fiber_map, isp, a, b)
            for isp in fiber_map.isps()
            for a, b in pairs
        ]
        reference = [
            plan_backup_reference(fiber_map, isp, a, b)
            for isp in fiber_map.isps()
            for a, b in pairs
        ]
        assert ours == reference
        assert any(p is not None and p.protected for p in ours)

    def test_opacity_cases(self, fiber_map):
        rng = random.Random(6)
        pairs = _sample_pairs(fiber_map, rng, 10)
        isps = sorted(fiber_map.isps())[:4]
        ours, reference = [], []
        for i, isp_a in enumerate(isps):
            for isp_b in isps[i + 1:]:
                for a, b in pairs:
                    ours.append(check_pair(fiber_map, a, b, isp_a, isp_b))
                    reference.append(
                        check_pair_reference(fiber_map, a, b, isp_a, isp_b)
                    )
        assert ours == reference
        assert any(case is not None for case in ours)

    def test_pareto_frontiers(self, fiber_map):
        rng = random.Random(7)
        pairs = _sample_pairs(fiber_map, rng, 8)
        for isp in [None, *sorted(fiber_map.isps())[:3]]:
            ours = [pareto_paths(fiber_map, a, b, isp) for a, b in pairs]
            reference = [
                pareto_paths_reference(fiber_map, a, b, isp)
                for a, b in pairs
            ]
            assert ours == reference

    def test_conduit_graph_walk(self, fiber_map):
        """The walk of the Title II entrants, NSFNET and phantom ISPs."""
        cs = substrate_for(fiber_map)
        view = cs.conduit_view()
        for a, b in _sample_pairs(fiber_map, random.Random(8), 15):
            path = view.shortest_path(a, b, "length_km")
            reference = conduit_graph_path_reference(fiber_map, a, b)
            if path is None:
                assert reference is None
                continue
            ref_path, ref_conduits, ref_km = reference
            assert [view.nodes[i] for i in path] == ref_path
            assert list(cs.path_conduits(view, path)) == ref_conduits
            assert view.path_length(path, "length_km") == ref_km


class TestConduitViewParity:
    """The overlay's cores and the Figure 1 summaries read substrate
    views; the NetworkX conduit graphs they were built on agree."""

    def test_overlay_paths_match_networkx_cores(self, fiber_map):
        # Sampled: every ordered pair on both families takes ~30 s.
        rng = random.Random(11)
        overlay = TrafficOverlay(
            fiber_map, SimpleNamespace(providers=list), None
        )
        reference = NetworkXConduitPaths(fiber_map)
        cities = sorted(fiber_map.nodes)
        segments = []
        for isp in [*fiber_map.isps(), "Unmapped"]:
            own = sorted({l.endpoints for l in fiber_map.links_of(isp)})
            pairs = rng.sample(own, min(6, len(own))) + [
                tuple(rng.sample(cities, 2)) for _ in range(6)
            ]
            segments += [(isp, a, b) for a, b in pairs]
            segments += [(isp, b, a) for a, b in pairs]
        ours = conduit_paths(overlay, segments)
        assert ours == [reference.conduit_path(*s) for s in segments]
        assert sum(path is not None for path in ours) > len(ours) // 2

    def test_connectivity_report(self, fiber_map, monkeypatch):
        if fiber_map.nodes.keys().isdisjoint(c.key for c in CITIES):
            # Randomized maps name their own cities, which lie in no
            # census region.
            monkeypatch.setattr(
                "repro.analysis.connectivity.region_of", lambda key: "other"
            )
        report = connectivity_report(fiber_map)
        connected, diameter, components = connectivity_reference(fiber_map)
        assert (report.connected, report.diameter_hops) == (connected, diameter)
        conduits = substrate_for(fiber_map)
        assert hop_components(conduits.conduit_view()) == (components, diameter)
        degrees = hub_order_reference(fiber_map)
        # Same cities, degrees and order: the Figure 1 hub marks keep it
        # on ties.
        assert conduits.conduit_degrees() == degrees
        assert report.top_hubs == tuple(
            sorted(degrees, key=lambda kv: (-kv[1], kv[0]))[:10]
        )
        assert report.spurs == tuple(sorted(c for c, d in degrees if d == 1))

    def test_footprint_components(self, fiber_map):
        """Per-provider views: split footprints and cities with no edge
        in the view."""
        conduits = substrate_for(fiber_map)
        for isp in fiber_map.isps():
            graph = simple_conduit_graph(fiber_map, isp)
            parts = list(nx.connected_components(graph))
            expected = (
                len(parts),
                max((nx.diameter(graph.subgraph(p)) for p in parts), default=0),
            )
            assert hop_components(conduits.tenant_view(isp)) == expected


class TestIdenticalEndpoints:
    def test_pareto_rejects(self, scenario):
        with pytest.raises(ValueError, match="identical endpoints"):
            pareto_paths(scenario.constructed_map, "Denver, CO", "Denver, CO")

    def test_backup_rejects(self, scenario):
        with pytest.raises(ValueError, match="identical endpoints"):
            plan_backup(
                scenario.constructed_map, "Level 3", "Denver, CO", "Denver, CO"
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["pareto", "Denver, CO", "Denver, CO"],
            ["backup", "Level 3", "Denver, CO", "Denver, CO"],
        ],
    )
    def test_cli_reports_and_exits_2(self, argv, capsys):
        assert main(["--traces", "100", *argv]) == 2
        captured = capsys.readouterr()
        assert "identical endpoints: Denver, CO" in captured.err
        assert captured.out == ""


def _routers(family_scenario):
    """(port, reference) routers for the scenario's family: the one
    ``_IspRouter`` under the family's rules against its own oracle."""
    network = family_scenario.network
    truth = family_scenario.ground_truth
    conduit_edges = {c.edge for c in truth.fiber_map.conduits.values()}
    profiles = truth.profiles[:4] + truth.profiles[-2:]
    for profile in profiles:
        yield (
            _IspRouter(profile, network, conduit_edges, truth.rules),
            reference_router(profile, network, conduit_edges, truth.rules),
        )


class TestRouterParity:
    def test_routes_after_mark_used(self, family_scenario):
        cities = family_scenario.network.cities()
        for ours, reference in _routers(family_scenario):
            rng = random.Random(11)
            for _ in range(40):
                a, b = rng.sample(cities, 2)
                path = ours.route(a, b)
                assert path == reference.route(a, b)
                ours.mark_used(path)
                reference.mark_used(path)
            # The patched solver matrix equals the rebuilt one.
            patched = ours.view._solver_matrix("w", None)
            ours.view._structs.clear()
            rebuilt = ours.view._solver_matrix("w", None)
            assert np.array_equal(patched.toarray(), rebuilt.toarray())

    def test_weights_equal_the_oracle_base(self, family_scenario):
        """The array-built pre-herd weights, herd discount included,
        equal the oracle's scalar loop on every edge and profile."""
        network = family_scenario.network
        truth = family_scenario.ground_truth
        every_edge = {record.edge for record in network.edges()}
        conduit_edges = {c.edge for c in truth.fiber_map.conduits.values()}
        for edges_with_conduits in (set(), conduit_edges, every_edge):
            for profile in truth.profiles:
                ours = _IspRouter(
                    profile, network, edges_with_conduits, truth.rules
                )
                reference = reference_router(
                    profile, network, edges_with_conduits, truth.rules
                )
                weights = ours.view.weights["w"]
                assert len(reference._base) == ours.view.num_edges
                for edge, weight in reference._base.items():
                    assert weights[ours.view.edge_index(*edge)] == weight, (
                        profile.name, edge,
                    )

    def test_unreachable_raises(self):
        router = _IspRouter(ISPS[0], TransportationNetwork(), set(), US_RULES)
        with pytest.raises(ValueError, match="no right-of-way path"):
            router.route("Denver, CO", "Chicago, IL")

    def test_whole_synthesis(self, family_scenario, monkeypatch):
        monkeypatch.setattr(
            "repro.fibermap.synthesis._IspRouter", reference_router
        )
        if family_scenario.config.family == "global2023":
            truth = synthesize_global_ground_truth(family_scenario.config.seed)
        else:
            truth = synthesize_ground_truth(
                family_scenario.config.seed, network=family_scenario.network
            )
        assert fiber_map_digest(truth.fiber_map) == fiber_map_digest(
            family_scenario.ground_truth.fiber_map
        )


class TestAlignerParity:
    def test_candidate_paths(self, family_scenario):
        network = family_scenario.network
        corpus = family_scenario.records
        constructed = family_scenario.constructed_map
        ours = RowAligner(network, corpus)
        reference = RowAlignerReference(network, corpus)
        rng = random.Random(13)
        cities = network.cities()
        isps = sorted(constructed.isps())
        for _ in range(60):
            isp = rng.choice(isps)
            a, b = rng.sample(cities, 2)
            k = rng.choice((1, 3, 5))
            assert ours.candidate_paths(
                isp, a, b, constructed, k
            ) == reference.candidate_paths(isp, a, b, constructed, k)

    def test_whole_construction(self, family_scenario, monkeypatch):
        monkeypatch.setattr(
            "repro.fibermap.pipeline.RowAligner", RowAlignerReference
        )
        fiber_map, _report = MapConstructionPipeline(
            family_scenario.ground_truth,
            provider_maps=family_scenario.provider_maps,
            corpus=family_scenario.records,
        ).run()
        assert fiber_map_digest(fiber_map) == fiber_map_digest(
            family_scenario.constructed_map
        )

    def test_row_view_is_shared_not_edited(self, scenario):
        """Routers and aligners weight and patch clones, never the memo."""
        view = row_view(scenario.network)
        before = {k: v.copy() for k, v in view.weights.items()}
        RowAligner(scenario.network, scenario.records).best_path(
            "AT&T", "Denver, CO", "Chicago, IL"
        )
        router = _IspRouter(ISPS[0], scenario.network, set(), US_RULES)
        router.mark_used(router.route("Denver, CO", "Chicago, IL"))
        assert set(view.weights) == set(before) == {"length_km"}
        assert np.array_equal(view.weights["length_km"], before["length_km"])
