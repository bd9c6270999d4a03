"""Parity suite: §6 routing, ground-truth routers and the ROW aligner on
the compiled graph core vs the NetworkX references they replaced.

The references (``tests/oracles/routing.py`` and
``tests/oracles/synthesis.py``) are the pre-port implementations moved
verbatim; every comparison here is exact equality, on both map families
and on randomized fiber maps.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cli import main
from repro.data.isps import ISPS
from repro.families.global2023 import (
    GLOBAL_ISPS,
    _CableRouter,
    synthesize_global_ground_truth,
)
from repro.fibermap.augment import RowAligner
from repro.fibermap.pipeline import MapConstructionPipeline
from repro.fibermap.synthesis import _IspRouter, synthesize_ground_truth
from repro.perf.substrate import row_view, substrate_for
from repro.routing.backup import plan_backup
from repro.routing.opacity import check_pair
from repro.routing.pareto import pareto_paths
from repro.transport.network import TransportationNetwork
from tests.oracles.routing import (
    check_pair_reference,
    conduit_graph_path_reference,
    pareto_paths_reference,
    plan_backup_reference,
)
from tests.oracles.synthesis import (
    CableRouterReference,
    IspRouterReference,
    RowAlignerReference,
)
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
    """(port, reference) router factories for the scenario's family."""
    network = family_scenario.network
    if family_scenario.config.family == "global2023":
        for profile in GLOBAL_ISPS[:4]:
            yield (
                _CableRouter(profile.name, network),
                CableRouterReference(profile.name, network),
            )
        return
    conduit_edges = {
        c.edge for c in family_scenario.ground_truth.fiber_map.conduits.values()
    }
    for profile in ISPS[:4] + ISPS[-2:]:
        yield (
            _IspRouter(profile, network, conduit_edges),
            IspRouterReference(profile, network, conduit_edges),
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

    def test_unreachable_raises(self):
        router = _IspRouter(ISPS[0], TransportationNetwork(), set())
        with pytest.raises(ValueError, match="no right-of-way path"):
            router.route("Denver, CO", "Chicago, IL")

    def test_whole_synthesis(self, family_scenario, monkeypatch):
        if family_scenario.config.family == "global2023":
            monkeypatch.setattr(
                "repro.families.global2023._CableRouter", CableRouterReference
            )
            truth = synthesize_global_ground_truth(family_scenario.config.seed)
        else:
            monkeypatch.setattr(
                "repro.fibermap.synthesis._IspRouter", IspRouterReference
            )
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
        router = _IspRouter(ISPS[0], scenario.network, set())
        router.mark_used(router.route("Denver, CO", "Chicago, IL"))
        assert set(view.weights) == set(before) == {"length_km"}
        assert np.array_equal(view.weights["length_km"], before["length_km"])
