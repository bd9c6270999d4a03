"""Family-registry golden regression suite.

The map-family refactor rerouted every ``us2015`` build through the
:mod:`repro.families` registry: ``ScenarioConfig`` gained a ``family``
field, the stage table is produced per-family, and the experiment
runner gates on family support.  These tests prove the reroute is
byte-identical for the default family by pinning pre-refactor digests
of the key artifacts *and* of rendered experiment text — recorded
against the direct (pre-registry) implementation for the shared test
configuration (seed 2015, 3000 traces) — against the family-registry
path every artifact now takes.

Artifact digests reuse the canonical renderers from
:mod:`tests.test_golden_hashes`; experiment digests hash the formatted
``result.text``, which transitively covers the constructed map, the
risk matrix, the routing substrate, and the §5 mitigation pipeline.
"""

from __future__ import annotations

import pytest

from repro.analysis.geography import geography_report
from repro.analysis.report import format_table
from repro.experiments.runner import run_experiment
from repro.families import (
    DEFAULT_FAMILY, build_stage_table, family_names, get_family,
)
from repro.scenario import (
    Scenario, ScenarioConfig, build_stage_graph, load_scenario, us2015,
)

from tests.test_golden_hashes import (
    GOLDEN,
    _digest,
    fiber_map_digest,
    ground_truth_digest,
    risk_matrix_digest,
)

#: Pre-refactor text digests (sha256 of ``result.text``, first 16 hex)
#: for the shared test scenario: seed 2015, campaign_traces 3000.
GOLDEN_TEXT = {
    # §3 buffer overlap, pinned before the overlap kernel was compiled
    # into arrays and the report memoized per map.
    "fig4": "1222c652bbc37b91",
    "fig5": "926f3e8459cfaa53",
    "fig10": "2312bd799ca474ef",
    "fig11": "b05e4bb1830d3348",
    "fig12": "48d2cadb441d69f0",
    # Pinned before the §6 / policy / NSFNET / growth studies moved off
    # per-call NetworkX graphs onto the compiled graph core.
    "ext_protection": "b8ef1fdfc56a95bc",
    "ext_opacity": "b76d9ea347512bf4",
    "ext_policy": "00b7122a8bfdef23",
    "ext_nsfnet": "02d330dcc6306efb",
    "ext_growth": "3e461f1c96397f88",
}

#: The buffer-width ablation (Figure 4 sensitivity) at the §3 defaults.
ABLATION_BUFFER = """\
Ablation: buffer width vs mean co-location fraction
buffer  road  rail  road|rail  road>rail
----------------------------------------
5 km    0.95  0.37  1.00       78%      
15 km   0.98  0.50  1.00       66%      
30 km   0.99  0.60  1.00       59%      """

#: The global2023 session scenario (seed 2023, 400 traces): artifact
#: digests and experiment text digests, pinned before the cable router
#: and the ROW aligner moved onto the compiled graph core.
GLOBAL_GOLDEN = {
    "ground_truth": "e738f0b551ba5bf6",
    "constructed_map": "28ff3659da60a2eb",
    "ext_protection": "f9312c9b023d0e97",
    "ext_opacity": "8c6776cfe0c908d4",
}


class TestRegistryPathArtifacts:
    """The session scenario builds through the registry — same bytes."""

    def test_scenario_resolves_default_family(self, scenario):
        assert scenario.config.family == DEFAULT_FAMILY
        assert scenario.family is get_family(DEFAULT_FAMILY)

    def test_constructed_map_digest(self, scenario):
        assert fiber_map_digest(scenario.constructed_map) == (
            GOLDEN["constructed_map"]
        )

    def test_risk_matrix_digest(self, scenario):
        assert risk_matrix_digest(scenario.risk_matrix) == (
            GOLDEN["risk_matrix"]
        )


class TestExperimentTextGoldens:
    """Rendered experiment text through the family-gated runner."""

    @pytest.mark.parametrize("experiment", ["fig4", "fig5"])
    def test_geography_text(self, scenario, experiment):
        result = run_experiment(experiment, scenario)
        assert _digest(result.text) == GOLDEN_TEXT[experiment]

    def test_ablation_buffer_table(self, scenario):
        rows = []
        for buffer_km in (5.0, 15.0, 30.0):
            report = geography_report(
                scenario.constructed_map, scenario.network, buffer_km=buffer_km
            )
            rows.append((
                f"{buffer_km:.0f} km",
                f"{report.mean_fraction('road'):.2f}",
                f"{report.mean_fraction('rail'):.2f}",
                f"{report.mean_fraction('road_or_rail'):.2f}",
                f"{report.road_beats_rail_fraction:.0%}",
            ))
        text = format_table(
            ("buffer", "road", "rail", "road|rail", "road>rail"),
            rows,
            title="Ablation: buffer width vs mean co-location fraction",
        )
        assert text == ABLATION_BUFFER

    def test_fig10_text(self, scenario):
        result = run_experiment("fig10", scenario)
        assert _digest(result.text) == GOLDEN_TEXT["fig10"]

    def test_fig11_text(self, scenario):
        result = run_experiment("fig11", scenario)
        assert _digest(result.text) == GOLDEN_TEXT["fig11"]

    def test_fig12_text(self, scenario):
        result = run_experiment("fig12", scenario)
        assert _digest(result.text) == GOLDEN_TEXT["fig12"]


    @pytest.mark.parametrize(
        "experiment",
        ["ext_protection", "ext_opacity", "ext_policy", "ext_nsfnet",
         "ext_growth"],
    )
    def test_extension_text(self, scenario, experiment):
        result = run_experiment(experiment, scenario)
        assert _digest(result.text) == GOLDEN_TEXT[experiment]


class TestGlobalFamilyGoldens:
    """global2023: the cable router, the aligner and the §6 studies."""

    def test_ground_truth_digest(self, global_scenario):
        assert ground_truth_digest(global_scenario.ground_truth) == (
            GLOBAL_GOLDEN["ground_truth"]
        )

    def test_constructed_map_digest(self, global_scenario):
        assert fiber_map_digest(global_scenario.constructed_map) == (
            GLOBAL_GOLDEN["constructed_map"]
        )

    @pytest.mark.parametrize("experiment", ["ext_protection", "ext_opacity"])
    def test_extension_text(self, global_scenario, experiment):
        result = run_experiment(experiment, global_scenario)
        assert _digest(result.text) == GLOBAL_GOLDEN[experiment]


class TestAliasEquivalence:
    """``us2015()`` and ``load_scenario()`` share one memoized path."""

    def test_stage_table_matches_family(self):
        # Every family's graph runs the one stage table.
        table = build_stage_table()
        for family in family_names():
            graph = build_stage_graph(ScenarioConfig(family=family))
            assert tuple(graph.stage(n) for n in graph.names()) == table

    def test_us2015_is_load_scenario_default(self):
        config = ScenarioConfig(seed=2015, campaign_traces=50)
        assert us2015(config=config) is load_scenario(config=config)


#: §4.3 traffic overlay pins (``PYTHONHASHSEED=0``; the campaign's
#: router paths tie-break on set order, so the overlay of a randomized
#: interpreter varies): perfbench's ``overlay_digest`` formula, the
#: ``traffic()`` key order, and the overlay-driven experiment texts.
#: Recorded against the per-hop ingest loop before the vectorized pass
#: replaced it.
OVERLAY_GOLDEN = {
    "us2015.overlay": "2c6b2a540c50d666",
    "us2015.order": "0f4cd88b3646563f",
    "us2015.table2_3": "b58869cae61c3513",
    "us2015.table4": "85bb0d0c8f077471",
    "us2015.fig9": "0d4d3607091fb2f8",
    "global2023.overlay": "367d289055965a91",
    "global2023.order": "2cfdf2b2d62f1143",
}


def overlay_pins() -> dict:
    """Every ``OVERLAY_GOLDEN`` value for the two session scenarios."""
    import json

    from tests.conftest import GLOBAL_TEST_TRACES, TEST_CAMPAIGN_TRACES

    scenarios = {
        "us2015": Scenario(seed=2015, campaign_traces=TEST_CAMPAIGN_TRACES),
        "global2023": Scenario(config=ScenarioConfig(
            seed=2023, campaign_traces=GLOBAL_TEST_TRACES,
            family="global2023",
        )),
    }
    pins = {}
    for family, scenario in scenarios.items():
        overlay = scenario.overlay
        rows = sorted(
            (cid, t.west_to_east, t.east_to_west, sorted(t.observed_isps))
            for cid, t in overlay.traffic().items()
        )
        counters = [overlay.traces_processed, overlay.hops_unresolved, rows]
        pins[f"{family}.overlay"] = _digest(json.dumps(counters))
        pins[f"{family}.order"] = _digest(json.dumps(list(overlay.traffic())))
    for experiment in ("table2_3", "table4", "fig9"):
        text = run_experiment(experiment, scenarios["us2015"]).text
        pins[f"us2015.{experiment}"] = _digest(text)
    return pins


class TestOverlayGoldens:
    """The overlay and its tables, in a hash-pinned child interpreter."""

    @pytest.fixture(scope="class")
    def pins(self):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONHASHSEED="0", REPRO_CACHE="0")
        env.pop("REPRO_CACHE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c",
             "import json; from tests.test_family_goldens import "
             "overlay_pins; print(json.dumps(overlay_pins()))"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    @pytest.mark.parametrize("name", sorted(OVERLAY_GOLDEN))
    def test_pin(self, pins, name):
        assert pins[name] == OVERLAY_GOLDEN[name]
