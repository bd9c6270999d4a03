"""Integration tests: every experiment runs and matches the paper's shape."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, ExperimentResult, run_all, run_experiment
from repro.experiments import fig4, fig6, fig7, fig10, fig11, fig12, table1, table4

PAPER_IDS = (
    "table1", "fig1", "fig2_3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "table2_3", "fig9", "table4", "fig10", "table5", "fig11", "fig12",
)
EXT_IDS = (
    "ext_resilience", "ext_partition", "ext_policy", "ext_exchange",
    "ext_protection", "ext_annotated", "ext_nsfnet", "ext_opacity",
    "ext_capacity", "ext_growth",
)
ALL_IDS = PAPER_IDS + EXT_IDS

ROOT = Path(__file__).resolve().parents[1]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == set(ALL_IDS)

    def test_extension_flag(self):
        for experiment_id in PAPER_IDS:
            assert not EXPERIMENTS[experiment_id].extension
        for experiment_id in EXT_IDS:
            assert EXPERIMENTS[experiment_id].extension

    def test_experiment_metadata(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.title
            assert callable(experiment.run)
            assert callable(experiment.format_result)

    def test_unknown_experiment(self, scenario):
        with pytest.raises(KeyError):
            run_experiment("fig99", scenario)

    def test_every_experiment_is_timed_and_pinned_by_perfbench(
        self, monkeypatch
    ):
        # perfbench is the only place experiments are timed; it is not a
        # package, so its spec is loaded by path (registered while it
        # executes, as its dataclasses look their module up).
        module_spec = importlib.util.spec_from_file_location(
            "perfbench_spec", ROOT / "perfbench" / "spec.py"
        )
        bench_spec = importlib.util.module_from_spec(module_spec)
        monkeypatch.setitem(sys.modules, module_spec.name, bench_spec)
        module_spec.loader.exec_module(bench_spec)
        pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
        assert set(bench_spec.EXPERIMENT_IDS) == set(EXPERIMENTS)
        assert set(pins["experiments"]) == set(EXPERIMENTS)


def test_docs_name_only_existing_bench_scripts():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    docs += sorted((ROOT / "docs").glob("*.md"))
    pattern = re.compile(r"benchmarks/[^\s`'\"()]*?\.py\b")
    named = {
        (doc.name, path)
        for doc in docs
        for path in pattern.findall(doc.read_text(encoding="utf-8"))
        if not set(path) & set("*?[{<")  # a glob or template, not a file
    }
    assert named  # the scan finds the kept benches
    missing = sorted(
        (doc, path) for doc, path in named if not (ROOT / path).exists()
    )
    assert missing == []


class TestExperimentResult:
    def test_typed_result(self, scenario):
        result = run_experiment("table1", scenario)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "table1"
        assert result.title == EXPERIMENTS["table1"].title
        assert result.extension is False
        assert result.data.total_links == 1258
        assert "EarthLink" in result.text

    def test_to_json_round_trips(self, scenario):
        payload = run_experiment("table1", scenario).to_json()
        encoded = json.loads(json.dumps(payload))
        assert encoded["experiment_id"] == "table1"
        assert encoded["data"]["total_links"] == 1258

    def test_run_all_streams_in_id_order(self, scenario):
        stream = run_all(scenario, ids=["fig4", "table1"])
        first = next(stream)
        # A generator: results arrive one at a time, sorted by id.
        assert isinstance(first, ExperimentResult)
        assert first.experiment_id == "fig4"
        assert next(stream).experiment_id == "table1"
        with pytest.raises(StopIteration):
            next(stream)


@pytest.mark.parametrize("experiment_id", [
    i for i in ALL_IDS
    if i not in ("fig11", "ext_protection", "ext_opacity")  # heavy: reduced below
])
def test_experiment_runs_and_formats(experiment_id, scenario):
    text = run_experiment(experiment_id, scenario).text
    assert isinstance(text, str)
    assert len(text) > 40


def test_fig11_reduced(scenario):
    result = fig11.run(scenario, max_k=2, isps=["Tata", "Level 3", "Suddenlink"])
    text = fig11.format_result(result)
    assert "Tata" in text
    for r in result.results.values():
        assert len(r.risk_after) == 2


class TestPaperShapes:
    def test_table1_exact(self, scenario):
        result = table1.run(scenario)
        assert result.total_links == 1258
        by_isp = {r.isp: (r.num_nodes, r.num_links) for r in result.rows}
        assert by_isp["EarthLink"] == (248, 370)
        assert by_isp["Level 3"] == (240, 336)

    def test_fig4_road_dominates(self, scenario):
        result = fig4.run(scenario)
        assert result.mean_road > result.mean_rail
        assert result.mean_union >= result.mean_road

    def test_fig6_sharing_pervasive(self, scenario):
        result = fig6.run(scenario)
        assert result.fractions[2] > 0.75
        assert result.fractions[2] > result.fractions[3] > result.fractions[4]
        assert result.fractions[4] > 0.45
        assert result.top12_min_tenants >= 13

    def test_fig7_builders_low_lessees_high(self, scenario):
        result = fig7.run(scenario)
        order = [row.isp for row in result.rows]
        # The paper's qualitative extremes: EarthLink/Level 3 near the
        # bottom, foreign lessees near the top.
        assert order.index("Level 3") < 6
        assert order.index("EarthLink") < 6
        assert order.index("Deutsche Telekom") > 12
        assert order.index("NTT") > 10

    def test_table4_level3_first(self, scenario):
        result = table4.run(scenario)
        assert result.level3_rank == 1
        assert 0.0 < result.xo_to_level3_ratio < 1.0

    def test_fig10_modest_inflation(self, scenario):
        result = fig10.run(scenario)
        averages = [
            s.avg_pi for s in result.suggestions.values() if s.outcomes
        ]
        assert averages
        assert sum(averages) / len(averages) < 4.0
        srr = [s.avg_srr for s in result.suggestions.values() if s.outcomes]
        assert all(v > 0 for v in srr)

    def test_fig12_orderings(self, scenario):
        result = fig12.run(scenario, max_pairs=100)
        assert 0.5 <= result.fraction_best_is_row_best <= 1.0
        assert result.mean_avg_over_best > 1.0
        assert result.gap_p50_ms <= result.gap_p75_ms


def test_ext_protection_reduced(scenario):
    from repro.experiments import ext_protection

    result = ext_protection.run(scenario, max_pairs=20)
    text = ext_protection.format_result(result)
    assert "diverse" in text
    for row in result.rows:
        assert row.pairs == row.diverse + row.shared + row.unprotected


def test_ext_nsfnet_invariance(scenario):
    from repro.experiments import ext_nsfnet

    result = ext_nsfnet.run(scenario)
    # The paper's invariance claim: historical backbone corridors are
    # (much) more heavily shared than the average conduit.
    assert result.invariance_ratio > 1.2
    assert len(result.rows) >= 15


def test_ext_opacity_reduced(scenario):
    from repro.experiments import ext_opacity

    result = ext_opacity.run(scenario, max_pairs=6)
    study = result.study
    assert study.total > 0
    # The paper's claim: a substantial fraction of logically diverse
    # provider pairs secretly share trenches.
    assert study.deceived_fraction > 0.3
    for case in study.cases:
        assert case.logically_diverse
        assert case.physically_diverse == (not case.shared_groups)
    text = ext_opacity.format_result(result)
    assert "opaque" in text


def test_ext_growth_reduced(scenario):
    from repro.experiments import ext_growth

    result = ext_growth.run(scenario, years=2)
    growth = result.result
    assert len(growth.snapshots) == 3
    # Sharing only grows under the lease-friendly economics.
    means = [s.mean_tenancy for s in growth.snapshots]
    assert means[-1] >= means[0]
    # Most growth rides existing conduits.
    assert growth.reuse_fraction > 0.5
    assert "worsens" in ext_growth.format_result(result)
