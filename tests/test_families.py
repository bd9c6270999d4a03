"""Map-family registry behavior: lookup, gating, the global family.

Covers the registry contract (unknown names, duplicate registration),
the ``ScenarioConfig``/``load_scenario``/``us2015`` family plumbing,
experiment gating via :class:`UnsupportedExperimentError`, the sweep
grid's ``family`` axis, and an end-to-end build of the ``global2023``
submarine-cable family on a small campaign.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.runner import (
    EXPERIMENTS,
    UnsupportedExperimentError,
    run_experiment,
)
from repro.families import (
    DEFAULT_FAMILY,
    MapFamily,
    UnknownFamilyError,
    family_names,
    get_family,
    register_family,
)
from repro.scenario import ScenarioConfig, load_scenario, us2015
from repro.sweep.grid import (
    AXIS_ORDER,
    SweepCell,
    UnknownAxisError,
    expand_grid,
    parse_grid,
)
from repro.sweep.summary import SweepSummary

class TestRegistry:
    def test_known_families(self):
        names = family_names()
        assert names == sorted(names)
        assert "us2015" in names and "global2023" in names

    def test_get_family_unknown(self):
        with pytest.raises(UnknownFamilyError) as excinfo:
            get_family("atlantis1999")
        assert excinfo.value.family == "atlantis1999"
        assert "us2015" in excinfo.value.known

    def test_duplicate_registration_rejected(self):
        duplicate = MapFamily(
            name=DEFAULT_FAMILY,
            title="imposter",
            description="",
            geographic_model="none",
            risk_semantics="none",
            synthesize=lambda seed: None,
        )
        with pytest.raises(ValueError):
            register_family(duplicate)

    def test_default_family_declares_us_row_kinds(self):
        assert get_family(DEFAULT_FAMILY).row_kinds == (("road", "rail"),)

    def test_global_family_declares_sea_row_kinds(self):
        family = get_family("global2023")
        assert family.row_kinds == (("sea", "road"),)
        assert family.default_seed == 2023


class TestScenarioPlumbing:
    def test_config_rejects_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            ScenarioConfig(seed=1, campaign_traces=10, family="nope")

    def test_load_scenario_uses_family_default_seed(self):
        scenario = load_scenario("global2023", campaign_traces=10)
        assert scenario.config.seed == 2023
        assert scenario.config.family == "global2023"

    def test_us2015_rejects_foreign_config(self):
        config = ScenarioConfig(
            seed=2023, campaign_traces=10, family="global2023"
        )
        with pytest.raises(ValueError):
            us2015(config=config)

    def test_supported_experiments_subset(self):
        family = get_family("global2023")
        supported = family.supported_experiments(EXPERIMENTS)
        assert set(supported) < set(EXPERIMENTS)
        assert "table1" in supported and "fig2_3" not in supported
        assert get_family(DEFAULT_FAMILY).supported_experiments(
            EXPERIMENTS
        ) == sorted(EXPERIMENTS)


class TestGlobalFamilyEndToEnd:
    def test_constructed_map_is_submarine(self, global_scenario):
        fiber_map = global_scenario.constructed_map
        # row_id encodes the right-of-way kind: "{kind}:{corridor}:{edge}"
        kinds = {
            c.row_id.split(":", 1)[0]
            for c in fiber_map.conduits.values()
        }
        assert "sea" in kinds
        assert fiber_map.stats().num_links > 0

    def test_risk_matrix_has_shared_trenches(self, global_scenario):
        matrix = global_scenario.risk_matrix
        assert len(matrix.isps) > 0
        # Chokepoint semantics: at least one conduit is shared by
        # several ISPs (the Suez/Malacca-style trench concentration).
        assert matrix.values.sum(axis=0).max() >= 3

    def test_supported_experiment_runs(self, global_scenario):
        result = run_experiment("table1", global_scenario)
        assert result.text

    def test_row_constrained_latency_experiment(self, global_scenario):
        # fig12 exercises the family's row_kinds through latency_study.
        result = run_experiment("fig12", global_scenario)
        assert result.text

    def test_unsupported_experiment_raises(self, global_scenario):
        with pytest.raises(UnsupportedExperimentError) as excinfo:
            run_experiment("fig2_3", global_scenario)
        err = excinfo.value
        assert err.experiment_id == "fig2_3"
        assert err.family == "global2023"
        assert "table1" in err.supported

    def test_cli_partition_gated(self, capsys):
        """The west-east partition study uses US longitude anchors, so a
        family without ``ext_partition`` gets the gating error, not a
        cut of the wrong map."""
        assert main(["--family", "global2023", "partition"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == str(UnsupportedExperimentError(
            "ext_partition", "global2023",
            get_family("global2023").supported_experiments(EXPERIMENTS),
        ))


class TestSweepFamilyAxis:
    def test_parse_grid_family_axis(self):
        axes = parse_grid(["family=us2015,global2023", "seed=1,2"])
        assert axes["family"] == ["us2015", "global2023"]

    def test_parse_grid_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            parse_grid(["family=atlantis1999"])

    def test_parse_grid_unknown_axis(self):
        with pytest.raises(UnknownAxisError) as excinfo:
            parse_grid(["sed=2015"])
        assert excinfo.value.axis == "sed"
        assert excinfo.value.valid_axes == AXIS_ORDER

    def test_expand_grid_unknown_axis(self):
        with pytest.raises(UnknownAxisError):
            expand_grid({"seed": [1], "phase": ["x"]})

    def test_expand_grid_family_cartesian(self):
        cells = expand_grid(
            {"seed": [1, 2], "family": ["us2015", "global2023"]}
        )
        assert [(c.seed, c.family) for c in cells] == [
            (1, "us2015"), (1, "global2023"),
            (2, "us2015"), (2, "global2023"),
        ]

    def test_cell_label_prefixes_non_default_family(self):
        assert SweepCell(seed=1).label.startswith("seed=1 ")
        assert SweepCell(seed=1, family="global2023").label.startswith(
            "global2023 seed=1 "
        )

    @staticmethod
    def _fake_cell(family, seed, srr):
        return {
            "cell": SweepCell(seed=seed, family=family).to_dict(),
            "ok": True,
            "metrics": {"srr_avg": srr, "gains": {}, "sharing": {}},
            "cache": {"hits": 0, "misses": 0},
            "duration_s": 0.1,
        }

    def test_summary_dedups_per_family_and_seed(self):
        summary = SweepSummary()
        summary.add(self._fake_cell("us2015", 1, 7.0))
        summary.add(self._fake_cell("global2023", 1, 1.0))
        summary.add(self._fake_cell("us2015", 1, 9.0))  # duplicate key
        aggregates = summary.aggregates()
        assert aggregates["families"] == 2
        assert aggregates["srr"]["n"] == 2
        assert aggregates["srr"]["min"] == 1.0
        assert summary.columns["family"] == [
            "us2015", "global2023", "us2015"
        ]
