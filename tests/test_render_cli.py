"""Tests for the ASCII renderer and the command-line interface."""

import json

import pytest

from repro.analysis.render import AsciiMap, render_fiber_map, render_transport
from repro.cli import _build_parser, main
from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.scenario import DEFAULT_CAMPAIGN_TRACES


class TestAsciiMap:
    def test_canvas_size_validation(self):
        with pytest.raises(ValueError):
            AsciiMap(width=5, height=3)

    def test_empty_canvas_blank(self):
        canvas = AsciiMap(width=20, height=6)
        assert canvas.render().strip() == ""

    def test_polyline_drawn(self):
        canvas = AsciiMap(width=40, height=12)
        line = Polyline([GeoPoint(40.0, -120.0), GeoPoint(40.0, -80.0)])
        canvas.draw_polyline(line)
        assert canvas.render().strip() != ""

    def test_out_of_bounds_ignored(self):
        canvas = AsciiMap(width=20, height=6)
        line = Polyline([GeoPoint(60.0, -120.0), GeoPoint(62.0, -120.0)])
        canvas.draw_polyline(line)
        assert canvas.render().strip() == ""

    def test_mark_overrides_shading(self):
        canvas = AsciiMap(width=40, height=12)
        line = Polyline([GeoPoint(40.0, -120.0), GeoPoint(40.0, -80.0)])
        canvas.draw_polyline(line, weight=10)
        canvas.mark(40.0, -100.0, "O")
        assert "O" in canvas.render()

    def test_mark_validation(self):
        canvas = AsciiMap(width=20, height=6)
        with pytest.raises(ValueError):
            canvas.mark(40.0, -100.0, "XY")

    def test_density_shading_monotone(self):
        canvas = AsciiMap(width=40, height=12)
        light = Polyline([GeoPoint(45.0, -120.0), GeoPoint(45.0, -110.0)])
        heavy = Polyline([GeoPoint(30.0, -120.0), GeoPoint(30.0, -110.0)])
        canvas.draw_polyline(light, weight=1)
        canvas.draw_polyline(heavy, weight=20)
        text = canvas.render()
        from repro.analysis.render import SHADES

        # The heavy row must use a darker shade than the light row.
        def darkest(row_text):
            return max(
                (SHADES.index(ch) for ch in row_text if ch in SHADES[1:]),
                default=0,
            )

        rows = text.splitlines()
        top = max(darkest(r) for r in rows[:6])
        bottom = max(darkest(r) for r in rows[6:])
        assert bottom > top


class TestRenderHighLevel:
    def test_render_fiber_map(self, built_map):
        text = render_fiber_map(built_map, width=80, height=24)
        assert "O" in text  # hub markers
        # 24 rows joined by newlines (trailing blank rows are rstripped).
        assert text.count("\n") == 23

    def test_render_transport(self, network):
        road = render_transport(network, "road", width=80, height=24)
        rail = render_transport(network, "rail", width=80, height=24)
        assert road.strip() and rail.strip()
        # The road grid is denser than rail.
        assert sum(c != " " for c in road) > sum(c != " " for c in rail)


class TestCli:
    def test_experiments_list(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig12" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["--traces", "100", "run", "fig99"]) == 2

    def test_run_table1(self, capsys):
        assert main(["--traces", "100", "run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "EarthLink" in out and "370" in out

    def test_map_with_geojson(self, capsys, tmp_path):
        path = str(tmp_path / "map.geojson")
        assert main(["--traces", "100", "map", "--geojson", path]) == 0
        data = json.loads(open(path).read())
        assert data["type"] == "FeatureCollection"
        out = capsys.readouterr().out
        assert "nodes" in out

    def test_audit(self, capsys):
        assert main(["--traces", "100", "audit", "Sprint"]) == 0
        out = capsys.readouterr().out
        assert "Sprint" in out and "SRR" in out

    def test_audit_unknown_isp(self, capsys):
        assert main(["--traces", "100", "audit", "Atlantis Telecom"]) == 2

    def test_cut(self, capsys):
        assert main(
            ["--traces", "100", "cut", "Provo, UT", "Salt Lake City, UT"]
        ) == 0
        out = capsys.readouterr().out
        assert "severed" in out

    def test_cut_unknown_edge(self, capsys):
        assert main(
            ["--traces", "100", "cut", "Miami, FL", "Seattle, WA"]
        ) == 2

    def test_latency(self, capsys):
        assert main(
            ["--traces", "100", "latency", "Provo, UT",
             "Salt Lake City, UT"]
        ) == 0
        out = capsys.readouterr().out
        assert "Provo, UT <-> Salt Lake City, UT" in out


class TestCliExtensions:
    def test_pareto(self, capsys):
        assert main(
            ["--traces", "100", "pareto", "Denver, CO", "Chicago, IL"]
        ) == 0
        out = capsys.readouterr().out
        assert "frontier" in out and "max tenants" in out

    def test_pareto_no_path(self, capsys):
        assert main(
            ["--traces", "100", "pareto", "Denver, CO", "Atlantis, XX"]
        ) == 2

    def test_annotate_with_geojson(self, capsys, tmp_path):
        path = str(tmp_path / "annotated.geojson")
        assert main(["--traces", "100", "annotate", "--geojson", path]) == 0
        data = json.loads(open(path).read())
        assert data["features"][0]["properties"]["risk_class"]
        out = capsys.readouterr().out
        assert "busiest conduits" in out


class TestCliMoreCommands:
    def test_backup(self, capsys):
        assert main(
            ["--traces", "100", "backup", "Sprint", "Denver, CO",
             "Chicago, IL"]
        ) == 0
        out = capsys.readouterr().out
        assert "primary" in out and "backup" in out

    def test_backup_unconnectable(self, capsys):
        assert main(
            ["--traces", "100", "backup", "Suddenlink", "Seattle, WA",
             "Portland, OR"]
        ) == 2

    def test_partition(self, capsys):
        assert main(["--traces", "100", "partition"]) == 0
        out = capsys.readouterr().out
        assert "minimum west-east" in out
        assert "undersea" in out

    def test_exchange(self, capsys):
        assert main(["--traces", "100", "exchange", "--conduits", "2"]) == 0
        out = capsys.readouterr().out
        assert "conduit exchange plan" in out


class TestCliDefaults:
    def test_traces_default_matches_library_default(self):
        # Regression: the CLI used to default --traces to 5000 while the
        # library documented DEFAULT_CAMPAIGN_TRACES=20000.
        args = _build_parser().parse_args(["experiments"])
        assert args.traces == DEFAULT_CAMPAIGN_TRACES == 20000


class TestCliJson:
    def test_run_json(self, capsys):
        assert main(["--traces", "100", "--json", "run", "table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        result = payload[0]
        assert result["experiment_id"] == "table1"
        assert result["extension"] is False
        assert result["data"]["total_links"] == 1258
        assert "EarthLink" in result["text"]

    def test_audit_json(self, capsys):
        assert main(["--traces", "100", "--json", "audit", "Sprint"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isp"] == "Sprint"
        assert 1 <= payload["rank"] <= payload["ranked_isps"]
        assert payload["num_conduits"] > 0
        assert payload["robustness"]["reroutes"] >= 0

    def test_cut_json(self, capsys):
        assert main([
            "--traces", "100", "--json", "cut",
            "Provo, UT", "Salt Lake City, UT",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["event"]["conduits_severed"] >= 1
        assert payload["impact"]["isps_affected"] >= 1
        assert 0.0 <= payload["traffic_shift"]["affected_fraction"] <= 1.0

    def test_latency_json_envelope(self, capsys):
        assert main([
            "--traces", "100", "--json", "latency",
            "Provo, UT", "Salt Lake City, UT",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["v"] == 1
        assert payload["kind"] == "latency.result"
        assert payload["reachable"] is True
        assert payload["path"][0] == "Provo, UT"

    def test_exchange_json(self, capsys):
        assert main(
            ["--traces", "100", "--json", "exchange", "--conduits", "2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "exchange.result"
        assert len(payload["conduits"]) == 2
        assert payload["conduits"][0]["num_members"] >= 2

    def test_cache_info_json(self, capsys, tmp_path):
        assert main(
            ["--cache-dir", str(tmp_path), "--json", "cache", "info"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == str(tmp_path)
        assert payload["artifacts"] == 0
        assert payload["stages"] == {}


class TestCliTrace:
    def test_trace_writes_and_summarizes_manifest(self, capsys, tmp_path):
        path = str(tmp_path / "manifest.json")
        assert main([
            "--seed", "2016", "--traces", "60", "--trace", path,
            "run", "table1",
        ]) == 0
        capsys.readouterr()
        manifest = json.loads(open(path).read())
        assert manifest["schema"] == 1
        assert manifest["config"]["seed"] == 2016
        assert manifest["config"]["campaign_traces"] == 60
        names = set()

        def collect(spans):
            for span in spans:
                names.add(span["name"])
                collect(span.get("children", []))

        collect(manifest["spans"])
        assert "experiment.table1" in names
        assert "pipeline.step1" in names
        assert "scenario.ground_truth" in names
        assert "scenario.constructed_map/pipeline.step1" in manifest["timings"] or any(
            key.endswith("pipeline.step1") for key in manifest["timings"]
        )
        assert main(["trace", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "experiment.table1" in out

    def test_trace_summarize_missing_file(self, capsys, tmp_path):
        assert main(
            ["trace", "summarize", str(tmp_path / "nope.json")]
        ) == 2


class TestCliGraph:
    def test_show_lists_every_stage(self, capsys):
        assert main(["graph", "show"]) == 0
        out = capsys.readouterr().out
        for stage in ("ground_truth", "constructed_map", "campaign",
                      "overlay", "risk_matrix"):
            assert stage in out
        assert "persisted" in out and "transient" in out

    def test_show_json(self, capsys):
        assert main(["--json", "graph", "show"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 10
        by_stage = {row["stage"]: row for row in rows}
        assert by_stage["campaign"]["derived_seed"] == 2015 + 5
        assert by_stage["overlay"]["policy"] == "persisted"

    def test_explain_requires_stage(self, capsys):
        assert main(["graph", "explain"]) == 2
        assert "requires a stage" in capsys.readouterr().err

    def test_explain_unknown_stage(self, capsys):
        assert main(["graph", "explain", "warp_core"]) == 2
        assert "unknown stage" in capsys.readouterr().err

    def test_explain_stage(self, capsys):
        assert main(["--seed", "2016", "graph", "explain", "campaign"]) == 0
        out = capsys.readouterr().out
        assert "topology" in out and "probe_engine" in out
        assert "2021" in out  # base 2016 + offset 5

    def test_validate_ok(self, capsys):
        assert main(["graph", "validate"]) == 0
        out = capsys.readouterr().out
        assert "stage graph OK" in out

    def test_validate_json(self, capsys):
        assert main(["--json", "graph", "validate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ok": True, "problems": []}

    def test_invalidate_without_cache(self, capsys):
        assert main(["--no-cache", "graph", "invalidate", "campaign"]) == 2
        assert "no artifact cache" in capsys.readouterr().err

    def test_warm_cache_explain_and_invalidate(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path), "--traces", "100"]
        # Warm the cache by running a cheap experiment.
        assert main([*cache, "run", "fig2_3"]) == 0
        capsys.readouterr()
        assert main([*cache, "--json", "graph", "explain",
                     "ground_truth"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["cache_entry"] is True
        assert info["cache_key"] == {"family": "us2015", "seed": 2015}
        assert main([*cache, "--json", "graph", "invalidate",
                     "ground_truth"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifacts_removed"] >= 1
        assert "risk_matrix" in payload["affected"]
        assert main([*cache, "--json", "graph", "explain",
                     "ground_truth"]) == 0
        assert json.loads(capsys.readouterr().out)["cache_entry"] is False
