"""Tests for JSON / GeoJSON serialization of fiber maps."""

import io
import json

import pytest

from repro.fibermap.serialization import (
    fiber_map_from_dict,
    fiber_map_to_dict,
    fiber_map_to_geojson,
)


class TestJsonRoundtrip:
    def test_roundtrip_preserves_stats(self, built_map):
        data = fiber_map_to_dict(built_map)
        restored = fiber_map_from_dict(data)
        assert restored.stats() == built_map.stats()

    def test_roundtrip_preserves_tenancy(self, built_map):
        restored = fiber_map_from_dict(fiber_map_to_dict(built_map))
        assert restored.tenancy() == built_map.tenancy()

    def test_roundtrip_preserves_geometry(self, built_map):
        restored = fiber_map_from_dict(fiber_map_to_dict(built_map))
        for cid, conduit in list(built_map.conduits.items())[:20]:
            assert restored.conduit(cid).geometry == conduit.geometry
            assert restored.conduit(cid).row_id == conduit.row_id

    def test_roundtrip_preserves_links(self, built_map):
        restored = fiber_map_from_dict(fiber_map_to_dict(built_map))
        for lid, link in list(built_map.links.items())[:50]:
            assert restored.link(lid).city_path == link.city_path
            assert restored.link(lid).conduit_ids == link.conduit_ids
            assert restored.link(lid).isp == link.isp

    def test_dict_is_json_serializable(self, built_map):
        text = json.dumps(fiber_map_to_dict(built_map))
        assert len(text) > 1000

    def test_version_check(self, built_map):
        data = fiber_map_to_dict(built_map)
        data["version"] = 99
        with pytest.raises(ValueError):
            fiber_map_from_dict(data)

    def test_file_like_roundtrip(self, built_map):
        buffer = io.StringIO()
        json.dump(fiber_map_to_dict(built_map), buffer)
        buffer.seek(0)
        restored = fiber_map_from_dict(json.load(buffer))
        assert restored.stats() == built_map.stats()

    def test_path_roundtrip(self, built_map, tmp_path):
        path = tmp_path / "map.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(fiber_map_to_dict(built_map), handle)
        with open(path, encoding="utf-8") as handle:
            restored = fiber_map_from_dict(json.load(handle))
        assert restored.stats() == built_map.stats()


class TestGeoJson:
    def test_structure(self, built_map):
        geojson = fiber_map_to_geojson(built_map)
        assert geojson["type"] == "FeatureCollection"
        assert len(geojson["features"]) == built_map.stats().num_conduits

    def test_feature_contents(self, built_map):
        feature = fiber_map_to_geojson(built_map)["features"][0]
        assert feature["geometry"]["type"] == "LineString"
        coords = feature["geometry"]["coordinates"]
        # GeoJSON order is (lon, lat): longitudes in the US are negative.
        assert all(lon < 0 < lat for lon, lat in coords)
        props = feature["properties"]
        assert props["num_tenants"] == len(props["tenants"])
        assert props["length_km"] > 0

    def test_geojson_serializable(self, built_map):
        json.dumps(fiber_map_to_geojson(built_map))


class TestSimplifiedGeoJson:
    def test_simplified_export_smaller(self, built_map):
        import json as _json

        full = fiber_map_to_geojson(built_map)
        slim = fiber_map_to_geojson(built_map, simplify_tolerance_km=3.0)
        full_points = sum(
            len(f["geometry"]["coordinates"]) for f in full["features"]
        )
        slim_points = sum(
            len(f["geometry"]["coordinates"]) for f in slim["features"]
        )
        assert slim_points < full_points * 0.7
        # Endpoints preserved.
        for before, after in zip(full["features"], slim["features"]):
            assert before["geometry"]["coordinates"][0] == after["geometry"]["coordinates"][0]
            assert before["geometry"]["coordinates"][-1] == after["geometry"]["coordinates"][-1]
        _json.dumps(slim)
