"""Tests for corridor and provider datasets."""

import pytest

from repro.data.cities import city_by_name
from repro.data.corridors import (
    CORRIDORS,
    Corridor,
    secondary_road_corridors,
)
from repro.data.isps import (
    ISPS,
    STEP1_ISPS,
    STEP3_ISPS,
    ISPProfile,
    isp_names,
)


#: The provider profiles by name (names are unique, the dataset checks).
_BY_NAME = {p.name: p for p in ISPS}


class TestCorridors:
    def test_all_waypoints_resolve(self):
        for corridor in CORRIDORS:
            for key in corridor.waypoints:
                city_by_name(key)

    def test_names_unique(self):
        names = [c.name for c in CORRIDORS]
        assert len(set(names)) == len(names)

    def test_kind_partition(self):
        kinds = {c.kind for c in CORRIDORS}
        assert kinds <= {"road", "rail", "pipeline"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Corridor("Erie", "canal", ("Albany, NY", "Buffalo, NY"))

    def test_edges_are_consecutive_pairs(self):
        i5 = next(c for c in CORRIDORS if c.name == "I-5")
        edges = i5.edges()
        assert len(edges) == len(i5.waypoints) - 1
        assert edges[0] == (i5.waypoints[0], i5.waypoints[1])

    def test_paper_corridors_exist(self):
        names = {c.name for c in CORRIDORS}
        # ROWs the paper's examples rely on.
        for name in ("I-80", "I-10", "CalNev-Products", "Dixie-NGL"):
            assert name in names

    def test_laurel_ms_on_pipeline(self):
        dixie = next(c for c in CORRIDORS if c.name == "Dixie-NGL")
        assert "Laurel, MS" in dixie.waypoints

    def test_validation(self):
        with pytest.raises(ValueError):
            Corridor(name="x", kind="canal", waypoints=("Denver, CO", "Limon, CO"))
        with pytest.raises(ValueError):
            Corridor(name="x", kind="road", waypoints=("Denver, CO",))
        with pytest.raises(ValueError):
            Corridor(
                name="x", kind="road",
                waypoints=("Denver, CO", "Limon, CO"), grade="tertiary",
            )


class TestSecondaryRoads:
    def test_deterministic(self):
        first = secondary_road_corridors()
        second = secondary_road_corridors()
        assert [c.name for c in first] == [c.name for c in second]

    def test_all_secondary_grade(self):
        assert all(c.grade == "secondary" for c in secondary_road_corridors())

    def test_length_bound_respected(self):
        for corridor in secondary_road_corridors(max_km=200.0):
            a = city_by_name(corridor.waypoints[0])
            b = city_by_name(corridor.waypoints[1])
            assert a.distance_km(b) <= 200.0

    def test_no_duplicate_of_primary(self):
        primary = set()
        for corridor in CORRIDORS:
            for a, b in corridor.edges():
                primary.add(frozenset((a, b)))
        for corridor in secondary_road_corridors():
            a, b = corridor.waypoints
            assert frozenset((a, b)) not in primary

    def test_probability_scales_count(self):
        low = len(secondary_road_corridors(probability=0.2))
        high = len(secondary_road_corridors(probability=0.8))
        assert low < high


class TestIsps:
    def test_twenty_providers(self):
        assert len(ISPS) == 20
        assert len(STEP1_ISPS) == 9
        assert len(STEP3_ISPS) == 11

    def test_step3_links_total_1153(self):
        assert sum(p.target_links for p in STEP3_ISPS) == 1153

    def test_step1_table1_values(self):
        # Exact Table 1 values from the paper.
        expected = {
            "AT&T": (25, 57), "Comcast": (26, 71), "Cogent": (69, 84),
            "EarthLink": (248, 370), "Integra": (27, 36),
            "Level 3": (240, 336), "Suddenlink": (39, 42),
            "Verizon": (116, 151), "Zayo": (98, 111),
        }
        for profile in STEP1_ISPS:
            nodes, links = expected[profile.name]
            assert profile.target_nodes == nodes
            assert profile.target_links == links

    def test_total_links_2411(self):
        assert sum(p.target_links for p in ISPS) == 2411

    def test_lookup(self):
        assert _BY_NAME["Level 3"].tier == "tier1"
        assert "Atlantis Telecom" not in _BY_NAME

    def test_names_order(self):
        names = isp_names()
        assert names[0] == "AT&T"
        assert len(names) == 20

    def test_geocoded_property(self):
        assert _BY_NAME["AT&T"].geocoded
        assert not _BY_NAME["Sprint"].geocoded

    def test_validation(self):
        with pytest.raises(ValueError):
            ISPProfile("x", "tier1", 2, 10, 10)
        with pytest.raises(ValueError):
            ISPProfile("x", "tier4", 1, 10, 10)
        with pytest.raises(ValueError):
            ISPProfile("x", "tier1", 1, 10, 10, style="moon")

    def test_builders_include_cable(self):
        for name in ("Comcast", "Cox", "TWC", "Suddenlink"):
            assert _BY_NAME[name].builder

    def test_lessees_include_foreign_tier1s(self):
        for name in ("Deutsche Telekom", "NTT", "Tata", "XO"):
            assert not _BY_NAME[name].builder


class TestNsfnet:
    def test_backbone_valid(self):
        from repro.data.nsfnet import nsfnet_backbone

        backbone = nsfnet_backbone()
        assert backbone.num_nodes == 15
        assert backbone.num_links == 20
        assert backbone.total_los_km() > 10000

    def test_links_reference_nodes(self):
        from repro.data.nsfnet import nsfnet_backbone

        backbone = nsfnet_backbone()
        nodes = set(backbone.nodes)
        for a, b in backbone.links:
            assert a in nodes and b in nodes

    def test_connected(self):
        import networkx as nx

        from repro.data.nsfnet import nsfnet_backbone

        backbone = nsfnet_backbone()
        graph = nx.Graph(backbone.links)
        assert nx.is_connected(graph)
        assert set(graph.nodes) == set(backbone.nodes)
