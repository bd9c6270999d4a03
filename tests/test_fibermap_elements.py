"""Tests for the fiber-map model (nodes, links, conduits)."""

import pytest

from repro.fibermap.elements import FiberMap, Link
from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.perf.substrate import substrate_for

A, B, C = "Denver, CO", "Limon, CO", "Hays, KS"


def _geom(lat1, lon1, lat2, lon2):
    return Polyline([GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)])


@pytest.fixture()
def small_map():
    fm = FiberMap()
    fm.add_conduit(A, B, "road:I-70:x", _geom(39.74, -104.99, 39.26, -103.69))
    fm.add_conduit(B, C, "road:I-70:y", _geom(39.26, -103.69, 38.88, -99.33))
    return fm


class TestConduits:
    def test_ids_sequential(self, small_map):
        assert sorted(small_map.conduits) == ["C0001", "C0002"]

    def test_edge_canonicalized(self, small_map):
        conduit = small_map.conduit("C0001")
        assert conduit.edge == tuple(sorted((A, B)))

    def test_duplicate_id_rejected(self, small_map):
        with pytest.raises(ValueError):
            small_map.add_conduit(
                A, C, "r", _geom(39.74, -104.99, 38.88, -99.33),
                conduit_id="C0001",
            )

    def test_conduits_between(self, small_map):
        assert len(small_map.conduits_between(B, A)) == 1
        assert small_map.conduits_between(A, C) == []

    def test_parallel_conduits(self, small_map):
        small_map.add_conduit(A, B, "rail:UP:x", _geom(39.7, -105.0, 39.3, -103.7))
        assert len(small_map.conduits_between(A, B)) == 2

    def test_nodes_created(self, small_map):
        assert set(small_map.nodes) == {A, B, C}

    def test_describe(self, small_map):
        text = small_map.conduit("C0001").describe()
        assert "Denver" in text and "tenants" in text


class TestLinks:
    def test_add_link_updates_tenancy(self, small_map):
        small_map.add_link("ISP-X", [A, B, C], ["C0001", "C0002"])
        assert small_map.conduit("C0001").tenants == {"ISP-X"}
        assert small_map.conduit("C0002").tenants == {"ISP-X"}
        assert small_map.nodes[A].isps == {"ISP-X"}

    def test_link_validation_wrong_conduit(self, small_map):
        with pytest.raises(ValueError):
            small_map.add_link("ISP-X", [A, C], ["C0001"])

    def test_link_validation_length_mismatch(self, small_map):
        with pytest.raises(ValueError):
            small_map.add_link("ISP-X", [A, B, C], ["C0001"])

    def test_link_unknown_conduit(self, small_map):
        with pytest.raises(KeyError):
            small_map.add_link("ISP-X", [A, B], ["C9999"])

    def test_duplicate_link_id(self, small_map):
        small_map.add_link("X", [A, B], ["C0001"], link_id="L1")
        with pytest.raises(ValueError):
            small_map.add_link("Y", [A, B], ["C0001"], link_id="L1")

    def test_link_dataclass_validation(self):
        with pytest.raises(ValueError):
            Link("L1", "X", (A, B), (A,), ())
        with pytest.raises(ValueError):
            Link("L1", "X", (A, B), (A, B), ())

    def test_num_hops(self, small_map):
        link = small_map.add_link("X", [A, B, C], ["C0001", "C0002"])
        assert link.num_hops == 2

    def test_links_of(self, small_map):
        small_map.add_link("X", [A, B], ["C0001"])
        small_map.add_link("Y", [B, C], ["C0002"])
        assert len(small_map.links_of("X")) == 1
        assert small_map.links_of("Z") == []

    def test_isps_sorted(self, small_map):
        small_map.add_link("Zeta", [A, B], ["C0001"])
        small_map.add_link("Alpha", [B, C], ["C0002"])
        assert small_map.isps() == ["Alpha", "Zeta"]


class TestTenancyAndStats:
    def test_add_tenant_direct(self, small_map):
        small_map.add_tenant("C0001", "Records-ISP")
        assert "Records-ISP" in small_map.conduit("C0001").tenants
        assert "Records-ISP" in small_map.nodes[A].isps

    def test_stats(self, small_map):
        small_map.add_link("X", [A, B], ["C0001"])
        stats = small_map.stats()
        assert stats.num_nodes == 3
        assert stats.num_links == 1
        assert stats.num_conduits == 2

    def test_tenancy_snapshot_frozen(self, small_map):
        small_map.add_link("X", [A, B], ["C0001"])
        snapshot = small_map.tenancy()
        assert snapshot["C0001"] == frozenset({"X"})

    def test_conduits_of_and_nodes_of(self, small_map):
        small_map.add_link("X", [A, B, C], ["C0001", "C0002"])
        assert [c.conduit_id for c in small_map.conduits_of("X")] == [
            "C0001", "C0002",
        ]
        assert sorted(
            key for key, node in small_map.nodes.items() if "X" in node.isps
        ) == sorted([A, B, C])


class TestGraphViews:
    """The conduit views the package routes on, compiled by the
    substrate."""

    def test_multigraph_contains_parallel(self, small_map):
        small_map.add_conduit(A, B, "rail:UP:x", _geom(39.7, -105.0, 39.3, -103.7))
        conduits = substrate_for(small_map)
        pair = sorted((conduits.index[A], conduits.index[B]))
        rows = [
            row for row in range(conduits.num_conduits)
            if sorted((conduits.cu[row], conduits.cv[row])) == pair
        ]
        assert len(rows) == 2
        assert conduits.conduit_view().num_edges == 2

    def test_simple_graph_picks_least_shared(self, small_map):
        parallel = small_map.add_conduit(
            A, B, "rail:UP:x", _geom(39.7, -105.0, 39.3, -103.7)
        )
        small_map.add_link("X", [A, B], ["C0001"])
        small_map.add_link("Y", [A, B], ["C0001"])
        conduits = substrate_for(small_map)
        view = conduits.conduit_view()
        edge = view.edge_index(A, B)
        assert conduits.cids[view.payload["conduit"][edge]] == parallel.conduit_id
        assert view.weights["risk"][edge] == 0

    def test_isp_filtered_graph(self, small_map):
        small_map.add_link("X", [A, B], ["C0001"])
        view = substrate_for(small_map).tenant_view("X")
        assert view.edge_index(A, B) is not None
        assert view.edge_index(B, C) is None
        assert not view.present(C)
