"""Tests for the transportation substrate: builder, network, rights-of-way."""

import random

import networkx as nx
import pytest

from repro.data.corridors import CORRIDORS, Corridor
from repro.geo.coords import haversine_km
from repro.transport.builder import (
    build_transport_network,
    corridor_leg_polyline,
)
from repro.transport.network import (
    NoRouteError,
    UnknownCityError,
    canonical_edge,
)
from repro.transport.rightofway import RowRegistry
from tests.oracles.geo import geometry_oriented
from tests.oracles.graphs import row_graph
from tests.oracles.mitigation import row_shortest_path_reference


@pytest.fixture(scope="module")
def net():
    return build_transport_network()


@pytest.fixture(scope="module")
def primary_net():
    return build_transport_network(include_secondary=False)


class TestCanonicalEdge:
    def test_order_independence(self):
        assert canonical_edge("B", "A") == canonical_edge("A", "B") == ("A", "B")


class TestBuilder:
    def test_corridor_polyline_longer_than_los(self):
        i5 = next(c for c in CORRIDORS if c.name == "I-5")
        legs = [corridor_leg_polyline(i5, a, b) for a, b in i5.edges()]
        los = haversine_km(legs[0].start, legs[-1].end)
        assert sum(leg.length_km for leg in legs) > los

    def test_meander_bounded(self):
        # Meander adds at most a few percent per leg.
        i80 = next(c for c in CORRIDORS if c.name == "I-80")
        for a, b in list(i80.edges())[:5]:
            leg = corridor_leg_polyline(i80, a, b)
            from repro.data.cities import city_by_name

            los = city_by_name(a).distance_km(city_by_name(b))
            assert los <= leg.length_km <= los * 1.2 + 5.0

    def test_leg_orientation(self):
        i80 = next(c for c in CORRIDORS if c.name == "I-80")
        a, b = i80.edges()[0]
        forward = corridor_leg_polyline(i80, a, b)
        backward = corridor_leg_polyline(i80, b, a)
        assert forward.points == backward.reversed().points

    def test_leg_not_in_corridor(self):
        i80 = next(c for c in CORRIDORS if c.name == "I-80")
        with pytest.raises(ValueError):
            corridor_leg_polyline(i80, "Miami, FL", "Boston, MA")

    def test_deterministic(self):
        i10 = next(c for c in CORRIDORS if c.name == "I-10")
        for a, b in i10.edges():
            assert corridor_leg_polyline(i10, a, b) == corridor_leg_polyline(
                i10, a, b
            )

    def test_secondary_increases_edges(self, net, primary_net):
        assert len(net.edges()) > len(primary_net.edges())


class TestNetwork:
    def test_connected(self, net):
        assert nx.is_connected(row_graph(net))

    def test_edge_lookup(self, net):
        record = net.edge("Provo, UT", "Salt Lake City, UT")
        assert record.edge == ("Provo, UT", "Salt Lake City, UT")
        assert "road" in record.kinds

    def test_has_edge(self, net):
        assert net.edge("Salt Lake City, UT", "Provo, UT")
        with pytest.raises(KeyError):
            net.edge("Miami, FL", "Seattle, WA")

    def test_kinds_of_edges(self, net):
        roads = net.edges_of_kind("road")
        rails = net.edges_of_kind("rail")
        pipes = net.edges_of_kind("pipeline")
        assert len(roads) > len(rails) > len(pipes) > 0

    def test_row_shortest_path_valid(self, net):
        path, km = net.row_shortest_path("Seattle, WA", "Miami, FL")
        assert path[0] == "Seattle, WA"
        assert path[-1] == "Miami, FL"
        for a, b in zip(path, path[1:]):
            assert net.edge(a, b).edge == canonical_edge(a, b)
        assert km >= net.los_km("Seattle, WA", "Miami, FL")

    def test_row_path_kind_restriction(self, net):
        _, km_all = net.row_shortest_path("Chicago, IL", "Denver, CO")
        _, km_rail = net.row_shortest_path(
            "Chicago, IL", "Denver, CO", kinds=("rail",)
        )
        assert km_rail >= km_all

    def test_row_path_unreachable_kind(self, net):
        # Seattle is on no pipeline; Anaheim and Atlanta are, but on
        # pipelines that do not meet.  The errors are a KeyError and a
        # ValueError.
        with pytest.raises(UnknownCityError) as unknown:
            net.row_shortest_path(
                "Seattle, WA", "Miami, FL", kinds=("pipeline",)
            )
        with pytest.raises(NoRouteError) as no_route:
            net.row_shortest_path(
                "Anaheim, CA", "Atlanta, GA", kinds=("pipeline",)
            )
        assert isinstance(unknown.value, KeyError)
        assert isinstance(no_route.value, ValueError)

    def test_los_symmetric(self, net):
        assert net.los_km("Denver, CO", "Chicago, IL") == net.los_km(
            "Chicago, IL", "Denver, CO"
        )

    def test_total_km_decomposes(self, net):
        total = net.total_km()
        parts = sum(net.total_km(k) for k in ("road", "rail", "pipeline"))
        assert total == pytest.approx(parts)

    def test_corridor_index_kinds(self, primary_net):
        index = primary_net.corridor_index()
        assert index.kinds == {"road", "rail", "pipeline"}

    def test_is_primary_flag(self, net):
        record = net.edge("Provo, UT", "Salt Lake City, UT")
        assert record.is_primary

    def test_geometry_oriented(self, net):
        record = net.edge("Provo, UT", "Salt Lake City, UT")
        fwd = geometry_oriented(record, "Provo, UT", "Salt Lake City, UT")
        rev = geometry_oriented(record, "Salt Lake City, UT", "Provo, UT")
        assert fwd.points == rev.reversed().points
        with pytest.raises(ValueError):
            geometry_oriented(record, "Provo, UT", "Denver, CO")


class TestRowRegistry:
    @pytest.fixture(scope="class")
    def registry(self, primary_net):
        return RowRegistry(primary_net)

    def test_rows_cover_all_corridor_legs(self, registry, primary_net):
        per_edge = sum(
            len(registry.rows_for_edge(*record.edge))
            for record in primary_net.edges()
        )
        assert per_edge == len(registry)

    def test_rows_for_edge_road_first(self, registry):
        rows = registry.rows_for_edge("Provo, UT", "Salt Lake City, UT")
        kinds = [r.kind for r in rows]
        assert kinds == sorted(
            kinds, key=lambda k: {"road": 0, "rail": 1, "pipeline": 2}[k]
        )

    def test_row_states(self, registry):
        rows = registry.rows_for_edge("Provo, UT", "Salt Lake City, UT")
        assert all(r.states == frozenset({"UT"}) for r in rows)

    def test_geometry_available(self, registry):
        row = registry.rows()[0]
        geometry = registry.geometry(row.row_id)
        assert geometry.length_km > 0


class TestRowShortestPathParity:
    """The compiled ROW graphs answer exactly like a NetworkX subgraph
    rebuilt per call, errors included, on both map families."""

    KIND_SETS = (None, ("road", "rail"), ("rail",), ("pipeline",))

    #: The package's errors and the NetworkX errors they stand for.
    OUTCOMES = {
        UnknownCityError: "unknown city",
        nx.NodeNotFound: "unknown city",
        NoRouteError: "no path",
        nx.NetworkXNoPath: "no path",
    }

    @classmethod
    def _solve(cls, fn):
        try:
            return fn()
        except tuple(cls.OUTCOMES) as error:
            return cls.OUTCOMES[type(error)]

    @pytest.mark.parametrize("kinds", KIND_SETS)
    def test_matches_reference(self, family_scenario, kinds):
        network = family_scenario.network
        allowed = set(kinds) if kinds is not None else None
        cities = network.cities()
        # Pairs on the kind-restricted corridors too, so sparse kinds
        # yield paths and "no path", not only "unknown city".
        on_kinds = sorted({
            city for record in network.edges()
            if allowed is None or record.kinds & allowed
            for city in record.edge
        })
        rng = random.Random(41)
        pairs = [tuple(rng.sample(cities, 2)) for _ in range(40)]
        if len(on_kinds) > 1:
            pairs += [tuple(rng.sample(on_kinds, 2)) for _ in range(20)]
        pairs += [(cities[0], cities[0]), (cities[0], "Nowhere, XX"),
                  ("Nowhere, XX", cities[0])]
        outcomes = set()
        for a, b in pairs:
            got = self._solve(
                lambda: network.row_shortest_path(a, b, kinds=kinds)
            )
            want = self._solve(
                lambda: row_shortest_path_reference(network, a, b, kinds)
            )
            if isinstance(want, str):
                assert got == want, (a, b, kinds)
                outcomes.add(want)
                continue
            path, km = got
            assert km == want[1], (a, b, kinds)
            assert path[0] == a and path[-1] == b
            assert len(set(path)) == len(path)
            total = 0.0
            for u, v in zip(path, path[1:]):
                record = network.edge(u, v)
                usable = [
                    record.geometries[name].length_km
                    for name in record.corridor_names
                    if allowed is None or record.kind_of[name] in allowed
                ]
                assert usable, (u, v, kinds)
                total += min(usable)
            assert total == km
            outcomes.add("path")
        assert "unknown city" in outcomes
