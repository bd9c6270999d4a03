"""The compiled city distance table and the §2 set-up that reads it.

The table must equal the scalar ``haversine_km`` bit for bit over every
pair of registered cities, and every set-up loop that reads its rows
must pick exactly what the scalar loop it replaced
(:mod:`tests.oracles.cities`) picks, on both map families.  A call-count
guard keeps the set-up off per-pair scalar loops without timing it.
"""

from __future__ import annotations

import random
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.geo.coords as coords
from repro.data.cities import CITIES, City, CityTable, city_by_name, city_table
from repro.data.corridors import KIND_ROAD, Corridor, secondary_road_corridors
from repro.data.isps import ISPS
from repro.data.stations import STATIONS, ensure_registered
from repro.experiments import fig2_3
from repro.families.global2023 import (
    GLOBAL_ISPS,
    GLOBAL_RULES,
    build_global_network,
)
from repro.fibermap.pipeline import MapConstructionPipeline
from repro.fibermap.publish import QUALITY_DETAILED, _link_geometry
from repro.fibermap.synthesis import US_RULES, _plan_links, _select_pops
from repro.scenario import Scenario, ScenarioConfig
from repro.traceroute.geolocate import near_miss_pool
from repro.transport.builder import build_transport_network, corridor_leg_polyline
from repro.transport.network import TransportationNetwork, canonical_edge
from tests.oracles.cities import (
    link_geometry_reference,
    near_miss_pool_reference,
    plan_links_global_reference,
    plan_links_reference,
    row_from_geometry_reference,
    scalar_distance_km,
    secondary_road_corridors_reference,
)

SEEDS = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _mismatches(table: CityTable, cities) -> int:
    return sum(
        table.distances[table.index[a.key], table.index[b.key]]
        != scalar_distance_km(a, b)
        for a in cities
        for b in cities
    )


class TestTable:
    def test_base_cities_match_haversine_bit_for_bit(self):
        table = city_table()
        assert table.keys[:len(CITIES)] == tuple(c.key for c in CITIES)
        assert _mismatches(table, CITIES) == 0

    def test_symmetric_with_zero_diagonal(self):
        distances = city_table().distances
        assert np.array_equal(distances, distances.T)
        assert not np.diagonal(distances).any()

    def test_extension_cities_match_haversine(self):
        table = CityTable(CITIES + STATIONS)
        assert _mismatches(table, CITIES + STATIONS) == 0
        assert np.array_equal(
            table.distances[:len(CITIES), :len(CITIES)],
            CityTable(CITIES).distances,
        )

    def test_registered_cities_join_the_table(self):
        city_table()
        ensure_registered()
        table = city_table()
        assert set(c.key for c in STATIONS) <= set(table.index)
        assert _mismatches(table, [city_by_name(k) for k in table.keys]) == 0

    def test_distance_km_reads_the_table(self):
        a, b = city_by_name("Denver, CO"), city_by_name("Chicago, IL")
        assert a.distance_km(b) == scalar_distance_km(a, b)
        assert type(a.distance_km(b)) is float

    def test_unregistered_city_raises(self):
        atlantis = City("Atlantis", "XX", 30.0, -40.0, 1)
        with pytest.raises(KeyError):
            atlantis.distance_km(CITIES[0])

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            city_table().distances[0, 1] = 0.0


def _us_pool():
    network = build_transport_network()
    return [city_by_name(k) for k in sorted(network.cities())]


def _global_pool():
    network = build_global_network()
    return [city_by_name(k) for k in sorted(network.cities())]


def _assert_plans_match(profiles, pool, seed, plan, reference):
    rng = random.Random(seed)
    for profile in profiles:
        pops = _select_pops(profile, pool, rng)
        theirs = random.Random()
        theirs.setstate(rng.getstate())
        planned = plan(pops, profile.target_links, rng)
        assert planned == reference(pops, profile.target_links, theirs)
        assert rng.getstate() == theirs.getstate()


_us_plan = partial(_plan_links, scale_km=US_RULES.link_distance_scale_km)
_global_plan = partial(
    _plan_links, scale_km=GLOBAL_RULES.link_distance_scale_km
)


@pytest.fixture(scope="module")
def us_pool():
    return _us_pool()


@pytest.fixture(scope="module")
def global_pool():
    return _global_pool()


class TestPlanLinks:
    def test_us_matches_scalar_at_2015(self, us_pool):
        _assert_plans_match(ISPS, us_pool, 2015, _us_plan,
                            plan_links_reference)

    def test_global_matches_scalar_at_2015(self, global_pool):
        _assert_plans_match(GLOBAL_ISPS, global_pool, 2015, _global_plan,
                            plan_links_global_reference)

    @SEEDS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_us_matches_scalar(self, us_pool, seed):
        _assert_plans_match(ISPS, us_pool, seed, _us_plan,
                            plan_links_reference)

    @SEEDS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_global_matches_scalar(self, global_pool, seed):
        _assert_plans_match(GLOBAL_ISPS, global_pool, seed, _global_plan,
                            plan_links_global_reference)


class TestNearMissPool:
    def test_every_city_matches_scalar(self):
        ensure_registered()
        for key in city_table().keys:
            assert near_miss_pool(key) == near_miss_pool_reference(key), key

    def test_routers_of_both_families(self, family_scenario):
        topology = family_scenario.topology
        keys = {
            router.city_key
            for isp in topology.providers()
            for router in topology.routers_of(isp)
        }
        for key in sorted(keys):
            assert near_miss_pool(key) == near_miss_pool_reference(key), key


class TestSecondaryRoads:
    def test_matches_scalar_grid(self):
        assert list(secondary_road_corridors()) == (
            secondary_road_corridors_reference()
        )

    @pytest.mark.parametrize("max_km, probability", [
        (120.0, 0.5), (230.0, 0.2), (400.0, 0.9),
    ])
    def test_matches_scalar_grid_off_default(self, max_km, probability):
        assert list(secondary_road_corridors(max_km, probability)) == (
            secondary_road_corridors_reference(max_km, probability)
        )

    def test_built_once(self):
        assert secondary_road_corridors() is secondary_road_corridors()

    def test_fig2_3_counts_the_built_grid(self, scenario):
        result = fig2_3.run(scenario)
        assert result.secondary_corridors == len(secondary_road_corridors())


class TestPipelineKernels:
    def test_link_geometry_matches_concat(self, family_scenario):
        truth = family_scenario.ground_truth
        for link in truth.fiber_map.links.values():
            ours = _link_geometry(truth.fiber_map, link)
            reference = link_geometry_reference(truth.fiber_map, link)
            assert ours == reference
            assert ours.length_km == reference.length_km

    def test_step1_row_match_matches_scalar(self, family_scenario):
        truth = family_scenario.ground_truth
        pipeline = MapConstructionPipeline(
            truth, family_scenario.provider_maps, family_scenario.records
        )
        checked = 0
        for pmap in family_scenario.provider_maps.values():
            if pmap.step != 1:
                continue
            for link in pmap.links:
                if link.quality != QUALITY_DETAILED:
                    continue
                for u, v in zip(link.city_path, link.city_path[1:]):
                    edge = canonical_edge(u, v)
                    assert pipeline._row_from_geometry(
                        edge, link.geometry
                    ) == row_from_geometry_reference(
                        truth.registry, edge, link.geometry
                    )
                    checked += 1
        assert checked > 0

    def test_row_length_cache_follows_added_legs(self):
        network = TransportationNetwork()
        a, b = "Denver, CO", "Limon, CO"
        road = Corridor("long", KIND_ROAD, (a, b))
        rail = Corridor("short", "rail", (a, b))
        network.add_corridor_leg(a, b, road, corridor_leg_polyline(road, a, b))
        first = network.edge(a, b).length_km
        straight = corridor_leg_polyline(rail, a, b, amp_km=0.0)
        network.add_corridor_leg(a, b, rail, straight)
        assert first > straight.length_km
        assert network.edge(a, b).length_km == straight.length_km


#: City-distance calls while the ground_truth and constructed_map
#: stages built at seed 2015 with per-pair scalar loops (every
#: ``City.distance_km`` was one ``haversine_km``).
SCALAR_HAVERSINE_CALLS = 170_622
SCALAR_DISTANCE_CALLS = 155_923


def test_setup_stays_off_per_pair_distance_loops(monkeypatch):
    """A slide back to scalar city-pair loops fails here, with no
    wall-clock flakiness: each count must stay under a tenth of the
    scalar set-up's."""
    counts = {"haversine_km": 0, "distance_km": 0}
    haversine = coords.haversine_km

    def counted_haversine(a, b):
        counts["haversine_km"] += 1
        return haversine(a, b)

    for module in list(sys.modules.values()):
        if getattr(module, "haversine_km", None) is haversine:
            monkeypatch.setattr(module, "haversine_km", counted_haversine)
    distance = City.distance_km

    def counted_distance(self, other):
        counts["distance_km"] += 1
        return distance(self, other)

    monkeypatch.setattr(City, "distance_km", counted_distance)
    scenario = Scenario(config=ScenarioConfig(seed=2015, cache=False))
    scenario.graph.materialize("ground_truth")
    scenario.graph.materialize("constructed_map")
    assert counts["haversine_km"] < SCALAR_HAVERSINE_CALLS // 10, counts
    assert counts["distance_km"] < SCALAR_DISTANCE_CALLS // 10, counts
