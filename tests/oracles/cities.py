"""The scalar per-pair city-distance loops of the §2 set-up, kept as
test oracles.

Moved out of :mod:`repro.fibermap.synthesis`,
:mod:`repro.families.global2023`, :mod:`repro.traceroute.geolocate`,
:mod:`repro.data.corridors` and :mod:`repro.fibermap.publish`: each
loop called ``haversine_km`` once per city pair it looked at (through
``City.distance_km``), or re-joined a link's legs one ``concat`` at a
time.  The package reads whole rows of the compiled city table
(:func:`repro.data.cities.city_table`) instead; the parity suite
requires the two to agree exactly.  Distances here come from
``haversine_km`` itself, never from the table.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Set

from repro.data.cities import CITIES, City, city_by_name
from repro.data.corridors import CORRIDORS, GRADE_SECONDARY, KIND_ROAD, Corridor
from repro.families.global2023 import GLOBAL_RULES
from repro.fibermap.elements import FiberMap, Link
from repro.geo.coords import haversine_km
from repro.geo.polyline import Polyline
from repro.transport.network import EdgeKey, canonical_edge
from tests.oracles.geo import concat


def cities_over(population: int) -> List[City]:
    """Cities with population >= *population*, largest first."""
    return sorted(
        (c for c in CITIES if c.population >= population),
        key=lambda c: -c.population,
    )


def scalar_distance_km(a: City, b: City) -> float:
    """``City.distance_km`` before the table: one scalar haversine."""
    return haversine_km(a.location, b.location)


def plan_links_reference(
    pops: List[str],
    target_links: int,
    rng: random.Random,
) -> List[EdgeKey]:
    """The US family's ``_plan_links`` with a ``min()`` over scalar
    distances for the spanning skeleton."""
    cities = {key: city_by_name(key) for key in pops}
    ordered = sorted(pops, key=lambda k: -cities[k].population)
    links: Set[EdgeKey] = set()
    connected: List[str] = [ordered[0]]
    for key in ordered[1:]:
        partner = min(
            connected,
            key=lambda c: scalar_distance_km(cities[key], cities[c]),
        )
        links.add(canonical_edge(key, partner))
        connected.append(key)
    attempts = 0
    max_attempts = target_links * 200
    while len(links) < target_links and attempts < max_attempts:
        attempts += 1
        a = rng.choice(ordered)
        b = rng.choice(ordered)
        if a == b:
            continue
        edge = canonical_edge(a, b)
        if edge in links:
            continue
        distance = scalar_distance_km(cities[a], cities[b])
        # Accept with probability decaying in distance; 300 km scale.
        if rng.random() < 1.0 / (1.0 + (distance / 300.0) ** 1.6):
            links.add(edge)
    return sorted(links)


def plan_links_global_reference(
    pops: List[str], target_links: int, rng: random.Random
) -> List[EdgeKey]:
    """The global family's ``_plan_links_global``: the same skeleton,
    distance decay at thousands of kilometers."""
    cities = {key: city_by_name(key) for key in pops}
    ordered = sorted(pops, key=lambda k: -cities[k].population)
    links: Set[EdgeKey] = set()
    connected: List[str] = [ordered[0]]
    for key in ordered[1:]:
        partner = min(
            connected,
            key=lambda c: scalar_distance_km(cities[key], cities[c]),
        )
        links.add(canonical_edge(key, partner))
        connected.append(key)
    attempts = 0
    max_attempts = target_links * 200
    while len(links) < target_links and attempts < max_attempts:
        attempts += 1
        a = rng.choice(ordered)
        b = rng.choice(ordered)
        if a == b:
            continue
        edge = canonical_edge(a, b)
        if edge in links:
            continue
        distance = scalar_distance_km(cities[a], cities[b])
        scale = distance / GLOBAL_RULES.link_distance_scale_km
        if rng.random() < 1.0 / (1.0 + scale ** 1.6):
            links.add(edge)
    return sorted(links)


def near_miss_pool_reference(city_key: str) -> List[City]:
    """The geolocation database's near-miss candidates: every base city
    within 150 km of the true one, scanned pair by pair."""
    true_city = city_by_name(city_key)
    pool = [
        c
        for c in CITIES
        if c.key != true_city.key
        and scalar_distance_km(true_city, c) < 150.0
    ]
    return sorted(pool, key=lambda c: c.key)


def secondary_road_corridors_reference(
    max_km: float = 230.0,
    probability: float = 0.5,
) -> List[Corridor]:
    """The secondary-road grid, one scalar distance per unordered pair."""
    primary_edges = set()
    for corridor in CORRIDORS:
        for a, b in corridor.edges():
            primary_edges.add(frozenset((a, b)))

    def pair_unit(a_key: str, b_key: str) -> float:
        token = f"secondary|{min(a_key, b_key)}|{max(a_key, b_key)}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    result: List[Corridor] = []
    cities = sorted(CITIES, key=lambda c: c.key)
    for i, a in enumerate(cities):
        for b in cities[i + 1:]:
            if frozenset((a.key, b.key)) in primary_edges:
                continue
            if scalar_distance_km(a, b) > max_km:
                continue
            if pair_unit(a.key, b.key) >= probability:
                continue
            name = f"SR:{a.code}-{b.code}"
            result.append(
                Corridor(
                    name=name,
                    kind=KIND_ROAD,
                    waypoints=(a.key, b.key),
                    grade=GRADE_SECONDARY,
                )
            )
    return result


def link_geometry_reference(fiber_map: FiberMap, link: Link) -> Polyline:
    """A ground-truth link's geometry, joined one ``concat`` per hop."""
    line: Optional[Polyline] = None
    for (a, b), cid in zip(
        zip(link.city_path, link.city_path[1:]), link.conduit_ids
    ):
        conduit = fiber_map.conduit(cid)
        leg = conduit.geometry
        if a != conduit.edge[0]:
            leg = leg.reversed()
        line = leg if line is None else concat(line, leg)
    return line


def row_from_geometry_reference(registry, edge: EdgeKey,
                                geometry: Polyline) -> str:
    """Step 1's ROW match: each candidate's midpoint recomputed with
    ``point_at_km`` and scored with a one-point distance query."""
    best_row = None
    best_distance = float("inf")
    for row in registry.rows_for_edge(*edge):
        row_geometry = registry.geometry(row.row_id)
        midpoint = row_geometry.point_at_km(row_geometry.length_km / 2.0)
        distance = geometry.distance_to_point_km(midpoint)
        if distance < best_distance:
            best_distance = distance
            best_row = row
    if best_row is None:
        raise KeyError(f"no rights-of-way registered for edge {edge}")
    return best_row.row_id

