"""The compiled buffer-overlap kernel against the per-point oracle (§3).

``CorridorIndex.near`` answers a whole route with one samples ×
candidates distance matrix; ``tests.oracles.geo`` answers one sample at
a time from its cell ring.  Every sample's hit set must be identical —
on both families' corridor networks (global2023 adds submarine ``sea``
corridors), on random corridor sets reaching high latitude, and through
the whole ``geography_report``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.analysis import geography
from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint
from repro.geo.overlap import CorridorIndex
from repro.geo.polyline import Polyline
from repro.geo.vectorized import points_to_arrays
from tests.oracles import geo as oracle

BUFFERS_KM = (5.0, 15.0, 30.0, 40.0)
SPACINGS_KM = (5.0, 10.0)

#: Every n-th conduit route of each family is sampled: the oracle costs
#: ~0.1 ms a sample, and the index covers the whole network either way.
ROUTE_STRIDE = {"us2015": 8, "global2023": 4}

KINDS = ("road", "rail", "pipeline", "sea")


def _hit_sets(index, samples, radius_km):
    lats, lons = points_to_arrays(samples)
    return [
        frozenset(k for k, hit in zip(sorted(index.kinds), row) if hit)
        for row in index.near(lats, lons, radius_km).tolist()
    ]


def _assert_parity(index, reference, routes, spacing_km, radius_km):
    """Assert per-sample parity; return (samples hit, samples missed)."""
    hit = missed = 0
    for route in routes:
        samples = route.resample(spacing_km)
        want = [reference.kinds_near(p, radius_km) for p in samples]
        assert _hit_sets(index, samples, radius_km) == want
        hit += sum(1 for kinds in want if kinds)
        missed += sum(1 for kinds in want if not kinds)
    return hit, missed


@pytest.mark.parametrize("spacing_km", SPACINGS_KM)
@pytest.mark.parametrize("buffer_km", BUFFERS_KM)
def test_family_hit_sets_match_oracle(family_scenario, buffer_km, spacing_km):
    network = family_scenario.network
    conduits = sorted(family_scenario.constructed_map.conduits.items())
    stride = ROUTE_STRIDE[family_scenario.config.family]
    routes = [conduit.geometry for _, conduit in conduits[::stride]]
    hit, _ = _assert_parity(
        network.corridor_index(), oracle.corridor_index(network),
        routes, spacing_km, buffer_km,
    )
    assert hit > 0


def _random_corridors(seed):
    """Random walks starting between 25°N and 78°N, tagged with random
    kinds."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(60):
        start = (rng.uniform(25.0, 78.0), rng.uniform(-125.0, -70.0))
        steps = rng.normal(0.0, 0.4, size=(int(rng.integers(2, 8)), 2))
        path = np.cumsum(np.vstack([start, steps]), axis=0)
        line = Polyline([GeoPoint(float(a), float(b)) for a, b in path])
        lines.append((line, KINDS[int(rng.integers(len(KINDS)))]))
    return lines


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_corridor_hit_sets_match_oracle(seed):
    corridors = _random_corridors(seed)
    index, reference = CorridorIndex(), oracle.OracleCorridorIndex()
    for line, kind in corridors:
        index.add(line, kind)
        reference.add(line, kind)
    # Routes wander within ~0.3° of corridors, so samples land both inside
    # and outside every buffer.
    rng = np.random.default_rng(seed + 100)
    routes = [
        Polyline([
            GeoPoint(p.lat + float(dlat), p.lon + float(dlon))
            for p, (dlat, dlon) in zip(line, rng.normal(0.0, 0.3, (len(line), 2)))
        ])
        for line, _ in corridors[:20]
    ]
    for buffer_km in BUFFERS_KM:
        for spacing_km in SPACINGS_KM:
            hit, missed = _assert_parity(
                index, reference, routes, spacing_km, buffer_km
            )
            assert hit > 0 and missed > 0


def test_geography_report_matches_oracle(family_scenario, monkeypatch):
    fiber_map, network = family_scenario.constructed_map, family_scenario.network
    compiled = geography.geography_report(fiber_map, network)
    reference = oracle.corridor_index(network)
    monkeypatch.setattr(
        geography, "overlap_profile",
        lambda route, index, buffer_km, spacing_km: oracle.overlap_profile(
            route, reference, buffer_km, spacing_km
        ),
    )
    # A shallow copy is a new map to the memo, so the oracle runs.
    assert geography.geography_report(copy.copy(fiber_map), network) == compiled


@pytest.mark.parametrize("lat, radius_km", [(60.0, 100.0), (70.0, 40.0),
                                             (75.0, 40.0)])
def test_high_latitude_ring_reaches_the_buffer(lat, radius_km):
    """A point at the east edge of its cell and a north-south segment
    just beyond the old ring (sized at 111 km per degree of longitude)
    but inside the buffer: both the kernel and the oracle must see it."""
    cell = 0.5
    point = GeoPoint(lat + 0.2, -100.0 - 1e-9)
    old_ring = int(np.ceil(radius_km / (111.0 * cell))) + 1
    seg_lon = point.lon + (old_ring + 0.02) * cell
    expected_km = (
        (seg_lon - point.lon) * np.pi * EARTH_RADIUS_KM / 180.0
        * np.cos(np.radians(point.lat))
    )
    assert expected_km < radius_km
    line = Polyline([GeoPoint(lat, seg_lon), GeoPoint(lat + 0.4, seg_lon)])
    index, grid = CorridorIndex(cell_deg=cell), oracle.SpatialGridIndex(cell)
    index.add(line, "road")
    grid.insert_polyline(line, "road")
    assert index.kinds_near(point, radius_km) == {"road"}
    assert grid.within(point, radius_km) == {"road"}
    assert grid.nearest_distance_km(point, radius_km) == pytest.approx(
        expected_km, rel=1e-9
    )
