"""Metro-level fiber detail — the paper's §8 coverage future work.

"In future work, we plan to appeal to regional and metro fiber maps to
improve the coverage of the long-haul map."  Long-haul conduits
terminate at a city, but within the metro the fiber fans out over a
ring of colocation facilities and data centers.  This module synthesizes
deterministic metro rings for the map's hub cities and reports how much
infrastructure the metro layer adds — the coverage the long-haul map
alone understates.

Metro detail is deliberately kept out of the long-haul
:class:`~repro.fibermap.elements.FiberMap` (the paper's map excludes
metro-level links by definition, §1); the two layers join at the
*attachment city*.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.fibermap.synthesis import _stable_unit
from repro.geo.coords import GeoPoint, destination_point, haversine_km
from repro.geo.polyline import Polyline
from repro.perf.substrate import substrate_for

#: Metro ring radius scales with population (km).
_MIN_RADIUS_KM = 6.0
_MAX_RADIUS_KM = 35.0


@dataclass(frozen=True)
class MetroSite:
    """One colocation facility / data center on a metro ring."""

    name: str
    location: GeoPoint
    #: Long-haul tenants with presence in the facility.
    tenants: Tuple[str, ...]


@dataclass(frozen=True)
class MetroRing:
    """The metro fiber ring of one hub city."""

    city_key: str
    sites: Tuple[MetroSite, ...]
    #: Ring segments as closed-loop site index pairs.
    segments: Tuple[Tuple[int, int], ...]

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def ring_km(self) -> float:
        total = 0.0
        for i, j in self.segments:
            total += haversine_km(
                self.sites[i].location, self.sites[j].location
            )
        return total

    def geometry(self) -> Polyline:
        """The ring as a closed polyline."""
        points = [site.location for site in self.sites]
        points.append(self.sites[0].location)
        return Polyline(points)


def _ring_radius_km(population: int) -> float:
    """Radius grows with log-population, clamped to sane metro scales."""
    if population <= 0:
        return _MIN_RADIUS_KM
    scale = (math.log10(population) - 4.0) / 3.0  # 10k .. 10M -> 0 .. 1
    scale = min(1.0, max(0.0, scale))
    return _MIN_RADIUS_KM + scale * (_MAX_RADIUS_KM - _MIN_RADIUS_KM)


def build_metro_ring(
    fiber_map: FiberMap,
    city_key: str,
    seed: int = 71,
) -> MetroRing:
    """Deterministic metro ring for one city.

    Site count scales with the number of long-haul providers present;
    each site hosts a stable subset of them.
    """
    city = city_by_name(city_key)
    node = fiber_map.nodes.get(city_key)
    providers = sorted(node.isps) if node is not None else []
    num_sites = max(3, min(12, 2 + len(providers) // 2))
    radius = _ring_radius_km(city.population)
    rng = random.Random(seed + int(_stable_unit(f"metro|{city_key}") * 2**31))
    sites: List[MetroSite] = []
    for i in range(num_sites):
        bearing = 360.0 * i / num_sites + rng.uniform(-12.0, 12.0)
        distance = radius * rng.uniform(0.55, 1.0)
        location = destination_point(city.location, bearing, distance)
        tenants = tuple(
            isp
            for isp in providers
            if _stable_unit(f"colo|{city_key}|{i}|{isp}") < 0.45
        )
        sites.append(
            MetroSite(
                name=f"{city.code}-colo{i + 1}",
                location=location,
                tenants=tenants,
            )
        )
    segments = tuple(
        (i, (i + 1) % num_sites) for i in range(num_sites)
    )
    return MetroRing(city_key=city_key, sites=sites, segments=segments)


@dataclass(frozen=True)
class MetroCoverageReport:
    """How much infrastructure the metro layer adds (§8 coverage)."""

    rings: Tuple[MetroRing, ...]
    longhaul_conduit_km: float

    @property
    def metro_sites(self) -> int:
        return sum(r.num_sites for r in self.rings)

    @property
    def metro_km(self) -> float:
        return sum(r.ring_km for r in self.rings)

    @property
    def coverage_gain(self) -> float:
        """Metro fiber mileage as a fraction of long-haul mileage."""
        if self.longhaul_conduit_km <= 0:
            return 0.0
        return self.metro_km / self.longhaul_conduit_km


def metro_coverage(
    fiber_map: FiberMap,
    top: int = 20,
    seed: int = 71,
) -> MetroCoverageReport:
    """Build rings for the *top* most-connected cities and measure them."""
    if top <= 0:
        raise ValueError("top must be positive")
    degrees = substrate_for(fiber_map).conduit_degrees()
    hubs = sorted(degrees, key=lambda kv: (-kv[1], kv[0]))[:top]
    rings = tuple(
        build_metro_ring(fiber_map, city_key, seed=seed)
        for city_key, _ in hubs
    )
    longhaul_km = sum(c.length_km for c in fiber_map.conduits.values())
    return MetroCoverageReport(
        rings=rings, longhaul_conduit_km=longhaul_km
    )
