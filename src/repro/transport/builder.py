"""Build corridor geometry and assemble the transportation network.

Real corridors are not great circles: highways and rail lines meander
around terrain, which is why deployed fiber routes are longer than the
line of sight (the paper's Figure 12 contrasts deployed routes, best
rights-of-way, and LOS).  We synthesize that meander deterministically:
each corridor leg is densified and offset perpendicular to its bearing
by a low-frequency sinusoid whose phase is derived from the corridor
name, giving stable, reproducible geometry whose length runs a few
percent over the great circle.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, List, Optional

from repro.data.cities import city_by_name
from repro.data.corridors import CORRIDORS, Corridor, secondary_road_corridors
from repro.geo.coords import (
    GeoPoint,
    bearing_deg,
    destination_point,
    great_circle_interpolate,
    haversine_km,
)
from repro.geo.polyline import Polyline
from repro.transport.network import TransportationNetwork

#: Default meander amplitude and wavelength, kilometers.
DEFAULT_MEANDER_AMP_KM = 7.0
DEFAULT_MEANDER_WAVELENGTH_KM = 90.0
#: Densification spacing along each leg.
DEFAULT_POINT_SPACING_KM = 20.0


def _corridor_phase(name: str) -> float:
    """Stable per-corridor phase in [0, 2*pi) derived from its name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (digest[0] * 256 + digest[1]) / 65536.0 * 2.0 * math.pi


def _meander_leg(
    a: GeoPoint,
    b: GeoPoint,
    phase: float,
    amp_km: float,
    wavelength_km: float,
    spacing_km: float,
) -> List[GeoPoint]:
    """Points of one meandered leg from *a* (inclusive) to *b* (exclusive)."""
    leg_km = haversine_km(a, b)
    points = [a]
    if leg_km < spacing_km * 1.5 or amp_km <= 0.0:
        return points
    n = max(2, int(leg_km / spacing_km))
    heading = bearing_deg(a, b) + 90.0
    for i in range(1, n):
        fraction = i / n
        base = great_circle_interpolate(a, b, fraction)
        # Offset perpendicular to the instantaneous bearing.  The sine
        # vanishes at the endpoints so legs join continuously at cities.
        along_km = fraction * leg_km
        offset = (
            amp_km
            * math.sin(math.pi * fraction)
            * math.sin(2.0 * math.pi * along_km / wavelength_km + phase)
        )
        if abs(offset) > 1e-9:
            base = destination_point(base, heading, offset)
        points.append(base)
    return points


def corridor_leg_polyline(
    corridor: Corridor,
    a_key: str,
    b_key: str,
    amp_km: float = DEFAULT_MEANDER_AMP_KM,
    wavelength_km: float = DEFAULT_MEANDER_WAVELENGTH_KM,
    spacing_km: float = DEFAULT_POINT_SPACING_KM,
) -> Polyline:
    """Geometry of the single corridor leg from *a_key* to *b_key*.

    The pair must be consecutive waypoints of *corridor* (in either
    order); the returned polyline runs a_key -> b_key.
    """
    edges = corridor.edges()
    if (a_key, b_key) in edges:
        forward = True
    elif (b_key, a_key) in edges:
        forward = False
    else:
        raise ValueError(
            f"({a_key!r}, {b_key!r}) is not a leg of corridor {corridor.name}"
        )
    start_key, end_key = (a_key, b_key) if forward else (b_key, a_key)
    a = city_by_name(start_key).location
    b = city_by_name(end_key).location
    phase = _corridor_phase(corridor.name)
    points = _meander_leg(a, b, phase, amp_km, wavelength_km, spacing_km)
    points.append(b)
    line = Polyline(points)
    return line if forward else line.reversed()


def build_transport_network(
    corridors: Optional[Iterable[Corridor]] = None,
    amp_km: float = DEFAULT_MEANDER_AMP_KM,
    wavelength_km: float = DEFAULT_MEANDER_WAVELENGTH_KM,
    spacing_km: float = DEFAULT_POINT_SPACING_KM,
    include_secondary: bool = True,
) -> TransportationNetwork:
    """Assemble the full transportation network from corridor definitions.

    Every consecutive waypoint pair of every corridor becomes one edge;
    edges covered by multiple corridors carry one geometry per corridor.
    With ``include_secondary`` (the default), the deterministic US-route /
    state-highway grid is added alongside the named primary corridors;
    secondary roads meander more than interstates.
    """
    network = TransportationNetwork()
    if corridors is not None:
        pool = list(corridors)
    else:
        pool = list(CORRIDORS)
        if include_secondary:
            pool.extend(secondary_road_corridors())
    for corridor in pool:
        if corridor.kind == "pipeline":
            # Pipelines cut cross-country far from the road grid (the
            # paper's Figure 5 situation: "no known transportation
            # infrastructure is co-located").
            leg_amp = amp_km * 3.5
        elif corridor.grade == "primary":
            leg_amp = amp_km
        else:
            leg_amp = amp_km * 1.6
        for a_key, b_key in corridor.edges():
            geometry = corridor_leg_polyline(
                corridor, a_key, b_key, leg_amp, wavelength_km, spacing_km
            )
            network.add_corridor_leg(a_key, b_key, corridor, geometry)
    return network
