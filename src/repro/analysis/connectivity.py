"""Connectivity characterization of the long-haul map (Figure 1).

The paper's prominent features of the constructed map: dense deployments
(northeast, coasts), long-haul hubs (Denver, Salt Lake City), pronounced
absence of infrastructure (upper plains, four corners), parallel
deployments, and spurs.  This module quantifies each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap, MapStats
from repro.perf.substrate import GraphView, substrate_for


@dataclass(frozen=True)
class ConnectivityReport:
    """Quantified Figure 1 features."""

    stats: MapStats
    #: Cities ranked by conduit degree (the long-haul hubs).
    top_hubs: Tuple[Tuple[str, int], ...]
    #: City-pair edges hosting more than one parallel conduit.
    parallel_edges: Tuple[Tuple[str, str], ...]
    #: Degree-1 cities (spur endpoints).
    spurs: Tuple[str, ...]
    #: Conduit endpoints per coarse region (conduit density proxy).
    region_density: Dict[str, float]
    #: Whether the conduit graph is a single connected component.
    connected: bool
    diameter_hops: int


#: Coarse census-style regions by state, for the density contrast
#: between the dense northeast and the empty upper plains/four corners.
_REGIONS: Dict[str, str] = {}
for _region, _states in {
    "northeast": ("NY", "NJ", "PA", "MA", "CT", "RI", "NH", "VT", "ME", "MD", "DE", "DC"),
    "southeast": ("VA", "NC", "SC", "GA", "FL", "AL", "MS", "TN", "KY", "WV", "LA", "AR"),
    "midwest": ("OH", "MI", "IN", "IL", "WI", "MN", "IA", "MO"),
    "plains": ("ND", "SD", "NE", "KS", "OK"),
    "four_corners": ("UT", "CO", "NM", "AZ"),
    "mountain": ("MT", "WY", "ID", "NV"),
    "pacific": ("CA", "OR", "WA"),
    "texas": ("TX",),
}.items():
    for _state in _states:
        _REGIONS[_state] = _region


def region_of(city_key: str) -> str:
    """Coarse region of a city."""
    return _REGIONS.get(city_by_name(city_key).state, "other")


def hop_components(view: GraphView) -> Tuple[int, int]:
    """``(components, diameter_hops)`` over the view's present nodes:
    how many connected components they form, and the largest hop
    eccentricity within any of them (NetworkX's ``diameter`` of each
    component), from one batched hop-count Dijkstra."""
    present = [key for key in view.nodes if view.present(key)]
    if not present:
        return 0, 0
    hops = GraphView(
        view.nodes, view.index, view.eu, view.ev,
        {"hops": np.ones(view.num_edges)},
    )
    dist, _pred, _row_of = hops.dijkstra(present, "hops")
    reach = np.isfinite(dist[:, [view.index[key] for key in present]])
    # Each row's first reachable present node labels its component.
    components = len(np.unique(np.argmax(reach, axis=1)))
    return components, int(dist[np.isfinite(dist)].max())


def connectivity_report(fiber_map: FiberMap, top: int = 10) -> ConnectivityReport:
    """Quantify the map's Figure 1 features."""
    conduits = substrate_for(fiber_map)
    degrees = dict(conduits.conduit_degrees())
    top_hubs = tuple(
        sorted(degrees.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    )
    parallel = tuple(
        sorted(
            {
                c.edge
                for c in fiber_map.conduits.values()
                if len(fiber_map.conduits_between(*c.edge)) > 1
            }
        )
    )
    spurs = tuple(sorted(c for c, d in degrees.items() if d == 1))
    # Conduit-kilometers per region (each conduit split between the
    # regions of its endpoints).
    density: Dict[str, float] = {}
    for conduit in fiber_map.conduits.values():
        for key in conduit.edge:
            region = region_of(key)
            density[region] = density.get(region, 0.0) + conduit.length_km / 2.0
    components, diameter = hop_components(conduits.conduit_view())
    return ConnectivityReport(
        stats=fiber_map.stats(),
        top_hubs=top_hubs,
        parallel_edges=parallel,
        spurs=spurs,
        region_density=density,
        connected=components == 1,
        diameter_hops=diameter,
    )
