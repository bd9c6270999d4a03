"""Partitioning the US long-haul infrastructure (§4's security metric).

The paper notes that "certain metrics (e.g., number of fiber cuts to
partition the US long-haul infrastructure) have associated security
implications", and footnote 8 adds: "when accounting for alternate
routes via undersea cables, network partitioning for the US Internet is
a very unlikely scenario."  This module computes both: the minimum
number of right-of-way cuts that split the west coast from the east
coast over the terrestrial conduit graph, and the same figure when the
coastal undersea bypass (landing stations on both seaboards) is
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.data.cities import city_by_name
from repro.fibermap.elements import FiberMap
from repro.perf.substrate import minimum_cut
from repro.transport.network import EdgeKey, canonical_edge

#: Cities with major undersea cable landing stations, by seaboard.
WEST_LANDINGS = ("Seattle, WA", "San Francisco, CA", "Los Angeles, CA",
                 "San Diego, CA")
EAST_LANDINGS = ("Boston, MA", "New York, NY", "Norfolk, VA", "Miami, FL")

#: Longitude bounds classifying coastal anchor cities.
_WEST_LON = -115.0
_EAST_LON = -80.0


@dataclass(frozen=True)
class PartitionReport:
    """Minimum cuts to split west from east."""

    #: Right-of-way edges in the minimum cut.
    cut_edges: Tuple[EdgeKey, ...]
    #: Number of ROW cuts needed.
    min_cuts: int
    #: Same with the undersea bypass; ``None`` when partitioning becomes
    #: impossible (footnote 8's claim).
    min_cuts_with_undersea: Optional[int]

    @property
    def partitionable_with_undersea(self) -> bool:
        return self.min_cuts_with_undersea is not None


#: The super-source and super-sink tied to every coastal city.
_SOURCE, _SINK = "__WEST__", "__EAST__"


def _west_east_capacities(
    fiber_map: FiberMap, isp: Optional[str] = None
) -> Dict[EdgeKey, int]:
    """One unit of capacity per city pair (with one of *isp*'s conduits
    when given), and 10**6 from the super-source to each west-coast city
    on those pairs and from each east-coast one to the super-sink.

    Cuts are physical dig events, so parallel conduits collapse into one
    edge (one trench event severs them together).
    """
    capacity = {
        conduit.edge: 1
        for conduit in fiber_map.conduits.values()
        if isp is None or isp in conduit.tenants
    }
    for city in sorted({city for edge in capacity for city in edge}):
        lon = city_by_name(city).lon
        if lon <= _WEST_LON:
            capacity[(_SOURCE, city)] = 10**6
        elif lon >= _EAST_LON:
            capacity[(_SINK, city)] = 10**6
    return capacity


def partition_report(fiber_map: FiberMap) -> PartitionReport:
    """Minimum west-east ROW cuts, with and without the undersea bypass."""
    capacity = _west_east_capacities(fiber_map)
    if not {_SOURCE, _SINK} <= {a for a, _ in capacity}:
        raise ValueError("map lacks coastal anchor cities")
    cut_value, east_side = minimum_cut(capacity, _SOURCE, _SINK)
    cut_edges = tuple(
        sorted(
            (a, b) for (a, b), units in capacity.items()
            if units == 1 and (a in east_side) != (b in east_side)
        )
    )
    # Undersea bypass: landing stations on each seaboard are mutually
    # reachable by sea, which an inland backhoe cannot touch.  A bypass
    # pair that is also a ROW edge takes the bypass capacity.
    landings = [
        c for c in WEST_LANDINGS + EAST_LANDINGS if c in fiber_map.nodes
    ]
    for i, a in enumerate(landings):
        for b in landings[i + 1:]:
            capacity[canonical_edge(a, b)] = 10**6
    cut_with_sea, _ = minimum_cut(capacity, _SOURCE, _SINK)
    return PartitionReport(
        cut_edges=cut_edges,
        min_cuts=cut_value,
        min_cuts_with_undersea=cut_with_sea if cut_with_sea < 10**6 else None,
    )


def isp_partition_cuts(fiber_map: FiberMap, isp: str) -> int:
    """Minimum ROW cuts to split one provider's own network west-east.

    Returns 0 when the provider has no presence on one of the coasts
    (nothing to partition: no flow leaves the super-source or reaches
    the super-sink).
    """
    return minimum_cut(_west_east_capacities(fiber_map, isp), _SOURCE, _SINK)[0]
