"""Transportation substrate: road/rail/pipeline networks and rights-of-way.

Replaces the paper's NationalAtlas layers and the state-by-state ROW
records: a geometric graph of corridors between city waypoints, a ROW
registry with per-state jurisdiction, and shortest-path / line-of-sight
queries used by the map pipeline (§2), the geography analysis (§3), and
the mitigation frameworks (§5).
"""

from repro.transport.builder import build_transport_network
from repro.transport.network import RowEdge, TransportationNetwork
from repro.transport.rightofway import RightOfWay, RowRegistry

__all__ = [
    "TransportationNetwork",
    "RowEdge",
    "build_transport_network",
    "RightOfWay",
    "RowRegistry",
]
