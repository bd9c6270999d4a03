"""Rights-of-way: jurisdiction and identity.

The paper leans on state-specific ROW law ("laws governing rights of way
are established on a state-by-state basis", §2.2) to drive systematic
public-records searches, and infers conduit sharing when multiple
providers' links align along the same ROW.  This module gives each
corridor leg a stable ROW identity with state jurisdiction.  Who
occupies a ROW is the tenancy of the one conduit built in it
(:attr:`repro.fibermap.elements.Conduit.tenants`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.data.cities import city_by_name
from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.transport.network import EdgeKey, TransportationNetwork, canonical_edge


@dataclass(frozen=True)
class RightOfWay:
    """One right-of-way: a corridor leg with legal jurisdiction.

    ``row_id`` is stable across runs: ``"{kind}:{corridor}:{a}--{b}"``.
    """

    row_id: str
    edge: EdgeKey
    kind: str
    corridor_name: str
    states: FrozenSet[str]

    @property
    def description(self) -> str:
        a, b = self.edge
        return f"{self.kind} ROW along {self.corridor_name} between {a} and {b}"


def _row_id(kind: str, corridor_name: str, edge: EdgeKey) -> str:
    return f"{kind}:{corridor_name}:{edge[0]}--{edge[1]}"


class RowRegistry:
    """All rights-of-way of a transportation network."""

    def __init__(self, network: TransportationNetwork):
        self._network = network
        self._rows: Dict[str, RightOfWay] = {}
        self._by_edge: Dict[EdgeKey, List[str]] = {}
        self._midpoints: Dict[str, GeoPoint] = {}
        for record in network.edges():
            for name in sorted(record.corridor_names):
                kind = record.kind_of[name]
                row_id = _row_id(kind, name, record.edge)
                states = frozenset(
                    city_by_name(key).state for key in record.edge
                )
                row = RightOfWay(
                    row_id=row_id,
                    edge=record.edge,
                    kind=kind,
                    corridor_name=name,
                    states=states,
                )
                self._rows[row_id] = row
                self._by_edge.setdefault(record.edge, []).append(row_id)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def row(self, row_id: str) -> RightOfWay:
        return self._rows[row_id]

    def rows(self) -> List[RightOfWay]:
        return [self._rows[k] for k in sorted(self._rows)]

    def rows_for_edge(self, a_key: str, b_key: str) -> List[RightOfWay]:
        """Candidate ROWs between two adjacent cities, roads first.

        "The number of possible rights-of-way between the endpoints of a
        fiber link are limited" (§2.4) — this is that limited candidate
        set, ordered road < rail < pipeline to mirror the paper's finding
        that conduits most often follow roadways.
        """
        key = canonical_edge(a_key, b_key)
        order = {"road": 0, "rail": 1, "pipeline": 2}
        ids = self._by_edge.get(key, [])
        return sorted(
            (self._rows[i] for i in ids),
            key=lambda r: (order.get(r.kind, 99), r.row_id),
        )

    def geometry(self, row_id: str) -> Polyline:
        """Canonical-orientation geometry of a ROW."""
        row = self._rows[row_id]
        record = self._network.edge(*row.edge)
        return record.geometries[row.corridor_name]

    def midpoint(self, row_id: str) -> GeoPoint:
        """The point halfway along a ROW's geometry (computed once)."""
        point = self._midpoints.get(row_id)
        if point is None:
            geometry = self.geometry(row_id)
            point = geometry.point_at_km(geometry.length_km / 2.0)
            self._midpoints[row_id] = point
        return point
