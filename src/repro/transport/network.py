"""The transportation network: a geometric multigraph of rights-of-way."""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.data.cities import city_by_name
from repro.data.corridors import Corridor
from repro.geo.overlap import CorridorIndex
from repro.geo.polyline import Polyline
from repro.perf.substrate import row_view

EdgeKey = Tuple[str, str]

#: One compiled corridor index per network (weak-keyed); the lock makes
#: each build single-flight across threads.
_INDEXES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_INDEX_LOCK = threading.Lock()


class UnknownCityError(KeyError):
    """A city is on no allowed right-of-way corridor."""


class NoRouteError(ValueError):
    """Two cities are not connected over the allowed corridor kinds."""


def canonical_edge(a_key: str, b_key: str) -> EdgeKey:
    """Order-independent edge key between two city keys (or two router
    keys of the router-level topology)."""
    return (a_key, b_key) if a_key <= b_key else (b_key, a_key)


@dataclass
class RowEdge:
    """One city-pair right-of-way edge and every corridor that covers it.

    ``geometries`` maps corridor name to the leg geometry oriented from
    ``edge[0]`` to ``edge[1]`` (canonical order).
    """

    edge: EdgeKey
    kinds: Set[str] = field(default_factory=set)
    corridor_names: Set[str] = field(default_factory=set)
    geometries: Dict[str, Polyline] = field(default_factory=dict)
    kind_of: Dict[str, str] = field(default_factory=dict)
    grade_of: Dict[str, str] = field(default_factory=dict)
    #: ``length_km``, cached until the next leg is added.
    _length_km: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def is_primary(self) -> bool:
        """True when at least one covering corridor is a primary route."""
        return any(g == "primary" for g in self.grade_of.values())

    @property
    def length_km(self) -> float:
        """Length of the shortest covering corridor geometry."""
        if self._length_km is None:
            self._length_km = min(g.length_km for g in self.geometries.values())
        return self._length_km

    def geometry_for_kind(self, kind: str) -> Optional[Polyline]:
        """A representative geometry of the given *kind*, if any covers it."""
        for name in sorted(self.corridor_names):
            if self.kind_of[name] == kind:
                return self.geometries[name]
        return None


class TransportationNetwork:
    """Road/rail/pipeline rights-of-way as a geometric graph over cities.

    Supports the queries the paper's analyses rely on:

    * shortest ROW path between two cities, optionally restricted to a
      set of infrastructure kinds (§5.3 "new conduit following existing
      roads or railways");
    * line-of-sight distance (the §5.3 lower bound);
    * a :class:`~repro.geo.overlap.CorridorIndex` per infrastructure kind
      for buffer-overlap analysis (§3).
    """

    def __init__(self) -> None:
        self._cities: Set[str] = set()
        self._edges: Dict[EdgeKey, RowEdge] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_corridor_leg(
        self, a_key: str, b_key: str, corridor: Corridor, geometry: Polyline
    ) -> None:
        """Register one corridor leg between two cities."""
        # Validate both endpoints exist in the city dataset.
        city_by_name(a_key)
        city_by_name(b_key)
        key = canonical_edge(a_key, b_key)
        record = self._edges.get(key)
        if record is None:
            record = RowEdge(edge=key)
            self._edges[key] = record
        record.kinds.add(corridor.kind)
        record.corridor_names.add(corridor.name)
        # Store canonical orientation.
        record.geometries[corridor.name] = (
            geometry if a_key == key[0] else geometry.reversed()
        )
        record.kind_of[corridor.name] = corridor.kind
        record.grade_of[corridor.name] = corridor.grade
        record._length_km = None
        self._cities.update(key)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def cities(self) -> List[str]:
        return sorted(self._cities)

    def edges(self) -> List[RowEdge]:
        return [self._edges[k] for k in sorted(self._edges)]

    def edge(self, a_key: str, b_key: str) -> RowEdge:
        return self._edges[canonical_edge(a_key, b_key)]

    def edges_of_kind(self, kind: str) -> List[RowEdge]:
        return [e for e in self.edges() if kind in e.kinds]

    def __contains__(self, city_key: str) -> bool:
        return city_key in self._cities

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def los_km(self, a_key: str, b_key: str) -> float:
        """Line-of-sight (great circle) distance between two cities."""
        return city_by_name(a_key).distance_km(city_by_name(b_key))

    def row_shortest_path(
        self,
        a_key: str,
        b_key: str,
        kinds: Optional[Iterable[str]] = None,
    ) -> Tuple[List[str], float]:
        """Shortest right-of-way path between two cities.

        Each edge weighs the shortest covering geometry among the allowed
        *kinds* (every kind by default).  Returns ``(city_key_path,
        length_km)``.  Raises :class:`NoRouteError` when the cities are
        not connected over the allowed kinds, :class:`UnknownCityError`
        when either city is not on any allowed corridor.
        """
        view = row_view(self, kinds)
        for role, key in (("Source", a_key), ("Target", b_key)):
            if not view.present(key):
                raise UnknownCityError(f"{role} {key} is on no allowed corridor")
        path = view.shortest_path(a_key, b_key, "length_km")
        if path is None:
            raise NoRouteError(f"No path between {a_key} and {b_key}.")
        return [view.nodes[i] for i in path], view.path_length(path, "length_km")

    def corridor_index(self) -> CorridorIndex:
        """Spatial index of all corridor geometry by infrastructure kind,
        built and compiled once.  Networks are not edited once their
        builder returns, so the index never goes stale."""
        with _INDEX_LOCK:
            index = _INDEXES.get(self)
            if index is None:
                index = _INDEXES[self] = CorridorIndex()
                for record in self.edges():
                    for name in sorted(record.corridor_names):
                        index.add(record.geometries[name], record.kind_of[name])
                index.compile()
        return index

    def total_km(self, kind: Optional[str] = None) -> float:
        """Total corridor mileage (length of each covering geometry)."""
        total = 0.0
        for record in self.edges():
            for name in sorted(record.corridor_names):
                if kind is None or record.kind_of[name] == kind:
                    total += record.geometries[name].length_km
        return total
