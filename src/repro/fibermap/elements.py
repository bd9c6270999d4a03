"""Model of the long-haul fiber map: nodes, links, conduits.

Terminology follows the paper (§2): a **conduit** is "a tube or trench
specially built to house the fiber of potentially multiple providers"
between two cities along one right-of-way; a **link** is one provider's
long-haul fiber span between two of its POP cities, realized as a path
over one or more conduits; a **node** is a city that terminates at least
one conduit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.geo.polyline import Polyline
from repro.transport.network import EdgeKey, canonical_edge


@dataclass
class Node:
    """A city terminating at least one conduit."""

    city_key: str
    isps: Set[str] = field(default_factory=set)


@dataclass
class Conduit:
    """One physical conduit between two cities along one right-of-way."""

    conduit_id: str
    edge: EdgeKey
    row_id: str
    geometry: Polyline
    tenants: Set[str] = field(default_factory=set)

    @property
    def length_km(self) -> float:
        return self.geometry.length_km

    @property
    def num_tenants(self) -> int:
        return len(self.tenants)

    @property
    def endpoints(self) -> Tuple[str, str]:
        return self.edge

    def describe(self) -> str:
        a, b = self.edge
        return f"{a} <-> {b} ({self.num_tenants} tenants, {self.length_km:.0f} km)"


@dataclass
class Link:
    """One provider's long-haul link: a conduit path between two POPs."""

    link_id: str
    isp: str
    endpoints: EdgeKey
    city_path: Tuple[str, ...]
    conduit_ids: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.city_path) < 2:
            raise ValueError("a link needs at least two cities")
        if len(self.conduit_ids) != len(self.city_path) - 1:
            raise ValueError(
                f"link {self.link_id}: {len(self.conduit_ids)} conduits for "
                f"{len(self.city_path)} cities"
            )

    @property
    def num_hops(self) -> int:
        """Number of conduits the link traverses."""
        return len(self.conduit_ids)


@dataclass(frozen=True)
class MapStats:
    """Headline counts of a fiber map (the paper's Figure 1 caption)."""

    num_nodes: int
    num_links: int
    num_conduits: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.num_nodes} nodes, {self.num_links} links, "
            f"{self.num_conduits} conduits"
        )


class FiberMap:
    """The long-haul fiber-optic map: conduits, provider links, nodes.

    Conduit identity is physical (one trench); provider links reference
    conduit ids, and tenancy is maintained automatically as links are
    added.  The graph views §4 (risk), §4.3 (overlay) and §5
    (mitigation) route on are compiled from it once, by
    :func:`repro.perf.substrate.substrate_for`.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._conduits: Dict[str, Conduit] = {}
        self._links: Dict[str, Link] = {}
        self._conduits_by_edge: Dict[EdgeKey, List[str]] = {}
        self._links_by_isp: Dict[str, List[str]] = {}
        self._conduit_seq = 0
        self._link_seq = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_conduit(
        self,
        a_key: str,
        b_key: str,
        row_id: str,
        geometry: Polyline,
        conduit_id: Optional[str] = None,
    ) -> Conduit:
        """Create a new conduit between two cities along *row_id*."""
        edge = canonical_edge(a_key, b_key)
        if conduit_id is None:
            # Skip over ids taken by explicitly-identified conduits
            # (deserialized or merged maps).
            while True:
                self._conduit_seq += 1
                conduit_id = f"C{self._conduit_seq:04d}"
                if conduit_id not in self._conduits:
                    break
        if conduit_id in self._conduits:
            raise ValueError(f"duplicate conduit id: {conduit_id}")
        conduit = Conduit(conduit_id=conduit_id, edge=edge, row_id=row_id,
                          geometry=geometry)
        self._conduits[conduit_id] = conduit
        self._conduits_by_edge.setdefault(edge, []).append(conduit_id)
        for key in edge:
            self._nodes.setdefault(key, Node(city_key=key))
        return conduit

    def add_link(
        self,
        isp: str,
        city_path: Iterable[str],
        conduit_ids: Iterable[str],
        link_id: Optional[str] = None,
    ) -> Link:
        """Add one provider link over an existing conduit path.

        Registers the provider as tenant of every conduit on the path and
        as present at every city along it.
        """
        path = tuple(city_path)
        ids = tuple(conduit_ids)
        if link_id is None:
            while True:
                self._link_seq += 1
                link_id = f"L{self._link_seq:05d}"
                if link_id not in self._links:
                    break
        if link_id in self._links:
            raise ValueError(f"duplicate link id: {link_id}")
        # Validate the conduit path is contiguous and matches the city path.
        for (a, b), cid in zip(zip(path, path[1:]), ids):
            conduit = self._conduits.get(cid)
            if conduit is None:
                raise KeyError(f"unknown conduit {cid}")
            if conduit.edge != canonical_edge(a, b):
                raise ValueError(
                    f"conduit {cid} spans {conduit.edge}, not ({a}, {b})"
                )
        link = Link(
            link_id=link_id,
            isp=isp,
            endpoints=canonical_edge(path[0], path[-1]),
            city_path=path,
            conduit_ids=ids,
        )
        self._links[link_id] = link
        self._links_by_isp.setdefault(isp, []).append(link_id)
        for cid in ids:
            self._conduits[cid].tenants.add(isp)
        for key in path:
            node = self._nodes.setdefault(key, Node(city_key=key))
            node.isps.add(isp)
        return link

    def add_tenant(self, conduit_id: str, isp: str) -> None:
        """Record tenancy directly (used by records-based inference)."""
        self._conduits[conduit_id].tenants.add(isp)
        for key in self._conduits[conduit_id].edge:
            node = self._nodes.setdefault(key, Node(city_key=key))
            node.isps.add(isp)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Dict[str, Node]:
        return self._nodes

    @property
    def conduits(self) -> Dict[str, Conduit]:
        return self._conduits

    @property
    def links(self) -> Dict[str, Link]:
        return self._links

    def conduit(self, conduit_id: str) -> Conduit:
        return self._conduits[conduit_id]

    def link(self, link_id: str) -> Link:
        return self._links[link_id]

    def conduits_between(self, a_key: str, b_key: str) -> List[Conduit]:
        """All (possibly parallel) conduits between two adjacent cities."""
        edge = canonical_edge(a_key, b_key)
        return [self._conduits[c] for c in self._conduits_by_edge.get(edge, [])]

    def isps(self) -> List[str]:
        """Providers with at least one link, in name order."""
        return sorted(self._links_by_isp)

    def links_of(self, isp: str) -> List[Link]:
        return [self._links[i] for i in self._links_by_isp.get(isp, [])]

    def conduits_of(self, isp: str) -> List[Conduit]:
        """Conduits where *isp* is a tenant, in id order."""
        return [
            c for _, c in sorted(self._conduits.items()) if isp in c.tenants
        ]

    def stats(self) -> MapStats:
        return MapStats(
            num_nodes=len(self._nodes),
            num_links=len(self._links),
            num_conduits=len(self._conduits),
        )

    def tenancy(self) -> Dict[str, FrozenSet[str]]:
        """Map of conduit id to its (frozen) tenant set."""
        return {cid: frozenset(c.tenants) for cid, c in self._conduits.items()}
