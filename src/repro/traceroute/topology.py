"""Router-level topologies on top of the fiber plant.

Each provider gets one core router per POP city; its router adjacencies
are its fiber links, with edge latency equal to the propagation delay
over the link's conduit path.  Providers interconnect at peering cities
where both have routers.  Two features mirror measurement reality:

* **MPLS opacity** (§4.3: "the prevalent use of MPLS tunnels ... poses
  one potential pitfall"): some providers hide interior hops;
* **phantom providers**: networks like SoftLayer and MFN that ride the
  same conduits but are not among the 20 studied providers — the paper
  *infers* them from traceroute naming, e.g. "we inferred the presence
  of an additional 13 ISPs that also share that conduit".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.data.cities import city_by_name, city_table
from repro.fibermap.elements import FiberMap
from repro.fibermap.synthesis import GroundTruth, _stable_unit
from repro.geo.coords import fiber_delay_ms
from repro.perf.routing import RoutingCore
from repro.perf.substrate import GraphView, substrate_for
from repro.traceroute.addressing import AddressPlan
from repro.transport.network import canonical_edge

#: Extra providers visible in traceroute data but outside the 20-ISP
#: study (Table 4 lists SoftLayer and MFN among the top carriers).
PHANTOM_PROVIDERS: Tuple[str, ...] = (
    "SoftLayer",
    "MFN",
    "GTT",
    "Windstream",
    "Frontier",
    "US Signal",
    "FiberLight",
    "Lumos",
    "Fibertech",
    "Unite Private",
    "Crown Castle",
    "Alpheus",
    "Bluebird",
)

#: Providers with heavy MPLS deployment hide interior hops.
MPLS_PROBABILITY = 0.3
#: Fraction of routers published without a geographic naming hint.
NO_HINT_PROBABILITY = 0.12
#: Latency cost of crossing a peering interconnect (processing + metro
#: cross-connect), milliseconds one-way.
PEERING_PENALTY_MS = 1.2
#: Maximum peering cities per provider pair.
MAX_PEERINGS_PER_PAIR = 6


def _slug(isp: str) -> str:
    return (
        isp.lower()
        .replace("&", "")
        .replace(" ", "")
        .replace(".", "")
    )


@dataclass(frozen=True)
class Router:
    """One core router: the unit of traceroute visibility."""

    isp: str
    city_key: str
    ip: str
    dns_name: str
    has_hint: bool

    @property
    def node(self) -> Tuple[str, str]:
        """Graph node key."""
        return (self.isp, self.city_key)


class InternetTopology:
    """The simulated router-level Internet over a fiber map.

    Parameters
    ----------
    ground_truth:
        The synthesized world; real providers' router adjacencies come
        from its fiber links.
    include_phantoms:
        Add the phantom providers (default true).
    seed:
        Drives phantom footprints, MPLS assignment, and naming-hint gaps.
    """

    def __init__(
        self,
        ground_truth: GroundTruth,
        include_phantoms: bool = True,
        seed: int = 23,
    ):
        self._gt = ground_truth
        self._rng = random.Random(seed)
        self._plan = AddressPlan()
        #: Router adjacency -> latency (ms).  An intra-provider key joins
        #: two routers of one provider; any other key is a peering.
        self._links: Dict[Tuple[Tuple[str, str], Tuple[str, str]], float] = {}
        self._routers: Dict[Tuple[str, str], Router] = {}
        self._mpls: Set[str] = set()
        self._link_conduits: Dict[Tuple[str, str, str], Tuple[str, ...]] = {}
        self._routing_core: Optional[RoutingCore] = None
        self._conduit_edges: Optional[Dict[str, Tuple[int, ...]]] = None
        fiber_map = ground_truth.fiber_map
        for isp in fiber_map.isps():
            self._add_provider_from_links(isp, fiber_map)
        if include_phantoms:
            for name in PHANTOM_PROVIDERS:
                self._add_phantom(name, fiber_map)
        self._add_peerings()
        # Each provider's routers sorted by city, built once: no router
        # is added after construction.
        self._routers_by_isp: Dict[str, List[Router]] = {}
        for node in sorted(self._routers):
            self._routers_by_isp.setdefault(node[0], []).append(
                self._routers[node]
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _router_for(self, isp: str, city_key: str) -> Router:
        node = (isp, city_key)
        existing = self._routers.get(node)
        if existing is not None:
            return existing
        ip = self._plan.address_for(isp, city_key)
        has_hint = _stable_unit(f"hint|{isp}|{city_key}") >= NO_HINT_PROBABILITY
        code = city_by_name(city_key).code
        slug = _slug(isp)
        if has_hint:
            dns_name = f"ae-1.cr1.{code}.{slug}.net"
        else:
            index = len(self._plan._city_index.get(isp, {}))
            dns_name = f"cr{index}.{slug}.net"
        router = Router(
            isp=isp, city_key=city_key, ip=ip, dns_name=dns_name,
            has_hint=has_hint,
        )
        self._routers[node] = router
        return router

    def _add_provider_from_links(self, isp: str, fiber_map: FiberMap) -> None:
        if _stable_unit(f"mpls|{isp}") < MPLS_PROBABILITY:
            self._mpls.add(isp)
        for link in fiber_map.links_of(isp):
            a, b = link.endpoints
            ra = self._router_for(isp, a)
            rb = self._router_for(isp, b)
            length = sum(
                fiber_map.conduit(cid).length_km for cid in link.conduit_ids
            )
            latency = fiber_delay_ms(length)
            key = (isp, *canonical_edge(a, b))
            pair = canonical_edge(ra.node, rb.node)
            if pair not in self._links or latency < self._links[pair]:
                self._links[pair] = latency
                self._link_conduits[key] = tuple(link.conduit_ids)

    def _add_phantom(self, name: str, fiber_map: FiberMap) -> None:
        """A phantom provider rides existing conduits between its POPs."""
        if _stable_unit(f"mpls|{name}") < MPLS_PROBABILITY:
            self._mpls.add(name)
        cs = substrate_for(fiber_map)
        view = cs.conduit_view()
        cities = [c for c in view.nodes if view.present(c)]
        weights = [city_by_name(c).population for c in cities]
        count = self._rng.randint(10, 36)
        pops = sorted(set(self._rng.choices(cities, weights=weights, k=count)))
        if len(pops) < 2:
            return
        # Spanning skeleton over the conduit graph.
        ordered = sorted(pops, key=lambda c: -city_by_name(c).population)
        table = city_table()
        connected = [ordered[0]]
        connected_rows = [table.index[ordered[0]]]
        for city in ordered[1:]:
            # Nearest connected POP; argmin keeps min()'s first minimum.
            nearest = np.argmin(table.row(city)[connected_rows])
            partner = connected[int(nearest)]
            path = view.shortest_path(city, partner, "length_km")
            if path is None:
                continue
            connected.append(city)
            connected_rows.append(table.index[city])
            conduit_ids = cs.path_conduits(view, path)
            length = view.path_length(path, "length_km")
            ra = self._router_for(name, city)
            rb = self._router_for(name, partner)
            key = (name, *canonical_edge(city, partner))
            self._links[canonical_edge(ra.node, rb.node)] = fiber_delay_ms(length)
            self._link_conduits[key] = tuple(conduit_ids)

    def _add_peerings(self) -> None:
        """Interconnect provider pairs at their biggest common cities."""
        by_isp: Dict[str, Set[str]] = {}
        for (isp, city_key) in self._routers:
            by_isp.setdefault(isp, set()).add(city_key)
        names = sorted(by_isp)
        for i, isp_a in enumerate(names):
            for isp_b in names[i + 1:]:
                common = by_isp[isp_a] & by_isp[isp_b]
                if not common:
                    continue
                chosen = sorted(
                    common, key=lambda c: -city_by_name(c).population
                )[:MAX_PEERINGS_PER_PAIR]
                for city_key in chosen:
                    pair = canonical_edge((isp_a, city_key), (isp_b, city_key))
                    self._links[pair] = PEERING_PENALTY_MS

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def routing_core(self) -> RoutingCore:
        """One compiled routing core shared by every probe engine, over
        the sorted routers with the ``ms`` latency as its weight.

        The links never change after construction, so the compiled
        arrays and cached rows stay valid for the topology's lifetime.
        """
        if self._routing_core is None:
            nodes = sorted(self._routers)
            index = {node: i for i, node in enumerate(nodes)}
            eu = [index[u] for u, _ in self._links]
            ev = [index[v] for _, v in self._links]
            ms = {"ms": list(self._links.values())}
            self._routing_core = RoutingCore(GraphView(nodes, index, eu, ev, ms), "ms")
        return self._routing_core

    def conduit_edges(self) -> Dict[str, Tuple[int, ...]]:
        """Conduit id -> the routing core's edge ids riding through it.

        Only intra-provider adjacencies carry fiber; peering edges map
        to no conduit.  Built once, like :meth:`routing_core`, so a cut
        finds its dead router adjacencies by lookup instead of a scan.
        """
        if self._conduit_edges is None:
            core = self.routing_core()
            by_conduit: Dict[str, List[int]] = {}
            for u, v in self._links:
                if u[0] != v[0]:  # a peering carries no fiber
                    continue
                edge = core.edge_index(u, v)
                for cid in self.conduits_for_hop(u[0], u[1], v[1]):
                    by_conduit.setdefault(cid, []).append(edge)
            self._conduit_edges = {
                cid: tuple(edges) for cid, edges in by_conduit.items()
            }
        return self._conduit_edges

    def providers(self) -> List[str]:
        return sorted({isp for isp, _ in self._routers})

    def router(self, isp: str, city_key: str) -> Router:
        return self._routers[(isp, city_key)]

    def routers_of(self, isp: str) -> List[Router]:
        """*isp*'s routers, sorted by city."""
        return list(self._routers_by_isp.get(isp, ()))

    def cities_of(self, isp: str) -> List[str]:
        """*isp*'s router cities, sorted."""
        return [r.city_key for r in self._routers_by_isp.get(isp, ())]

    def has_router(self, isp: str, city_key: str) -> bool:
        return (isp, city_key) in self._routers

    def uses_mpls(self, isp: str) -> bool:
        return isp in self._mpls

    def conduits_for_hop(
        self, isp: str, city_a: str, city_b: str
    ) -> Tuple[str, ...]:
        """Ground-truth conduit ids under one intra-provider router hop."""
        return self._link_conduits.get((isp, *canonical_edge(city_a, city_b)), ())
