"""Deterministic ground-truth synthesis of the US long-haul fiber plant.

The paper reverse-engineers a real, unobservable ground truth (which
conduits exist, who has fiber in them) from published maps and public
records.  To reproduce the *process*, we first need such a ground truth.
This module synthesizes one with the economics the paper describes:

* providers deploy fiber between their POP cities along existing
  rights-of-way (roads preferred, then rail, then pipelines — §3);
* "substantial cost savings" push providers into previously installed
  conduits rather than new trenches (§1), so conduit sharing concentrates
  on trunk corridors;
* heavily tenanted corridors occasionally gain a second, parallel conduit
  (the paper's "parallel deployments (e.g., Kansas City to Denver)").

Everything is driven by one integer seed; two runs with the same seed
produce byte-identical maps.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.cities import City, city_by_name, city_table
from repro.data.isps import ISPS, STYLE_NATIONAL, STYLE_STATES, ISPProfile
from repro.fibermap.elements import Conduit, FiberMap
from repro.perf.substrate import row_view
from repro.transport.builder import build_transport_network
from repro.transport.network import (
    EdgeKey,
    RowEdge,
    TransportationNetwork,
    canonical_edge,
)
from repro.transport.rightofway import RowRegistry

#: Tenants on the least-loaded conduit of an edge before a parallel
#: conduit becomes attractive.
PARALLEL_THRESHOLD = 13
#: Maximum parallel conduits per city-pair edge.
MAX_PARALLEL = 2
#: Fraction of edges with room for a parallel conduit (sticky per edge;
#: pinch points that never split accumulate the extreme tenant counts of
#: the paper's twelve most-shared conduits).
PARALLEL_PROB = 0.35
#: Probability a brand-new conduit picks a road ROW when one exists.
ROAD_PREFERENCE = 0.8
#: Relative routing cost of non-road rights-of-way.
KIND_FACTORS = {"road": 1.0, "rail": 1.07, "pipeline": 1.12}
#: Routing penalty of secondary (US-route / state-highway) corridors.
#: Cable MSOs actively prefer the local-road grid of their own markets;
#: other facilities builders are indifferent; lessees can only go where
#: conduits already run, which keeps them on the primary trunk system.
SECONDARY_FACTOR_CABLE = 0.95
SECONDARY_FACTOR_BUILDER = 1.05
SECONDARY_FACTOR_LESSEE = 1.5
#: Magnitude of per-provider route diversity (fraction of edge length).
JITTER_SPREAD = 0.4
#: Discount applied to edges a provider already uses (trunk reuse).
REUSE_DISCOUNT = 0.55
#: Discount for edges where *any* provider already installed a conduit:
#: pulling fiber through an existing tube (IRU / dark-fiber lease) is far
#: cheaper than trenching a new one (§1, "substantial cost savings").
#: Applies to lessees; facilities builders are indifferent.
EXISTING_CONDUIT_DISCOUNT = 0.4
#: Distance scale of extra-link acceptance: a candidate link this long
#: is accepted with probability 1/2.
LINK_DISTANCE_SCALE_KM = 300.0


@dataclass
class GroundTruth:
    """The synthesized world: actual conduits, tenancy, and substrates."""

    fiber_map: FiberMap
    network: TransportationNetwork
    registry: RowRegistry
    seed: int
    profiles: Tuple[ISPProfile, ...]


def _stable_unit(token: str) -> float:
    """Deterministic pseudo-uniform value in [0, 1) from a string token."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _select_pops(
    profile: ISPProfile,
    cities: Sequence[City],
    rng: random.Random,
) -> List[str]:
    """Choose POP cities for one provider.

    Weighted sampling without replacement (A-Res scheme) with weight
    ``population ** (0.55 * hub_bias)``; regional styles restrict the pool
    to their states while keeping the national top hubs reachable.
    """
    pool = list(cities)
    if profile.style != STYLE_NATIONAL:
        states = set(STYLE_STATES[profile.style])
        hubs = sorted(pool, key=lambda c: -c.population)[:5]
        pool = [c for c in pool if c.state in states]
        # Regional tier-1s still interconnect at the national hubs; cable
        # MSOs and regional networks stay inside their markets (this is
        # what makes Suddenlink's deployments "geographically diverse"
        # yet lightly shared, §4.2).
        if profile.tier == "tier1":
            for hub in hubs:
                if hub not in pool:
                    pool.append(hub)
    count = min(profile.target_nodes, len(pool))
    exponent = 0.55 * profile.hub_bias

    def sample_key(city: City) -> float:
        weight = max(1.0, float(city.population)) ** exponent
        u = rng.random()
        # A-Res: larger key  <=>  more likely selected.
        return u ** (1.0 / weight)

    ranked = sorted(pool, key=sample_key, reverse=True)
    return sorted(c.key for c in ranked[:count])


def _plan_links(
    pops: List[str],
    target_links: int,
    rng: random.Random,
    scale_km: float = LINK_DISTANCE_SCALE_KM,
) -> List[EdgeKey]:
    """Plan which POP pairs a provider connects.

    A nearest-neighbor spanning skeleton guarantees connectivity; extra
    links (up to the Table 1 target) preferentially join nearby POPs,
    which is how real backbones grow: a candidate is accepted with a
    probability decaying in its distance on a *scale_km* scale.  Both
    read the POPs' rows of the compiled city table.
    """
    cities = {key: city_by_name(key) for key in pops}
    ordered = sorted(pops, key=lambda k: -cities[k].population)
    position = {key: i for i, key in enumerate(ordered)}
    distances = city_table().submatrix(ordered)
    links: Set[EdgeKey] = set()
    for i in range(1, len(ordered)):
        # Nearest of the POPs connected so far (ordered[:i]); argmin
        # keeps min()'s first minimum.
        partner = ordered[int(np.argmin(distances[i, :i]))]
        links.add(canonical_edge(ordered[i], partner))
    attempts = 0
    max_attempts = target_links * 200
    while len(links) < target_links and attempts < max_attempts:
        attempts += 1
        a = rng.choice(ordered)
        b = rng.choice(ordered)
        if a == b:
            continue
        edge = canonical_edge(a, b)
        if edge in links:
            continue
        distance = distances.item(position[a], position[b])
        if rng.random() < 1.0 / (1.0 + (distance / scale_km) ** 1.6):
            links.add(edge)
    return sorted(links)


class _RowRouter:
    """Routes one provider's links on its own clone of the network's
    compiled ROW view, weighted ``"w"`` by *weight_of*.  A used path's
    edges drop to ``reuse_discount`` of their weight, once (the
    keep-the-smaller rule of ``upsert_edge``), which consolidates the
    provider onto its own trunks."""

    def __init__(
        self,
        network: TransportationNetwork,
        weight_of: Callable[[RowEdge], float],
        reuse_discount: float,
    ):
        self.view = row_view(network).clone()
        base = np.empty(self.view.num_edges)
        for record in network.edges():
            base[self.view.edge_index(*record.edge)] = weight_of(record)
        self.view.weights["w"] = base
        self._reused = base * reuse_discount

    def route(self, a_key: str, b_key: str) -> List[str]:
        path = self.view.shortest_path(a_key, b_key, "w")
        if path is None:
            raise ValueError(f"no right-of-way path from {a_key} to {b_key}")
        return [self.view.nodes[i] for i in path]

    def mark_used(self, path: List[str]) -> None:
        for a, b in zip(path, path[1:]):
            reused = self._reused[self.view.edge_index(a, b)]
            self.view.upsert_edge(a, b, "w", {"w": reused})


class _IspRouter(_RowRouter):
    """Edge weights combine geometry length, right-of-way kind
    preference, a provider-specific deterministic jitter (route
    diversity across providers), and the lessee pull toward edges that
    already host a conduit."""

    def __init__(
        self,
        profile: ISPProfile,
        network: TransportationNetwork,
        edges_with_conduits: Set[EdgeKey],
    ):
        # Lessees are pulled hard toward edges that already host a conduit
        # (an IRU is far cheaper than trenching); facilities builders are
        # nearly indifferent and lay fiber where their own routing says.
        herd = EXISTING_CONDUIT_DISCOUNT if not profile.builder else 1.0
        if profile.tier == "cable":
            secondary_factor = SECONDARY_FACTOR_CABLE
        elif profile.builder:
            secondary_factor = SECONDARY_FACTOR_BUILDER
        else:
            secondary_factor = SECONDARY_FACTOR_LESSEE

        def weight_of(record: RowEdge) -> float:
            kind_factor = min(
                KIND_FACTORS[record.kind_of[name]]
                * (secondary_factor if record.grade_of[name] == "secondary" else 1.0)
                for name in record.corridor_names
            )
            jitter = 1.0 + JITTER_SPREAD * _stable_unit(
                f"{profile.name}|{record.edge[0]}|{record.edge[1]}"
            )
            weight = record.length_km * kind_factor * jitter
            if record.edge in edges_with_conduits:
                weight *= herd
            return weight

        super().__init__(network, weight_of, REUSE_DISCOUNT)


def _pick_row_for_new_conduit(
    edge: EdgeKey,
    registry: RowRegistry,
    used_row_ids: Set[str],
    rng: random.Random,
) -> Optional[str]:
    """Choose the right-of-way for a brand-new conduit on *edge*.

    Kinds are drawn with the empirical ROW mix of §3 — mostly roads,
    some rail, occasionally a pipeline right-of-way (Figure 5) — among
    the kinds still unused on the edge; returns ``None`` when every ROW
    on the edge already hosts a conduit.
    """
    candidates = [
        r for r in registry.rows_for_edge(*edge) if r.row_id not in used_row_ids
    ]
    if not candidates:
        return None
    by_kind = {"road": [], "rail": [], "pipeline": []}
    for row in candidates:
        by_kind[row.kind].append(row)
    weights = {"road": ROAD_PREFERENCE, "rail": 0.18, "pipeline": 0.12}
    available = [k for k in ("road", "rail", "pipeline") if by_kind[k]]
    total = sum(weights[k] for k in available)
    draw = rng.random() * total
    for kind in available:
        draw -= weights[kind]
        if draw <= 0.0:
            return by_kind[kind][0].row_id
    return by_kind[available[-1]][0].row_id


def synthesize_ground_truth(
    seed: int = 2015,
    network: Optional[TransportationNetwork] = None,
    profiles: Optional[Sequence[ISPProfile]] = None,
) -> GroundTruth:
    """Generate the full ground-truth world for one seed.

    Providers are processed in the paper's order (step-1 ISPs first); each
    provider selects POPs, plans links, routes them over rights-of-way,
    and occupies (or creates) conduits along the way.
    """
    if network is None:
        network = build_transport_network()
    registry = RowRegistry(network)
    chosen = tuple(profiles) if profiles is not None else ISPS
    rng = random.Random(seed)
    fiber_map = FiberMap()
    # Conduits already created, keyed by edge; rows already hosting one.
    used_row_ids: Set[str] = set()
    on_network = set(network.cities())
    city_pool = [city_by_name(k) for k in sorted(on_network)]

    for profile in chosen:
        pops = _select_pops(profile, city_pool, rng)
        planned = _plan_links(pops, profile.target_links, rng)
        edges_with_conduits = {
            c.edge for c in fiber_map.conduits.values()
        }
        router = _IspRouter(profile, network, edges_with_conduits)
        # Route long links first so trunks form before short spurs route.
        planned.sort(
            key=lambda e: -city_by_name(e[0]).distance_km(city_by_name(e[1]))
        )
        for a_key, b_key in planned:
            path = router.route(a_key, b_key)
            router.mark_used(path)
            conduit_ids: List[str] = []
            for u, v in zip(path, path[1:]):
                conduit = _occupy_edge(
                    fiber_map, registry, canonical_edge(u, v),
                    profile.name, used_row_ids, rng,
                )
                conduit_ids.append(conduit.conduit_id)
                registry.occupy(conduit.row_id, profile.name)
            fiber_map.add_link(profile.name, path, conduit_ids)
    return GroundTruth(
        fiber_map=fiber_map,
        network=network,
        registry=registry,
        seed=seed,
        profiles=chosen,
    )


def _occupy_edge(
    fiber_map: FiberMap,
    registry: RowRegistry,
    edge: EdgeKey,
    isp: str,
    used_row_ids: Set[str],
    rng: random.Random,
) -> Conduit:
    """Find or create the conduit *isp* uses on one city-pair edge."""
    existing = fiber_map.conduits_between(*edge)
    if not existing:
        row_id = _pick_row_for_new_conduit(edge, registry, used_row_ids, rng)
        if row_id is None:  # pragma: no cover - rows always exist for edges
            raise RuntimeError(f"no right-of-way available for edge {edge}")
        used_row_ids.add(row_id)
        return fiber_map.add_conduit(
            edge[0], edge[1], row_id, registry.geometry(row_id)
        )
    # Already a tenant somewhere on this edge?  Stay in that conduit.
    for conduit in existing:
        if isp in conduit.tenants:
            return conduit
    least_loaded = min(existing, key=lambda c: (c.num_tenants, c.conduit_id))
    crowded = least_loaded.num_tenants >= PARALLEL_THRESHOLD
    # Whether an edge can host a parallel conduit is a property of the
    # place (is there room along another ROW?), so the decision is sticky
    # per edge: pinch points that never split accumulate the extreme
    # tenant counts the paper observes (12 conduits shared by >17 ISPs).
    splittable = _stable_unit(f"split|{edge[0]}|{edge[1]}") < PARALLEL_PROB
    if crowded and splittable and len(existing) < MAX_PARALLEL:
        row_id = _pick_row_for_new_conduit(edge, registry, used_row_ids, rng)
        if row_id is not None:
            used_row_ids.add(row_id)
            return fiber_map.add_conduit(
                edge[0], edge[1], row_id, registry.geometry(row_id)
            )
    return least_loaded
