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

This is the only deployment code: every map family runs it, and a
family differs only in its carriers, its transport network and its
:class:`DeploymentRules` (:data:`US_RULES` here; ``global2023`` keeps
its own beside its carriers).  The growth projection
(:mod:`repro.fibermap.evolution`) deploys its new links through
:func:`deploy_links` too.

Everything is driven by one integer seed; two runs with the same seed
produce byte-identical maps.
"""

from __future__ import annotations

import hashlib
import random
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.cities import City, city_by_name, city_table
from repro.data.isps import ISPS, STYLE_NATIONAL, STYLE_STATES, ISPProfile
from repro.fibermap.elements import Conduit, FiberMap
from repro.perf.substrate import row_view
from repro.transport.builder import build_transport_network
from repro.transport.network import EdgeKey, TransportationNetwork, canonical_edge
from repro.transport.rightofway import RightOfWay, RowRegistry

#: Probability a brand-new US conduit picks a road ROW when one exists.
ROAD_PREFERENCE = 0.8
#: Routing penalty of secondary (US-route / state-highway) corridors.
#: Cable MSOs actively prefer the local-road grid of their own markets;
#: other facilities builders are indifferent; lessees can only go where
#: conduits already run, which keeps them on the primary trunk system.
#: Only the US transport network has secondary corridors.
SECONDARY_FACTOR_CABLE = 0.95
SECONDARY_FACTOR_BUILDER = 1.05
SECONDARY_FACTOR_LESSEE = 1.5


@dataclass(frozen=True)
class DeploymentRules:
    """The economics one map family deploys fiber under.

    Every family runs the same process (:func:`deploy_links`): route
    each link over rights-of-way, then lease an existing conduit or
    trench a new one.  Families differ only in these values.
    """

    #: Relative routing cost per right-of-way kind.
    kind_factors: Dict[str, float]
    #: Magnitude of per-provider route diversity (fraction of edge length).
    jitter_spread: float
    #: Discount applied to edges a provider already uses (trunk reuse).
    reuse_discount: float
    #: Discount, for lessees, on edges where *any* provider already
    #: installed a conduit (the IRU / dark-fiber lease pull).
    herd_discount: float
    #: Distance scale of extra-link acceptance: a candidate link this
    #: long is accepted with probability 1/2.
    link_distance_scale_km: float
    #: Tenants on the least-loaded conduit of an edge before a parallel
    #: conduit becomes attractive.
    parallel_threshold: int
    #: Maximum parallel conduits per city-pair edge.
    max_parallel: int
    #: Fraction of edges with room for a parallel conduit (sticky per
    #: edge: pinch points that never split accumulate the extreme
    #: tenant counts).
    parallel_prob: float
    #: Salt of the per-edge hash that decides which edges can split.
    split_salt: str
    #: Chooses the right-of-way for a new conduit among an edge's rows
    #: (roads first, see :meth:`RowRegistry.rows_for_edge`) and the row
    #: ids already hosting a conduit; ``None`` when every row is taken.
    pick_row: Callable[
        [Sequence[RightOfWay], Set[str], random.Random], Optional[str]
    ]


def _pick_row_for_new_conduit(
    rows: Sequence[RightOfWay],
    used_row_ids: Set[str],
    rng: random.Random,
) -> Optional[str]:
    """Choose the right-of-way for a brand-new US conduit.

    Kinds are drawn with the empirical ROW mix of §3 — mostly roads,
    some rail, occasionally a pipeline right-of-way (Figure 5) — among
    the kinds still unused on the edge; returns ``None`` when every ROW
    on the edge already hosts a conduit.
    """
    candidates = [r for r in rows if r.row_id not in used_row_ids]
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


US_RULES = DeploymentRules(
    kind_factors={"road": 1.0, "rail": 1.07, "pipeline": 1.12},
    jitter_spread=0.4,
    reuse_discount=0.55,
    # Pulling fiber through an existing tube is far cheaper than
    # trenching a new one (§1, "substantial cost savings").
    herd_discount=0.4,
    link_distance_scale_km=300.0,
    parallel_threshold=13,
    max_parallel=2,
    parallel_prob=0.35,
    split_salt="split",
    pick_row=_pick_row_for_new_conduit,
)


@dataclass
class GroundTruth:
    """The synthesized world: actual conduits, tenancy, and substrates,
    plus the rules it was deployed under (growth reuses them)."""

    fiber_map: FiberMap
    network: TransportationNetwork
    registry: RowRegistry
    seed: int
    profiles: Tuple[ISPProfile, ...]
    rules: DeploymentRules


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
    scale_km: float,
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


#: Router terms that stay fixed per transport network, each indexed
#: like ``row_view(network)``'s edges (it compiles ``network.edges()``
#: in order): the edge keys, every provider's jitter units and the
#: kind factors per rule set and secondary factor.  Weak-keyed and
#: single-flight like ``row_view``, so they live as long as the network
#: and every router of a provider (synthesis, each growth year) shares
#: one hashing pass.
_ROUTER_TERMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_TERMS_LOCK = threading.Lock()


def _router_term(
    network: TransportationNetwork,
    key: Tuple,
    build: Callable[[List], object],
):
    with _TERMS_LOCK:
        terms = _ROUTER_TERMS.setdefault(network, {})
        value = terms.get(key)
        if value is None:
            value = terms[key] = build(network.edges())
    return value


class _IspRouter:
    """Routes one provider's links on its own clone of the network's
    compiled ROW view, weighted ``"w"``.

    Edge weights combine geometry length, right-of-way kind preference,
    a provider-specific deterministic jitter (route diversity across
    providers), and the lessee pull toward edges that already host a
    conduit.  A used path's edges drop to the reuse discount of their
    weight, once (the keep-the-smaller rule of ``upsert_edge``), which
    consolidates the provider onto its own trunks.
    """

    def __init__(
        self,
        profile: ISPProfile,
        network: TransportationNetwork,
        edges_with_conduits: Set[EdgeKey],
        rules: DeploymentRules,
    ):
        # Lessees are pulled hard toward edges that already host a conduit
        # (an IRU is far cheaper than trenching); facilities builders are
        # nearly indifferent and lay fiber where their own routing says.
        herd = rules.herd_discount if not profile.builder else 1.0
        if profile.tier == "cable":
            secondary_factor = SECONDARY_FACTOR_CABLE
        elif profile.builder:
            secondary_factor = SECONDARY_FACTOR_BUILDER
        else:
            secondary_factor = SECONDARY_FACTOR_LESSEE
        self.view = row_view(network).clone()
        factors = rules.kind_factors
        kind_factor = _router_term(
            network,
            ("kind", tuple(sorted(factors.items())), secondary_factor),
            lambda records: np.array([
                min(
                    factors[record.kind_of[name]]
                    * (secondary_factor
                       if record.grade_of[name] == "secondary" else 1.0)
                    for name in record.corridor_names
                )
                for record in records
            ]),
        )
        units = _router_term(
            network,
            ("jitter", profile.name),
            lambda records: np.array([
                _stable_unit(f"{profile.name}|{record.edge[0]}|{record.edge[1]}")
                for record in records
            ]),
        )
        edges = _router_term(
            network, ("edges",), lambda records: [r.edge for r in records]
        )
        jitter = 1.0 + rules.jitter_spread * units
        # Left to right, as the scalar ``length * kind * jitter``.
        weight = self.view.weights["length_km"] * kind_factor * jitter
        herded = np.fromiter(
            (edge in edges_with_conduits for edge in edges),
            dtype=bool,
            count=len(edges),
        )
        base = np.where(herded, weight * herd, weight)
        self.view.weights["w"] = base
        self._reused = base * rules.reuse_discount

    def route(self, a_key: str, b_key: str) -> List[str]:
        path = self.view.shortest_path(a_key, b_key, "w")
        if path is None:
            raise ValueError(f"no right-of-way path from {a_key} to {b_key}")
        return [self.view.nodes[i] for i in path]

    def mark_used(self, path: List[str]) -> None:
        for a, b in zip(path, path[1:]):
            reused = self._reused[self.view.edge_index(a, b)]
            self.view.upsert_edge(a, b, "w", {"w": reused})


def deploy_links(
    fiber_map: FiberMap,
    registry: RowRegistry,
    network: TransportationNetwork,
    profile: ISPProfile,
    pairs: Iterable[Tuple[str, str]],
    used_row_ids: Set[str],
    rng: random.Random,
    rules: DeploymentRules,
) -> None:
    """Route one provider's links between *pairs* of POPs and occupy (or
    create) a conduit on every edge of each route.

    *fiber_map* and *used_row_ids* grow in place.  *pairs* is consumed
    one link at a time, so a generator may draw from *rng* between the
    row draws of consecutive links.
    """
    edges_with_conduits = {c.edge for c in fiber_map.conduits.values()}
    router = _IspRouter(profile, network, edges_with_conduits, rules)
    for a_key, b_key in pairs:
        path = router.route(a_key, b_key)
        router.mark_used(path)
        conduit_ids = [
            _occupy_edge(
                fiber_map, registry, canonical_edge(u, v),
                profile.name, used_row_ids, rng, rules,
            ).conduit_id
            for u, v in zip(path, path[1:])
        ]
        fiber_map.add_link(profile.name, path, conduit_ids)


def synthesize_ground_truth(
    seed: int = 2015,
    network: Optional[TransportationNetwork] = None,
    profiles: Optional[Sequence[ISPProfile]] = None,
    rules: DeploymentRules = US_RULES,
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
    # Rows already hosting a conduit.
    used_row_ids: Set[str] = set()
    city_pool = [city_by_name(k) for k in sorted(network.cities())]

    for profile in chosen:
        pops = _select_pops(profile, city_pool, rng)
        planned = _plan_links(
            pops, profile.target_links, rng, rules.link_distance_scale_km
        )
        # Route long links first so trunks form before short spurs route.
        planned.sort(
            key=lambda e: -city_by_name(e[0]).distance_km(city_by_name(e[1]))
        )
        deploy_links(
            fiber_map, registry, network, profile, planned,
            used_row_ids, rng, rules,
        )
    return GroundTruth(
        fiber_map=fiber_map,
        network=network,
        registry=registry,
        seed=seed,
        profiles=chosen,
        rules=rules,
    )


def _occupy_edge(
    fiber_map: FiberMap,
    registry: RowRegistry,
    edge: EdgeKey,
    isp: str,
    used_row_ids: Set[str],
    rng: random.Random,
    rules: DeploymentRules,
) -> Conduit:
    """Find or create the conduit *isp* uses on one city-pair edge."""

    def trench() -> Optional[Conduit]:
        row_id = rules.pick_row(
            registry.rows_for_edge(*edge), used_row_ids, rng
        )
        if row_id is None:
            return None
        used_row_ids.add(row_id)
        return fiber_map.add_conduit(
            edge[0], edge[1], row_id, registry.geometry(row_id)
        )

    existing = fiber_map.conduits_between(*edge)
    if not existing:
        conduit = trench()
        if conduit is None:  # pragma: no cover - rows always exist for edges
            raise RuntimeError(f"no right-of-way available for edge {edge}")
        return conduit
    # Already a tenant somewhere on this edge?  Stay in that conduit.
    for conduit in existing:
        if isp in conduit.tenants:
            return conduit
    least_loaded = min(existing, key=lambda c: (c.num_tenants, c.conduit_id))
    crowded = least_loaded.num_tenants >= rules.parallel_threshold
    # Whether an edge can host a parallel conduit is a property of the
    # place (is there room along another ROW?), so the decision is sticky
    # per edge: pinch points that never split accumulate the extreme
    # tenant counts the paper observes (12 conduits shared by >17 ISPs).
    splittable = (
        _stable_unit(f"{rules.split_salt}|{edge[0]}|{edge[1]}")
        < rules.parallel_prob
    )
    if crowded and splittable and len(existing) < rules.max_parallel:
        conduit = trench()
        if conduit is not None:
            return conduit
    return least_loaded
