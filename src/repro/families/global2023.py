"""The global submarine-cable map family (``global2023``).

A second map universe through the same stage graph: landing stations
and metro hubs (:mod:`repro.data.stations`) joined by submarine cable
systems and terrestrial backhaul, populated by intercontinental
carriers.  The synthesis is deliberately self-contained — it shares the
:class:`~repro.fibermap.synthesis.GroundTruth` contract, the POP
selection and link-planning machinery, and the right-of-way registry
with the US family, but never touches the US synthesis path, so the
``us2015`` goldens cannot move.

Risk semantics follow the submarine world: a "conduit" on a shared edge
is the shared trench/passage itself.  Because several independent cable
systems traverse the same chokepoints (Port Said–Suez, Bab el-Mandeb,
Malacca, Gibraltar — see :data:`repro.data.stations.CABLE_SYSTEMS`) and
carriers all route over the same shortest cable paths, tenancy
concentrates exactly where the real Internet's does, and the §4 risk
matrix surfaces Suez/Malacca-style chokepoint risk.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from repro.data.cities import city_by_name
from repro.data.corridors import KIND_SEA
from repro.data.isps import ISPProfile
from repro.data.stations import GLOBAL_CORRIDORS, ensure_registered
from repro.families.base import MapFamily, register_family
from repro.fibermap.elements import Conduit, FiberMap
from repro.fibermap.synthesis import (
    GroundTruth,
    _plan_links,
    _RowRouter,
    _select_pops,
    _stable_unit,
)
from repro.transport.builder import build_transport_network
from repro.transport.network import (
    EdgeKey,
    RowEdge,
    TransportationNetwork,
    canonical_edge,
)
from repro.transport.rightofway import RowRegistry

#: Tenants in an edge's shared trench before a second, physically
#: separate conduit (another cable system's trench on the same passage)
#: becomes attractive.
SHARED_TRENCH_THRESHOLD = 10
#: Maximum physically separate conduits per edge (chokepoints that stay
#: at one accumulate the extreme tenant counts — that is the point).
MAX_PARALLEL = 2
#: Fraction of edges with room for a separate trench (sticky per edge).
PARALLEL_PROB = 0.3
#: Relative routing cost per right-of-way kind: cables are the purpose-
#: built medium; terrestrial backhaul is slightly dispreferred for
#: long-haul segments.
KIND_FACTORS = {"sea": 1.0, "road": 1.05}
#: Magnitude of per-carrier route diversity (fraction of edge length).
#: Smaller than the US family's: there are far fewer viable ocean paths,
#: which is exactly why chokepoints form.
JITTER_SPREAD = 0.25
#: Discount applied to edges a carrier already lights (trunk reuse).
REUSE_DISCOUNT = 0.55
#: Distance scale (km) of the extra-link acceptance decay.  Oceans are
#: wide: nearby-POP preference operates at thousands of kilometers.
LINK_DISTANCE_SCALE_KM = 2500.0

#: Intercontinental carrier footprints.  Names are synthetic (the point
#: is footprint structure, not identity); targets are sized to the
#: ~30-city global universe.  ``step`` keeps the §2 construction
#: pipeline's two-phase semantics: step-1 carriers publish geocoded
#: cable maps, step-3 carriers publish POP lists only.
GLOBAL_ISPS: Tuple[ISPProfile, ...] = (
    ISPProfile("Aquila", "tier1", 1, 24, 40, hub_bias=1.2),
    ISPProfile("Meridian", "tier1", 1, 20, 32, hub_bias=1.5),
    ISPProfile("Pacifica", "tier1", 1, 16, 24, hub_bias=1.8),
    ISPProfile("Atlantica", "tier1", 1, 14, 20, hub_bias=2.0),
    ISPProfile("OrientLink", "tier1", 3, 12, 18, hub_bias=2.2),
    ISPProfile("IndoPacific", "tier1", 3, 12, 16, hub_bias=1.6),
    ISPProfile("EuroRing", "regional", 3, 9, 12, hub_bias=1.4),
    ISPProfile("PolarJet", "tier1", 3, 10, 14, hub_bias=2.4),
    ISPProfile("AustralNet", "regional", 3, 8, 10, hub_bias=1.0),
    ISPProfile("RedSea Telecom", "regional", 3, 7, 9, hub_bias=1.2),
)


#: Traceroute campaign mixes over the global carriers: eyeball traffic
#: enters through the access-heavy regionals plus the biggest tier-1
#: footprints; destinations skew toward the transit backbones.
GLOBAL_CLIENT_ISPS: Tuple[Tuple[str, float], ...] = (
    ("EuroRing", 3.0),
    ("AustralNet", 1.5),
    ("RedSea Telecom", 1.0),
    ("Aquila", 2.5),
    ("Meridian", 2.0),
    ("IndoPacific", 1.5),
)
GLOBAL_DEST_ISPS: Tuple[Tuple[str, float], ...] = (
    ("Aquila", 5.0),
    ("Meridian", 3.0),
    ("Pacifica", 2.5),
    ("Atlantica", 2.0),
    ("OrientLink", 1.8),
    ("IndoPacific", 1.5),
    ("PolarJet", 1.2),
    ("EuroRing", 1.0),
)


def build_global_network() -> TransportationNetwork:
    """The global transport network: cable systems + backhaul only."""
    ensure_registered()
    return build_transport_network(corridors=GLOBAL_CORRIDORS)


class _CableRouter(_RowRouter):
    """Routes one carrier's links over the cable/backhaul network.

    Weights combine geometry length, medium preference, and a small
    per-carrier jitter; a reuse discount consolidates each carrier onto
    its own lit systems.  With few ocean paths and small jitter, all
    carriers converge on the same passages — the chokepoint effect.
    """

    def __init__(self, isp: str, network: TransportationNetwork):
        def weight_of(record: RowEdge) -> float:
            kind_factor = min(
                KIND_FACTORS[record.kind_of[name]]
                for name in record.corridor_names
            )
            jitter = 1.0 + JITTER_SPREAD * _stable_unit(
                f"{isp}|{record.edge[0]}|{record.edge[1]}"
            )
            return record.length_km * kind_factor * jitter

        super().__init__(network, weight_of, REUSE_DISCOUNT)


def _pick_row(rows: List, used_row_ids: Set[str]) -> Optional[object]:
    """The right-of-way for a new trench: prefer an unused cable row
    (the purpose-built medium), then any unused row."""
    unused = [r for r in rows if r.row_id not in used_row_ids]
    if not unused:
        return None
    for row in unused:
        if row.kind == KIND_SEA:
            return row
    return unused[0]


def _occupy_edge(
    fiber_map: FiberMap,
    registry: RowRegistry,
    edge: EdgeKey,
    isp: str,
    used_row_ids: Set[str],
) -> Conduit:
    """Find or create the shared trench *isp* uses on one edge.

    One conduit per edge until it crowds past
    :data:`SHARED_TRENCH_THRESHOLD` — every carrier through a passage
    shares the trench, which is what makes a chokepoint a chokepoint.
    """
    existing = fiber_map.conduits_between(*edge)
    for conduit in existing:
        if isp in conduit.tenants:
            return conduit
    rows = registry.rows_for_edge(*edge)
    if existing:
        least = min(existing, key=lambda c: (c.num_tenants, c.conduit_id))
        crowded = least.num_tenants >= SHARED_TRENCH_THRESHOLD
        splittable = (
            _stable_unit(f"gsplit|{edge[0]}|{edge[1]}") < PARALLEL_PROB
        )
        if crowded and splittable and len(existing) < MAX_PARALLEL:
            row = _pick_row(rows, used_row_ids)
            if row is not None:
                used_row_ids.add(row.row_id)
                return fiber_map.add_conduit(
                    edge[0], edge[1], row.row_id,
                    registry.geometry(row.row_id),
                )
        return least
    row = _pick_row(rows, used_row_ids)
    if row is None:  # pragma: no cover - rows always exist for edges
        raise RuntimeError(f"no right-of-way available for edge {edge}")
    used_row_ids.add(row.row_id)
    return fiber_map.add_conduit(
        edge[0], edge[1], row.row_id, registry.geometry(row.row_id)
    )


def synthesize_global_ground_truth(seed: int = 2023) -> GroundTruth:
    """Generate the global ground-truth world for one seed.

    Same process shape as the US synthesis — carriers select POPs, plan
    links, route them, and occupy trenches — so every downstream stage
    (construction pipeline, topology, campaign, overlay, risk matrix)
    and the routing substrate consume the result unchanged.
    """
    network = build_global_network()
    registry = RowRegistry(network)
    rng = random.Random(seed)
    fiber_map = FiberMap()
    used_row_ids: Set[str] = set()
    city_pool = [city_by_name(k) for k in sorted(network.cities())]

    for profile in GLOBAL_ISPS:
        pops = _select_pops(profile, city_pool, rng)
        planned = _plan_links(
            pops, profile.target_links, rng, LINK_DISTANCE_SCALE_KM
        )
        router = _CableRouter(profile.name, network)
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
                    profile.name, used_row_ids,
                )
                conduit_ids.append(conduit.conduit_id)
                registry.occupy(conduit.row_id, profile.name)
            fiber_map.add_link(profile.name, path, conduit_ids)
    return GroundTruth(
        fiber_map=fiber_map,
        network=network,
        registry=registry,
        seed=seed,
        profiles=GLOBAL_ISPS,
    )


#: The experiments meaningful on a global submarine map.  Excluded:
#: the US layer renders (fig2_3, fig5), the road/rail co-location
#: histogram (fig4), the US west-east partition study (ext_partition),
#: the US Title II policy model (ext_policy), the NSFNET-1995
#: comparison (ext_nsfnet), and the US-growth trajectory (ext_growth),
#: which all assume the US corridor datasets.
GLOBAL_EXPERIMENTS = frozenset({
    "table1", "fig1", "fig6", "fig7", "fig8", "table2_3", "fig9",
    "table4", "fig10", "table5", "fig11", "fig12",
    "ext_resilience", "ext_exchange", "ext_protection", "ext_annotated",
    "ext_opacity", "ext_capacity",
})

GLOBAL2023 = register_family(MapFamily(
    name="global2023",
    title="Global submarine-cable map (landing stations + cable systems)",
    description=(
        "Intercontinental carriers over submarine cable systems and "
        "terrestrial backhaul, with shared-trench/chokepoint risk "
        "groups (Suez, Bab el-Mandeb, Malacca, Gibraltar)."
    ),
    geographic_model="submarine-great-circle",
    risk_semantics="shared-trench-chokepoint",
    synthesize=synthesize_global_ground_truth,
    row_kinds=(("sea", "road"),),
    experiments=GLOBAL_EXPERIMENTS,
    default_seed=2023,
    prepare=ensure_registered,
    client_isps=GLOBAL_CLIENT_ISPS,
    dest_isps=GLOBAL_DEST_ISPS,
))
