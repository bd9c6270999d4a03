"""The global submarine-cable map family (``global2023``).

A second map universe through the same stage graph: landing stations
and metro hubs (:mod:`repro.data.stations`) joined by submarine cable
systems and terrestrial backhaul, populated by intercontinental
carriers.  The ground truth comes from the one deployment process in
:mod:`repro.fibermap.synthesis` — carriers select POPs, plan links,
route them, and lease or trench conduits — run over the cable network
with this family's carriers and :data:`GLOBAL_RULES`, its only
family-specific economics.  Every downstream stage and the routing
substrate consume the result unchanged.

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
from typing import Optional, Sequence, Set, Tuple

from repro.data.corridors import KIND_SEA
from repro.data.isps import ISPProfile
from repro.data.stations import GLOBAL_CORRIDORS, ensure_registered
from repro.families.base import MapFamily, register_family
from repro.fibermap.synthesis import (
    DeploymentRules,
    GroundTruth,
    synthesize_ground_truth,
)
from repro.transport.builder import build_transport_network
from repro.transport.network import TransportationNetwork
from repro.transport.rightofway import RightOfWay

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


def _pick_row(
    rows: Sequence[RightOfWay],
    used_row_ids: Set[str],
    rng: random.Random,
) -> Optional[str]:
    """The right-of-way for a new trench: prefer an unused cable row
    (the purpose-built medium), then any unused row.  Draws nothing."""
    unused = [r for r in rows if r.row_id not in used_row_ids]
    for row in unused:
        if row.kind == KIND_SEA:
            return row.row_id
    return unused[0].row_id if unused else None


GLOBAL_RULES = DeploymentRules(
    # Cables are the purpose-built medium; terrestrial backhaul is
    # slightly dispreferred for long-haul segments.
    kind_factors={"sea": 1.0, "road": 1.05},
    # Smaller than the US family's: there are far fewer viable ocean
    # paths, which is exactly why chokepoints form.
    jitter_spread=0.25,
    reuse_discount=0.55,
    # Carriers route over their own shortest cable paths whether or
    # not a trench exists there already.
    herd_discount=1.0,
    # Oceans are wide: nearby-POP preference operates at thousands of
    # kilometers.
    link_distance_scale_km=2500.0,
    # Every carrier through a passage shares one trench until it crowds
    # past this; chokepoints that never split accumulate the extreme
    # tenant counts — that is the point.
    parallel_threshold=10,
    max_parallel=2,
    parallel_prob=0.3,
    split_salt="gsplit",
    pick_row=_pick_row,
)


def synthesize_global_ground_truth(seed: int = 2023) -> GroundTruth:
    """Generate the global ground-truth world for one seed: the shared
    deployment process over the cable network, with the global carriers
    and :data:`GLOBAL_RULES`."""
    return synthesize_ground_truth(
        seed, build_global_network(), GLOBAL_ISPS, GLOBAL_RULES
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
