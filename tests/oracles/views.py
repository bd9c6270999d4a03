"""The per-failure views the substrate replaced.

Moved out of :mod:`repro.perf.substrate`, :mod:`repro.resilience.impact`,
:mod:`repro.routing.backup` and :mod:`repro.mitigation.robustness`: a
§5.1 exclusion built as a masked copy (or a ``clone()`` plus a weight
patch) of the cached conduit view, a cut's surviving footprint rebuilt
from the surviving rows, and ``plan_backup``'s penalized solve on a
``clone()`` with surcharged weights.  The package expresses each as an
edge mask and a per-call weight override over the one cached view
(:class:`repro.perf.substrate.Failure`); the parity suites require the
two to give the same answers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.mitigation.robustness import SuggestionOutcome, _optimized_path
from repro.perf.substrate import ConduitSubstrate, GraphView, substrate_for
from repro.resilience.cuts import CutEvent
from repro.resilience.impact import CutImpact, _assess_cut
from repro.routing.backup import SRLG_PENALTY_KM, BackupPlan
from repro.routing.srlg import shared_srlgs
from tests.oracles.resilience import hit_links_by_scan


# ----------------------------------------------------------------------
# §5.1: the conduit view with one conduit barred, as a view of its own
# ----------------------------------------------------------------------
def conduit_view_excluding(cs: ConduitSubstrate, conduit_id: str) -> GraphView:
    """The conduit view with one conduit barred from use.

    When the excluded conduit is not its pair's representative the
    base view already avoids it; otherwise the next-best parallel
    conduit takes over (or the pair edge disappears).
    """
    base = cs.conduit_view()
    row = cs.row_of[conduit_id]
    hits = np.flatnonzero(base.payload["conduit"] == row)
    if hits.size == 0:
        return base
    edge_pos = int(hits[0])
    parallel = np.flatnonzero((cs.cu == cs.cu[row]) & (cs.cv == cs.cv[row]))
    parallel = parallel[parallel != row]
    # argmin keeps the first fewest-tenant conduit in row order.
    replacement = (
        int(parallel[np.argmin(cs.tenants[parallel])]) if parallel.size else None
    )
    mask = np.ones(base.num_edges, dtype=bool)
    if replacement is None:
        mask[edge_pos] = False
        return GraphView(
            cs.nodes,
            cs.index,
            base.eu[mask],
            base.ev[mask],
            {k: v[mask] for k, v in base.weights.items()},
            {k: v[mask] for k, v in base.payload.items()},
        )
    view = base.clone()
    view.weights["risk"][edge_pos] = float(cs.tenants[replacement])
    view.weights["length_km"][edge_pos] = cs.length_km[replacement]
    view.payload["conduit"][edge_pos] = replacement
    return view


def optimized_path_reference(
    fiber_map: FiberMap, conduit_id: str
) -> Optional[Tuple[Tuple[str, ...], int]]:
    """:func:`repro.mitigation.robustness._optimized_path` solved on a
    fresh :func:`conduit_view_excluding` view, never memoized."""
    cs = substrate_for(fiber_map)
    view = conduit_view_excluding(cs, conduit_id)
    a, b = fiber_map.conduit(conduit_id).edge
    if not view.present(a) or not view.present(b):
        return None
    path = view.shortest_path(a, b, "risk")
    if path is None:
        return None
    rows = view.payload["conduit"][view.path_edges(path)]
    return cs.path_conduits(view, path), int(cs.tenants[rows].max())


def optimize_conduit_for_isp(
    fiber_map: FiberMap, matrix, isp: str, conduit_id: str
) -> Optional[SuggestionOutcome]:
    """Minimum-shared-risk alternate path around one conduit, as one
    provider's outcome; ``None`` when the conduit is a bridge."""
    result = _optimized_path(fiber_map, conduit_id)
    if result is None:
        return None
    conduits, max_risk = result
    return SuggestionOutcome(
        isp=isp,
        conduit_id=conduit_id,
        original_risk=fiber_map.conduit(conduit_id).num_tenants,
        optimized_conduits=conduits,
        optimized_max_risk=max_risk,
    )


# ----------------------------------------------------------------------
# Cuts: the provider's surviving footprint rebuilt per cut
# ----------------------------------------------------------------------
def surviving_footprint_view(
    cs: ConduitSubstrate, isp: str, dead_rows: set
) -> GraphView:
    """The provider's conduit graph minus *dead_rows*, collapsed to the
    shortest parallel conduit (the first in row order on ties), built
    uncached."""
    rows = cs.rows_for_isp(isp)
    rows = np.asarray([r for r in rows if int(r) not in dead_rows], dtype=np.int64)
    order = cs.length_km[rows]
    best = {}
    for pos in range(len(rows)):
        pair = (int(cs.cu[rows[pos]]), int(cs.cv[rows[pos]]))
        held = best.get(pair)
        if held is None or order[pos] < order[held]:
            best[pair] = pos
    keep = np.asarray(sorted(best.values()), dtype=np.int64)
    return GraphView(
        cs.nodes,
        cs.index,
        cs.cu[rows[keep]] if len(keep) else np.empty(0, dtype=np.int32),
        cs.cv[rows[keep]] if len(keep) else np.empty(0, dtype=np.int32),
        {"length_km": order[keep]},
        {"conduit": rows[keep]},
    )


def assess_cut_views_reference(
    fiber_map: FiberMap, event: CutEvent, overlay=None
) -> CutImpact:
    """:func:`repro.resilience.impact.assess_cut` with each provider's
    hit links found by scanning its links and its reroutes solved on a
    freshly built surviving-footprint view."""
    cs = substrate_for(fiber_map)
    dead_rows = {cs.row_of[cid] for cid in event.conduit_ids if cid in cs.row_of}

    def rerouter_for(isp, hit_links):
        view = surviving_footprint_view(cs, isp, dead_rows)
        dist, _pred, row_of = view.dijkstra(
            [link.endpoints[0] for link in hit_links], "length_km"
        )

        def rerouted(a: str, b: str) -> Optional[float]:
            if not view.present(a) or not view.present(b):
                return None
            km = float(dist[row_of[a], view.index[b]])
            return None if km == float("inf") else km

        return rerouted

    return _assess_cut(
        fiber_map, event, overlay, rerouter_for, hit_links_by_scan(fiber_map, event)
    )


# ----------------------------------------------------------------------
# §6: the penalized backup on a clone of the footprint view
# ----------------------------------------------------------------------
def plan_backup_clone_reference(
    fiber_map: FiberMap, isp: str, a_key: str, b_key: str
) -> Optional[BackupPlan]:
    """:func:`repro.routing.backup.plan_backup` with the penalized
    backup solved on a ``clone()`` carrying surcharged weights."""
    if a_key == b_key:
        raise ValueError(f"identical endpoints: {a_key}")
    cs = substrate_for(fiber_map)
    view = cs.footprint_view(isp)
    primary_path = view.shortest_path(a_key, b_key, "length_km")
    if primary_path is None:
        return None
    primary = cs.path_conduits(view, primary_path)
    primary_km = view.path_length(primary_path, "length_km")
    primary_edges = view.path_edges(primary_path)

    backup = None
    backup_km = None
    strict = np.ones(view.num_edges, dtype=bool)
    strict[primary_edges] = False
    backup_path = view.shortest_path(a_key, b_key, "length_km", strict)
    if backup_path is not None:
        backup = cs.path_conduits(view, backup_path)
        backup_km = view.path_length(backup_path, "length_km")
    else:
        penalized = view.clone()
        penalized.weights["length_km"][primary_edges] += SRLG_PENALTY_KM
        backup_path = penalized.shortest_path(a_key, b_key, "length_km")
        candidate = cs.path_conduits(view, backup_path)
        if candidate != primary:
            backup = candidate
            backup_km = view.path_length(backup_path, "length_km")
    shared = (
        shared_srlgs(fiber_map, primary, backup) if backup is not None else frozenset()
    )
    return BackupPlan(
        isp=isp,
        endpoints=(a_key, b_key),
        primary_conduits=primary,
        backup_conduits=backup,
        primary_delay_ms=fiber_delay_ms(primary_km),
        backup_delay_ms=fiber_delay_ms(backup_km) if backup_km is not None else None,
        shared_groups=shared,
    )
