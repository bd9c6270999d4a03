"""Failures as data over cached views.

A §5.1 exclusion, a cut's surviving footprint and ``plan_backup``'s
penalized solve are each an edge mask and a per-call weight override
over one cached view (:class:`repro.perf.substrate.Failure`), and the
§5.1 optimum around a conduit is solved once per substrate.  These
tests hold that path to the per-failure views it replaced
(``tests/oracles/views.py``):

* parity — every conduit's §5.1 optimum on both families, all
  single-conduit cuts of the us2015 map, and ``plan_backup`` over
  ``protection_report``'s pairs;
* concurrency — threads issuing audits and Figure 10 on a fresh map get
  the serial answers, and the memo holds one entry per conduit;
* observability — a warmed scenario's cuts, audits and backups build
  no view (``substrate.view_builds``), while ``add`` builds one;
* §5.1 properties as Hypothesis tests on both families.
"""

from __future__ import annotations

import copy
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mitigation.robustness import (
    _optimized_path,
    _solve_optimum,
    optimize_all_isps,
    optimize_isp_around_conduits,
)
from repro.obs import tracing
from repro.perf.substrate import substrate_for
from repro.resilience.cuts import CutEvent, edge_cut
from repro.resilience.impact import assess_cut
from repro.resilience.traffic_shift import traffic_shift
from repro.risk.metrics import most_shared_conduits
from repro.routing.backup import plan_backup
from repro.service.handlers import handle_query
from repro.service.schema import AddConduitRequest
from tests.oracles.views import (
    assess_cut_views_reference,
    optimized_path_reference,
    plan_backup_clone_reference,
)
from tests.test_substrate import _random_fiber_map


def _protection_pairs(fiber_map, isp):
    """The pairs ``protection_report`` plans for a provider."""
    return sorted({link.endpoints for link in fiber_map.links_of(isp)})[:100]


def _view_builds(tracer) -> int:
    return sum(
        span.counters.get("substrate.view_builds", 0) for span in tracer.walk()
    )


# ----------------------------------------------------------------------
# Parity with the per-failure views
# ----------------------------------------------------------------------
class TestParity:
    def test_every_conduit_optimum_equals_the_view_build(self, family_scenario):
        fiber_map = family_scenario.constructed_map
        cs = substrate_for(fiber_map)
        for cid in sorted(fiber_map.conduits):
            expected = optimized_path_reference(fiber_map, cid)
            assert _solve_optimum(cs, cid) == expected, cid
            assert _optimized_path(fiber_map, cid) == expected, cid

    def test_every_single_conduit_cut_equals_the_view_build(self, scenario):
        fiber_map = scenario.constructed_map
        assert len(fiber_map.conduits) == 598
        for cid in sorted(fiber_map.conduits):
            event = CutEvent(description=cid, conduit_ids=frozenset({cid}))
            assert assess_cut(fiber_map, event) == assess_cut_views_reference(
                fiber_map, event
            ), cid

    def test_multi_conduit_cuts_equal_the_view_build(self, family_scenario):
        fiber_map = family_scenario.constructed_map
        overlay = family_scenario.overlay
        for cid, _ in most_shared_conduits(family_scenario.risk_matrix, top=12):
            event = edge_cut(fiber_map, *fiber_map.conduit(cid).edge)
            assert assess_cut(fiber_map, event, overlay) == (
                assess_cut_views_reference(fiber_map, event, overlay)
            )

    def test_backups_equal_the_clone_build(self, family_scenario):
        fiber_map = family_scenario.constructed_map
        penalized = 0
        for isp in fiber_map.isps():
            for a, b in _protection_pairs(fiber_map, isp):
                plan = plan_backup(fiber_map, isp, a, b)
                assert plan == plan_backup_clone_reference(fiber_map, isp, a, b)
                penalized += plan is not None and not plan.fully_diverse
        assert penalized  # the override branch is exercised

    def test_random_maps_equal_the_view_builds(self):
        for seed in range(8):
            fiber_map = _random_fiber_map(seed)
            cs = substrate_for(fiber_map)
            for cid in sorted(fiber_map.conduits):
                assert _solve_optimum(cs, cid) == optimized_path_reference(
                    fiber_map, cid
                )
                event = edge_cut(fiber_map, *fiber_map.conduit(cid).edge)
                assert assess_cut(fiber_map, event) == (
                    assess_cut_views_reference(fiber_map, event)
                )
            for isp in fiber_map.isps():
                for a, b in _protection_pairs(fiber_map, isp):
                    assert plan_backup(fiber_map, isp, a, b) == (
                        plan_backup_clone_reference(fiber_map, isp, a, b)
                    )


# ----------------------------------------------------------------------
# The memo under threads
# ----------------------------------------------------------------------
def test_threads_get_serial_answers_and_one_memo_entry_per_conduit(scenario):
    matrix = scenario.risk_matrix
    isps = list(matrix.isps)[:4]

    def work(fiber_map, i):
        if i % 2 == 0:
            return optimize_all_isps(fiber_map, matrix)
        return optimize_isp_around_conduits(fiber_map, matrix, isps[i // 2])

    serial_map = copy.deepcopy(scenario.constructed_map)
    serial = [work(serial_map, i) for i in range(8)]

    fresh = copy.deepcopy(scenario.constructed_map)
    results = [None] * 8
    barrier = threading.Barrier(8)

    def run(i):
        barrier.wait()
        results[i] = work(fresh, i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == serial
    top = {cid for cid, _ in most_shared_conduits(matrix, top=12)}
    assert set(substrate_for(fresh)._optima) == top
    assert set(substrate_for(serial_map)._optima) == top


def test_the_first_stored_optimum_wins():
    cs = substrate_for(_random_fiber_map(3))
    cid = cs.cids[0]
    first = cs.optimum(cid, lambda: ("first",))
    assert cs.optimum(cid, lambda: ("second",)) is first
    assert len(cs._optima) == 1


# ----------------------------------------------------------------------
# Observability: no view per failure
# ----------------------------------------------------------------------
def test_warm_cuts_audits_and_backups_build_no_view(scenario):
    fiber_map = scenario.constructed_map
    matrix = scenario.risk_matrix
    cids = sorted(fiber_map.conduits)
    isps = list(matrix.isps)

    def phase(cut_ids):
        for cid in cut_ids:
            event = edge_cut(fiber_map, *fiber_map.conduit(cid).edge)
            assess_cut(fiber_map, event, scenario.overlay)
            traffic_shift(scenario.topology, event, scenario.campaign,
                          max_traces=200)
        for isp in isps:
            optimize_isp_around_conduits(fiber_map, matrix, isp)
            for a, b in _protection_pairs(fiber_map, isp)[:5]:
                plan_backup(fiber_map, isp, a, b)

    # Warm: the cached base views, the routing core, the re-trace baseline.
    cs = substrate_for(fiber_map)
    cs.conduit_view()
    for isp in isps:
        cs.footprint_view(isp)
    phase(cids[:1])
    # Solved fresh: no §5.1 optimum is memoized yet.
    cs._optima.clear()
    with tracing() as tracer:
        with tracer.span("phase"):
            phase(cids[1:40:3])
    assert _view_builds(tracer) == 0


def test_add_builds_one_view_per_request(scenario):
    request = AddConduitRequest(city_a="Denver, CO", city_b="Chicago, IL")
    handle_query(scenario, request)  # warm the base view
    with tracing() as tracer:
        with tracer.span("add"):
            handle_query(scenario, request)
    assert _view_builds(tracer) == 1


# ----------------------------------------------------------------------
# §5.1 properties on both families
# ----------------------------------------------------------------------
SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@SMALL
@given(data=st.data())
def test_an_optimized_path_detours_around_its_conduit(family_scenario, data):
    """Path inflation is >= 0 hops; the path never uses the excluded
    conduit and joins its endpoints; and SRR is at most the baseline
    minus the map's fewest tenants (1 on both families' maps; a random
    map may hold an untenanted conduit)."""
    fiber_map = (
        _random_fiber_map(data.draw(st.integers(0, 10_000)))
        if data.draw(st.booleans())
        else family_scenario.constructed_map
    )
    cid = data.draw(st.sampled_from(sorted(fiber_map.conduits)))
    result = _optimized_path(fiber_map, cid)
    if result is None:
        return
    path, max_risk = result
    conduit = fiber_map.conduit(cid)
    assert len(path) - 1 >= 0
    assert cid not in path
    node = conduit.edge[0]
    for hop in path:
        a, b = fiber_map.conduit(hop).edge
        assert node in (a, b)
        node = b if node == a else a
    assert node == conduit.edge[1]
    assert max_risk == max(fiber_map.conduit(hop).num_tenants for hop in path)
    fewest = min(c.num_tenants for c in fiber_map.conduits.values())
    assert conduit.num_tenants - max_risk <= conduit.num_tenants - fewest


@pytest.mark.parametrize("top", [12])
def test_srr_is_non_negative_on_the_figure_10_targets(family_scenario, top):
    """SRR >= 0 holds on the most-shared conduits Figure 10 reroutes,
    not on every conduit: on us2015 (seed 2015) 280 of the 598 conduits,
    and on global2023 (seed 2023) 21 of 43, have a detour whose worst
    conduit is more shared than they are."""
    fiber_map = family_scenario.constructed_map
    targets = most_shared_conduits(family_scenario.risk_matrix, top=top)
    for cid, _ in targets:
        result = _optimized_path(fiber_map, cid)
        if result is not None:
            assert fiber_map.conduit(cid).num_tenants - result[1] >= 0
    below = [
        cid
        for cid in fiber_map.conduits
        if (result := _optimized_path(fiber_map, cid)) is not None
        and fiber_map.conduit(cid).num_tenants < result[1]
    ]
    assert below  # the bound does not extend to every conduit
