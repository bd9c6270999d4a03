"""Benchmark: the §5 mitigation sweep on the routing substrate vs the
NetworkX reference oracles.

Times Figure 10 (robustness), Figure 11 (augmentation), and Figure 12
(latency) end-to-end on the compiled CSR substrate and on the NetworkX
reference implementations kept in ``tests/oracles``, asserts the
results agree, and reports the speedup in ``BENCH_mitigation.json`` —
the acceptance number for the substrate (target: >= 5x on the combined
sweep).  Figure 10 runs on a fresh copy of the map, so its substrate
compiles before the clock starts but its §5.1 optimum memo is cold: a
memo hit is not reported as a speedup.

A growth row times the §2 deployment projection (``simulate_growth``,
the ext_growth experiment) with the package's ``_IspRouter`` against
the NetworkX reference routers, monkeypatched in as the routing parity
suite does, and asserts an identical trajectory.  A policy row times the
§6.2 trade-off curve (``open_access_tradeoff``, the ext_policy
experiment), one walk over the entrants, against the per-count
simulation it replaced (``tests/oracles/policy.py``) and asserts equal
points.  Both are reported beside the sweep, outside its combined total.
"""

from __future__ import annotations

import copy
import time

from repro.fibermap.evolution import simulate_growth
from repro.mitigation.augmentation import (
    candidate_new_edges,
    improvement_curves,
)
from repro.mitigation.latency import latency_study
from repro.mitigation.robustness import optimize_all_isps
from repro.perf.substrate import substrate_for
from repro.policy.titleii import open_access_tradeoff
from tests.oracles.mitigation import (
    improvement_curve_reference,
    latency_study_reference,
    optimize_all_isps_reference,
)
from tests.oracles.policy import open_access_tradeoff_reference
from tests.oracles.synthesis import reference_router


def _timed(steps):
    """Run ``(key, thunk)`` steps in order; per-step and total seconds."""
    timings, results = {}, []
    for key, step in steps:
        started = time.perf_counter()
        results.append(step())
        timings[key] = time.perf_counter() - started
    timings["total"] = sum(timings.values())
    return timings, tuple(results)


def _substrate_sweep(scenario):
    fiber_map = scenario.constructed_map
    network = scenario.network
    cold_map = copy.deepcopy(fiber_map)
    substrate_for(cold_map)
    return _timed([
        ("fig10", lambda: optimize_all_isps(cold_map, scenario.risk_matrix)),
        ("fig11", lambda: improvement_curves(
            fiber_map,
            network,
            list(scenario.isps),
            candidates=candidate_new_edges(fiber_map, network),
        )),
        ("fig12", lambda: latency_study(fiber_map, network)),
    ])


def _reference_sweep(scenario):
    fiber_map = scenario.constructed_map
    network = scenario.network

    def curves():
        candidates = candidate_new_edges(fiber_map, network)
        return {
            isp: improvement_curve_reference(
                fiber_map, network, isp, candidates=candidates
            )
            for isp in dict.fromkeys(scenario.isps)
        }

    return _timed([
        ("fig10", lambda: optimize_all_isps_reference(
            fiber_map, scenario.risk_matrix
        )),
        ("fig11", curves),
        ("fig12", lambda: latency_study_reference(fiber_map, network)),
    ])


def _growth_row(scenario, monkeypatch):
    """(substrate_s, reference_s) of the growth projection; the memoized
    router terms are warm from the scenario's own synthesis."""
    truth = scenario.ground_truth
    started = time.perf_counter()
    fast = simulate_growth(truth)
    fast_s = time.perf_counter() - started
    with monkeypatch.context() as patch:
        patch.setattr("repro.fibermap.synthesis._IspRouter", reference_router)
        started = time.perf_counter()
        reference = simulate_growth(truth)
        reference_s = time.perf_counter() - started
    assert fast == reference
    return fast_s, reference_s


def _policy_row(scenario):
    """(walk_s, reference_s) of the §6.2 trade-off curve."""
    fiber_map = scenario.constructed_map
    started = time.perf_counter()
    fast = open_access_tradeoff(fiber_map)
    fast_s = time.perf_counter() - started
    started = time.perf_counter()
    reference = open_access_tradeoff_reference(fiber_map)
    reference_s = time.perf_counter() - started
    assert fast == reference
    return fast_s, reference_s


def test_mitigation(scenario, report_output, monkeypatch):
    # Warm the shared stages and the compiled substrate so the timings
    # isolate the analyses.
    scenario.risk_matrix
    substrate_for(scenario.constructed_map)
    fast, fast_results = _substrate_sweep(scenario)
    reference, reference_results = _reference_sweep(scenario)
    assert fast_results[0] == reference_results[0]
    assert fast_results[1] == reference_results[1]
    assert fast_results[2] == reference_results[2]
    speedup = (
        reference["total"] / fast["total"] if fast["total"] > 0 else float("inf")
    )
    lines = ["mitigation sweep: substrate vs NetworkX reference (seconds)"]
    for key in ("fig10", "fig11", "fig12", "total"):
        ratio = reference[key] / fast[key] if fast[key] > 0 else float("inf")
        lines.append(
            f"  {key:<6} substrate {fast[key]:8.3f}  "
            f"reference {reference[key]:8.3f}  ({ratio:.1f}x)"
        )
    growth_fast, growth_reference = _growth_row(scenario, monkeypatch)
    lines.append(
        f"  growth substrate {growth_fast:8.3f}  "
        f"reference {growth_reference:8.3f}  "
        f"({growth_reference / growth_fast:.1f}x, not in total)"
    )
    policy_fast, policy_reference = _policy_row(scenario)
    lines.append(
        f"  policy substrate {policy_fast:8.3f}  "
        f"reference {policy_reference:8.3f}  "
        f"({policy_reference / policy_fast:.1f}x, not in total)"
    )
    text = "\n".join(lines)
    report_output(
        "mitigation",
        text,
        substrate_s=fast,
        reference_s=reference,
        speedup=speedup,
        growth_s={"substrate": growth_fast, "reference": growth_reference},
        policy_s={"substrate": policy_fast, "reference": policy_reference},
    )
