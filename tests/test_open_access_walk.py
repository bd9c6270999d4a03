"""Parity suite: the §6.2 open-access walk vs per-count simulations.

:func:`repro.policy.titleii.open_access_tradeoff` walks the entrants
once and reads the point for every entrant count off the running
prefix; :func:`outcome_after` reads a whole outcome off the same
walk.  The from-scratch per-count simulation they replaced is the
oracle in ``tests/oracles/policy.py``; every point and outcome must
equal it exactly (``==`` on floats), on both map families.
"""

from __future__ import annotations

import pytest

from repro.perf.substrate import GraphView
from repro.policy import titleii
from repro.policy.titleii import OpenAccessOutcome, open_access_tradeoff
from tests.oracles.policy import (
    open_access_tradeoff_reference,
    simulate_open_access_reference,
)


def outcome_after(
    fiber_map, num_entrants: int, seed: int = 19
) -> OpenAccessOutcome:
    """The walk's outcome once *num_entrants* entrants have joined."""
    *_, outcome = titleii._open_access_walk(fiber_map, num_entrants, seed)
    return outcome


@pytest.mark.parametrize("seed", (19, 4))
def test_tradeoff_matches_per_count_oracle(family_scenario, seed):
    fiber_map = family_scenario.constructed_map
    assert open_access_tradeoff(
        fiber_map, max_entrants=8, seed=seed
    ) == open_access_tradeoff_reference(fiber_map, max_entrants=8, seed=seed)


@pytest.mark.parametrize("num_entrants", (0, 1, 3, 8))
def test_simulate_matches_per_count_oracle(family_scenario, num_entrants):
    fiber_map = family_scenario.constructed_map
    assert outcome_after(
        fiber_map, num_entrants
    ) == simulate_open_access_reference(fiber_map, num_entrants=num_entrants)


def test_each_entrant_solved_once(built_map, monkeypatch):
    calls = []
    solve = titleii._entrant_tenancy

    def spy(ground, rng, name):
        calls.append(name)
        return solve(ground, rng, name)

    monkeypatch.setattr(titleii, "_entrant_tenancy", spy)
    points = open_access_tradeoff(built_map, max_entrants=8)
    assert [p.num_entrants for p in points] == list(range(9))
    assert calls == [f"Entrant-{i + 1}" for i in range(8)]


def test_one_batched_solve_per_entrant(built_map, monkeypatch):
    # Each entrant solves all its POPs' trees in one Dijkstra call (one
    # single-source solve per POP took 157 calls for 8 entrants).
    solves = []
    dijkstra = GraphView.dijkstra

    def counting(self, *args, **kwargs):
        solves.append(1)
        return dijkstra(self, *args, **kwargs)

    monkeypatch.setattr(GraphView, "dijkstra", counting)
    open_access_tradeoff(built_map, max_entrants=8)
    assert 0 < len(solves) <= 8


def test_negative_max_entrants_gives_empty_curve(built_map):
    assert open_access_tradeoff(built_map, max_entrants=-1) == []
