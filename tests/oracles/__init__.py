"""NetworkX / scalar reference implementations, kept only as test oracles.

The package answers every routing question on one compiled path (the
scipy routing core and substrate).  The implementations it replaced live
here, unchanged, so the parity suites can still require the compiled
path to be indistinguishable from them:

* :mod:`tests.oracles.mitigation` — §5.1 risk graph, §5.2 footprint
  router and driver engine, §5.3 per-pair NetworkX solves, and the §6.3
  exchange planner with its per-candidate Dijkstra estimate;
* :mod:`tests.oracles.resilience` — per-link NetworkX cut impact and the
  step-by-step cumulative attack;
* :mod:`tests.oracles.probe` — the per-destination NetworkX route walk;
* :mod:`tests.oracles.service` — the NetworkX latency query.
"""
