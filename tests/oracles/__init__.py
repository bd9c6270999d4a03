"""NetworkX / scalar reference implementations, kept only as test oracles.

The package answers every routing question on one compiled path (the
graph core in ``repro.perf.substrate``), every buffer-overlap question
on one compiled corridor index, and builds campaigns only as columns.
The implementations it replaced live here, so the parity suites can
still require the package to be indistinguishable from them:

* :mod:`tests.oracles.mitigation` — §5.1 risk graph, §5.2 footprint
  router and driver engine, §5.3 per-pair NetworkX solves, and the §6.3
  exchange planner with its per-candidate Dijkstra estimate;
* :mod:`tests.oracles.resilience` — per-link NetworkX cut impact, the
  step-by-step cumulative attack, the traffic shift re-traced over
  a NetworkX copy of the degraded router graph, and the §4 west-east
  partition over ``nx.minimum_cut``;
* :mod:`tests.oracles.views` — the per-failure views: a §5.1
  exclusion as its own view, a cut's surviving footprint rebuilt per
  cut, and the penalized backup on a ``clone()`` (the package solves
  each as a mask and a weight override over one cached view);
* :mod:`tests.oracles.probe` — the per-destination NetworkX route walk;
* :mod:`tests.oracles.campaign` — the v1 object and v2 scalar per-trace
  record generators the columnar campaign replaced;
* :mod:`tests.oracles.overlay` — the record-object and per-hop overlay
  ingests, and the overlay's conduit paths over NetworkX conduit graphs;
* :mod:`tests.oracles.fibermap` — ``FiberMap``'s NetworkX conduit-graph
  builders (``conduit_graph``, ``simple_conduit_graph``) and the
  ``nx.diameter`` connectivity summary of Figure 1;
* :mod:`tests.oracles.service` — the NetworkX latency query;
* :mod:`tests.oracles.routing` — the §6 backup planner, opacity path and
  Pareto sweep over per-call footprint graphs, and the
  ``simple_conduit_graph`` walk of the Title II entrants, the NSFNET
  comparison and the phantom providers;
* :mod:`tests.oracles.synthesis` — the ground-truth routers (US and
  global) and the §2 step-3 aligner's NetworkX candidate loop;
* :mod:`tests.oracles.geo` — the §3 per-point lat/lon grid index and
  the per-sample co-location loop the compiled corridor index replaced;
* :mod:`tests.oracles.cities` — the §2 set-up's scalar per-pair
  city-distance loops (the link planners' spanning skeletons, the
  geolocation near-miss pool, the secondary-road grid), step 1's
  per-candidate ROW midpoint match and the per-hop link-geometry join
  the compiled city table and one-shot kernels replaced;
* :mod:`tests.oracles.graphs` — the NetworkX graphs of the ROW network
  and the router topology (the package keeps none), and the compile of
  a NetworkX graph into a routing core.
"""
