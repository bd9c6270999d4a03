"""InterTubes reproduction: the US long-haul fiber-optic infrastructure.

A full reimplementation of *InterTubes: A Study of the US Long-haul
Fiber-optic Infrastructure* (SIGCOMM 2015): map construction from
published provider maps and public records (§2), geography analysis
against transportation infrastructure (§3), shared-risk assessment with
traceroute overlay (§4), and risk/latency mitigation (§5).

Quick start::

    from repro import us2015
    from repro.risk.metrics import isp_ranking
    scenario = us2015()
    print(scenario.constructed_map.stats())
    print(isp_ranking(scenario.risk_matrix)[0])

Other map universes load through the family registry
(:mod:`repro.families`)::

    from repro import load_scenario
    global_map = load_scenario("global2023")
    print(global_map.constructed_map.stats())

Subpackages: :mod:`repro.geo` (geospatial substrate), :mod:`repro.data`
(cities / corridors / providers), :mod:`repro.transport` (rights-of-way),
:mod:`repro.fibermap` (map model + §2 pipeline), :mod:`repro.traceroute`
(§4.3 substrate), :mod:`repro.risk` (§4), :mod:`repro.mitigation` (§5),
:mod:`repro.analysis` (§3 + reporting), :mod:`repro.experiments` (every
table and figure).
"""

from repro.fibermap import (
    Conduit,
    FiberMap,
    GroundTruth,
    Link,
    MapConstructionPipeline,
    MapStats,
    Node,
    synthesize_ground_truth,
)
from repro.families import MapFamily, family_names, get_family
from repro.risk import RiskMatrix
from repro.scenario import Scenario, ScenarioConfig, load_scenario, us2015

__version__ = "1.0.0"

__all__ = [
    "us2015",
    "load_scenario",
    "Scenario",
    "ScenarioConfig",
    "MapFamily",
    "get_family",
    "family_names",
    "FiberMap",
    "Conduit",
    "Link",
    "Node",
    "MapStats",
    "GroundTruth",
    "synthesize_ground_truth",
    "MapConstructionPipeline",
    "RiskMatrix",
    "__version__",
]
