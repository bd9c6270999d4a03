"""The long-haul fiber map: model, synthesis, and the §2 construction pipeline.

* :mod:`repro.fibermap.elements` — nodes, links, conduits, and the map.
* :mod:`repro.fibermap.synthesis` — deterministic ground-truth generator
  (the "world" whose published maps and public records the pipeline sees).
* :mod:`repro.fibermap.publish` — per-provider published map artifacts.
* :mod:`repro.fibermap.records` — public-records corpus and search.
* :mod:`repro.fibermap.pipeline` — the paper's four-step map construction.
* :mod:`repro.fibermap.serialization` — JSON / GeoJSON interchange.
"""

from repro.fibermap.diff import MapDiff, diff_maps, fidelity_gain
from repro.fibermap.elements import Conduit, FiberMap, Link, MapStats, Node
from repro.fibermap.merge import MergeReport, merge_maps
from repro.fibermap.pipeline import (
    AccuracyReport,
    ConstructionReport,
    MapConstructionPipeline,
    Table1Row,
)
from repro.fibermap.publish import ProviderMap, PublishedLink, publish_provider_maps
from repro.fibermap.records import PublicRecord, RecordsCorpus, generate_records
from repro.fibermap.serialization import (
    fiber_map_from_dict,
    fiber_map_to_dict,
    fiber_map_to_geojson,
)
from repro.fibermap.synthesis import GroundTruth, synthesize_ground_truth

__all__ = [
    "Node",
    "Link",
    "Conduit",
    "FiberMap",
    "MapStats",
    "GroundTruth",
    "synthesize_ground_truth",
    "ProviderMap",
    "PublishedLink",
    "publish_provider_maps",
    "PublicRecord",
    "RecordsCorpus",
    "generate_records",
    "MapConstructionPipeline",
    "ConstructionReport",
    "AccuracyReport",
    "Table1Row",
    "fiber_map_to_dict",
    "fiber_map_from_dict",
    "fiber_map_to_geojson",
    "diff_maps",
    "MapDiff",
    "fidelity_gain",
    "merge_maps",
    "MergeReport",
]
