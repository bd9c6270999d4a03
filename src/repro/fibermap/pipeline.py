"""The paper's four-step long-haul map construction (§2).

1. Build an initial map from providers with explicitly geocoded maps.
2. Check the initial map against public records: georeference coarse
   links, validate conduit locations, infer conduit sharing.
3. Build an augmented map by aligning POP-only provider maps along the
   closest known rights-of-way.
4. Validate the augmented map with public records again, identifying
   which links share the same ROW.

The pipeline never looks at the ground truth; it sees only the published
maps and the records corpus.  Accuracy against the ground truth is
computed afterwards, which is how we quantify what the paper could only
argue qualitatively ("the constructed map is not complete ... but of
sufficient quality").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.fibermap.augment import RowAligner
from repro.fibermap.elements import FiberMap, MapStats
from repro.fibermap.publish import (
    QUALITY_DETAILED,
    ProviderMap,
    publish_provider_maps,
)
from repro.fibermap.records import RecordsCorpus, generate_records
from repro.fibermap.synthesis import GroundTruth
from repro.fibermap.validate import (
    choose_row_with_evidence,
    tenants_from_records,
)
from repro.geo.polyline import Polyline
from repro.obs.tracer import get_tracer
from repro.transport.network import EdgeKey, canonical_edge
from repro.transport.rightofway import RowRegistry


@dataclass(frozen=True)
class Table1Row:
    """Per-provider counts of the initial map (the paper's Table 1)."""

    isp: str
    num_nodes: int
    num_links: int


@dataclass(frozen=True)
class StepSnapshot:
    """Map size after one pipeline step."""

    step: int
    stats: MapStats


@dataclass(frozen=True)
class AccuracyReport:
    """Constructed map vs ground truth.

    Conduits are matched by (city-pair edge, right-of-way); tenancy over
    (conduit, provider) pairs of matched conduits.
    """

    conduit_precision: float
    conduit_recall: float
    tenancy_precision: float
    tenancy_recall: float
    step3_path_exact: float


@dataclass
class ConstructionReport:
    """Everything the pipeline learned on the way to the final map."""

    table1: List[Table1Row] = field(default_factory=list)
    snapshots: List[StepSnapshot] = field(default_factory=list)
    validated_conduits: int = 0
    evidence_backed_rows: int = 0
    inferred_tenancies: int = 0
    accuracy: Optional[AccuracyReport] = None


class MapConstructionPipeline:
    """Runs the four-step §2 process against published artifacts."""

    def __init__(
        self,
        ground_truth: GroundTruth,
        provider_maps: Optional[Dict[str, ProviderMap]] = None,
        corpus: Optional[RecordsCorpus] = None,
    ):
        self._gt = ground_truth
        self._registry: RowRegistry = ground_truth.registry
        self._network = ground_truth.network
        self._maps = (
            provider_maps
            if provider_maps is not None
            else publish_provider_maps(ground_truth)
        )
        self._corpus = (
            corpus if corpus is not None else generate_records(ground_truth)
        )
        self._map = FiberMap()
        self._report = ConstructionReport()
        self._validated: Set[str] = set()
        # Published links we could not place in step 1 (coarse quality).
        self._pending_coarse: List = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def corpus(self) -> RecordsCorpus:
        return self._corpus

    @property
    def provider_maps(self) -> Dict[str, ProviderMap]:
        return dict(self._maps)

    def run(self) -> Tuple[FiberMap, ConstructionReport]:
        """Execute steps 1-4 and return the constructed map + report.

        Each step runs in a ``pipeline.stepN`` tracing span annotated
        with the map size after the step (and the validation counters
        the step contributed).
        """
        tracer = get_tracer()
        with tracer.span("pipeline.step1", step=1):
            self.step1_initial_map()
            self._annotate_step(tracer)
        with tracer.span("pipeline.step2", step=2):
            self.step2_check_initial_map()
            self._annotate_step(tracer)
        with tracer.span("pipeline.step3", step=3):
            self.step3_augment()
            self._annotate_step(tracer)
        with tracer.span("pipeline.step4", step=4):
            self.step4_validate_augmented()
            self._annotate_step(tracer)
        with tracer.span("pipeline.accuracy"):
            self._report.accuracy = self._compute_accuracy()
        return self._map, self._report

    def _annotate_step(self, tracer) -> None:
        """Record post-step map size and validation counters on the span."""
        if not tracer.enabled:
            return
        stats = self._report.snapshots[-1].stats
        tracer.annotate(
            nodes=stats.num_nodes,
            links=stats.num_links,
            conduits=stats.num_conduits,
            validated_conduits=self._report.validated_conduits,
            evidence_backed_rows=self._report.evidence_backed_rows,
            inferred_tenancies=self._report.inferred_tenancies,
        )

    # ------------------------------------------------------------------
    # Step 1
    # ------------------------------------------------------------------
    def step1_initial_map(self) -> None:
        """Ingest explicitly geocoded (step-1) provider maps."""
        for name in sorted(self._maps):
            pmap = self._maps[name]
            if pmap.step != 1:
                continue
            self._report.table1.append(
                Table1Row(
                    isp=name,
                    num_nodes=pmap.num_nodes,
                    num_links=pmap.num_links,
                )
            )
            for link in pmap.links:
                if link.quality != QUALITY_DETAILED:
                    self._pending_coarse.append(link)
                    continue
                self._ingest_detailed_link(link)
        self._snapshot(1)

    def _ingest_detailed_link(self, link) -> None:
        """Place one fully geocoded link leg-by-leg onto rights-of-way."""
        conduit_ids = []
        for u, v in zip(link.city_path, link.city_path[1:]):
            edge = canonical_edge(u, v)
            row_id = self._row_from_geometry(edge, link.geometry)
            conduit_ids.append(self._find_or_create_conduit(edge, row_id))
        self._map.add_link(link.isp, link.city_path, conduit_ids)

    def _row_from_geometry(self, edge: EdgeKey, geometry: Polyline) -> str:
        """Identify the ROW a published geometry follows on one edge.

        The candidate whose midpoint lies closest to the published route
        wins (the first one on a tie); this is the geometric core of the
        paper's "link locations align along the same geographic path"
        test.  All candidates are scored in one kernel call.
        """
        rows = self._registry.rows_for_edge(*edge)
        if not rows:
            raise KeyError(f"no rights-of-way registered for edge {edge}")
        if len(rows) == 1:
            return rows[0].row_id
        distances = geometry.distances_to_points_km(
            [self._registry.midpoint(row.row_id) for row in rows]
        )
        return rows[int(np.argmin(distances))].row_id

    def _find_or_create_conduit(self, edge: EdgeKey, row_id: str) -> str:
        """Reuse the constructed conduit on (edge, row) or create it."""
        for conduit in self._map.conduits_between(*edge):
            if conduit.row_id == row_id:
                return conduit.conduit_id
        conduit = self._map.add_conduit(
            edge[0], edge[1], row_id, self._registry.geometry(row_id)
        )
        return conduit.conduit_id

    # ------------------------------------------------------------------
    # Step 2
    # ------------------------------------------------------------------
    def step2_check_initial_map(self) -> None:
        """Georeference coarse links; validate and infer sharing."""
        aligner = RowAligner(self._network, self._corpus)
        for link in self._pending_coarse:
            self._ingest_endpoint_link(aligner, link)
        self._pending_coarse = []
        self._validate_and_infer(step1_only=True)
        self._snapshot(2)

    def _ingest_endpoint_link(self, aligner: RowAligner, link) -> None:
        """Place a link known only by its endpoints (coarse or step-3)."""
        a, b = link.endpoints
        best = aligner.best_path(link.isp, a, b, constructed=self._map)
        if best is None:  # pragma: no cover - network is connected
            return
        conduit_ids = []
        for u, v in zip(best.city_path, best.city_path[1:]):
            edge = canonical_edge(u, v)
            row_id, backed = choose_row_with_evidence(
                edge, link.isp, self._registry, self._corpus
            )
            if backed:
                self._report.evidence_backed_rows += 1
            conduit_ids.append(self._find_or_create_conduit(edge, row_id))
        self._map.add_link(link.isp, best.city_path, conduit_ids)

    def _validate_and_infer(self, step1_only: bool) -> None:
        """Record-based validation + conduit-sharing inference."""
        step1_isps = {
            name for name, m in self._maps.items() if m.step == 1
        }
        for conduit in list(self._map.conduits.values()):
            records = self._corpus.records_for_edge(*conduit.edge)
            if any(r.row_id == conduit.row_id for r in records):
                self._validated.add(conduit.conduit_id)
                self._report.validated_conduits = len(self._validated)
            evidenced = tenants_from_records(conduit.edge, self._corpus)
            if step1_only:
                evidenced = evidenced & step1_isps
            # Attach tenants only when the record's ROW matches (or the
            # edge has a single constructed conduit, the unambiguous case).
            single = len(self._map.conduits_between(*conduit.edge)) == 1
            for record in records:
                if record.row_id != conduit.row_id and not single:
                    continue
                for isp in record.tenants:
                    if step1_only and isp not in step1_isps:
                        continue
                    if isp not in conduit.tenants:
                        self._map.add_tenant(conduit.conduit_id, isp)
                        self._report.inferred_tenancies += 1

    # ------------------------------------------------------------------
    # Step 3
    # ------------------------------------------------------------------
    def step3_augment(self) -> None:
        """Align POP-only (step-3) provider maps along known ROWs."""
        aligner = RowAligner(self._network, self._corpus)
        for name in sorted(self._maps):
            pmap = self._maps[name]
            if pmap.step != 3:
                continue
            for link in pmap.links:
                self._ingest_endpoint_link(aligner, link)
        self._snapshot(3)

    # ------------------------------------------------------------------
    # Step 4
    # ------------------------------------------------------------------
    def step4_validate_augmented(self) -> None:
        """Re-run record validation over the full augmented map."""
        self._validate_and_infer(step1_only=False)
        self._snapshot(4)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _snapshot(self, step: int) -> None:
        self._report.snapshots.append(
            StepSnapshot(step=step, stats=self._map.stats())
        )

    def _compute_accuracy(self) -> AccuracyReport:
        gt_map = self._gt.fiber_map
        gt_conduits = {
            (c.edge, c.row_id): c for c in gt_map.conduits.values()
        }
        built_conduits = {
            (c.edge, c.row_id): c for c in self._map.conduits.values()
        }
        matched = set(gt_conduits) & set(built_conduits)
        conduit_precision = len(matched) / max(1, len(built_conduits))
        conduit_recall = len(matched) / max(1, len(gt_conduits))

        gt_pairs = set()
        built_pairs = set()
        for key in matched:
            for isp in gt_conduits[key].tenants:
                gt_pairs.add((key, isp))
            for isp in built_conduits[key].tenants:
                built_pairs.add((key, isp))
        common = gt_pairs & built_pairs
        tenancy_precision = len(common) / max(1, len(built_pairs))
        tenancy_recall = len(common) / max(1, len(gt_pairs))

        # How often did step-3 alignment recover the exact ground-truth path?
        exact = 0
        total = 0
        gt_paths = {
            (link.isp, link.endpoints): link.city_path
            for link in gt_map.links.values()
        }
        for link in self._map.links.values():
            pmap = self._maps.get(link.isp)
            if pmap is None or pmap.step != 3:
                continue
            total += 1
            truth = gt_paths.get((link.isp, link.endpoints))
            if truth is not None and tuple(truth) in (
                tuple(link.city_path),
                tuple(reversed(link.city_path)),
            ):
                exact += 1
        step3_path_exact = exact / max(1, total)
        return AccuracyReport(
            conduit_precision=conduit_precision,
            conduit_recall=conduit_recall,
            tenancy_precision=tenancy_precision,
            tenancy_recall=tenancy_recall,
            step3_path_exact=step3_path_exact,
        )
