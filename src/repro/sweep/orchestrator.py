"""The sweep orchestrator: fan a grid of scenarios × drivers across a
process pool with shared artifact-cache dedup.

Each :class:`~repro.sweep.grid.SweepCell` builds its scenario inside a
worker process under a local tracer, computes the cross-scenario §4/§5
statistics (sharing fractions, SRR, per-driver augmentation gain), and
returns a plain dict: its metrics, its cache hit/miss accounting, and
its own :class:`~repro.obs.manifest.RunManifest`.  The parent streams
finished cells into the columnar :class:`~repro.sweep.summary.
SweepSummary` and records one ``sweep.cell`` span per cell.

Cells sharing a cache root deduplicate work two ways: a cell whose
stage artifacts were already stored by an earlier (or concurrent) cell
fetches instead of building, and the engine's single-flight key lock
(:meth:`~repro.perf.cache.ArtifactCache.single_flight`) collapses
concurrent builds of one artifact into a single build plus re-fetches.
Both show up in the sweep manifest: per-cell ``cache_hits`` and the
``coalesced`` span annotation.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.mitigation.augmentation import improvement_curves
from repro.mitigation.robustness import optimize_all_isps
from repro.obs.manifest import RunManifest
from repro.obs.tracer import Tracer, get_tracer, tracing
from repro.perf.cache import ArtifactCache, normalize_cache_setting
from repro.risk.metrics import sharing_fractions
from repro.scenario import Scenario, ScenarioConfig
from repro.sweep.grid import SweepCell
from repro.sweep.summary import SweepSummary


def _cell_metrics(
    scenario: Scenario,
    cell: SweepCell,
    isps: Optional[Sequence[str]],
) -> Dict[str, Any]:
    """The cross-scenario statistic battery for one cell."""
    fiber_map = scenario.constructed_map
    network = scenario.network
    matrix = scenario.risk_matrix
    chosen = list(isps) if isps else list(scenario.isps)
    sharing = sharing_fractions(matrix)
    suggestions = optimize_all_isps(fiber_map, matrix)
    srr = [s.avg_srr for s in suggestions.values()]
    pi = [s.avg_pi for s in suggestions.values()]
    curves = improvement_curves(
        fiber_map,
        network,
        chosen,
        max_k=cell.max_k,
        driver=cell.driver,
        driver_seed=cell.driver_seed,
    )
    gains = {
        isp: result.improvement_ratio(cell.max_k)
        for isp, result in curves.items()
    }
    return {
        "isps": list(curves),
        "gains": gains,
        "mean_gain": sum(gains.values()) / len(gains) if gains else 0.0,
        "max_gain": max(gains.values()) if gains else 0.0,
        "baselines": {
            isp: result.baseline_risk for isp, result in curves.items()
        },
        "srr_avg": sum(srr) / len(srr) if srr else 0.0,
        "pi_avg": sum(pi) / len(pi) if pi else 0.0,
        "sharing": dict(sharing),
        "pool_truncated": sum(r.pool_truncated for r in curves.values()),
    }


def _run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep cell, start to finish, in this process.

    Module-level so a :class:`ProcessPoolExecutor` can pickle it; also
    called directly for serial (``workers <= 1``) sweeps.  Never raises:
    failures come back as ``ok=False`` cells so one broken scenario
    cannot poison a thousand-cell sweep.
    """
    cell = SweepCell(**payload["cell"])
    started = time.perf_counter()
    local = Tracer()
    result: Dict[str, Any] = {
        "cell": cell.to_dict(),
        "ok": False,
        "metrics": None,
        "error": None,
        "cache": {"enabled": False, "hits": 0, "misses": 0},
        "duration_s": 0.0,
        "manifest": None,
    }
    config_dict: Optional[Dict[str, Any]] = None
    try:
        with tracing(local):
            with local.span(
                "sweep.cell",
                family=cell.family,
                seed=cell.seed,
                driver=cell.driver,
                driver_seed=cell.driver_seed,
                rng_contract=cell.rng_contract,
            ):
                scenario = Scenario(
                    config=ScenarioConfig(
                        seed=cell.seed,
                        campaign_traces=cell.traces,
                        workers=1,
                        cache=payload.get("cache"),
                        family=cell.family,
                        rng_contract=cell.rng_contract,
                    )
                )
                result["metrics"] = _cell_metrics(
                    scenario, cell, payload.get("isps")
                )
        stats = scenario.cache_stats()
        result["cache"] = {
            "enabled": stats["enabled"],
            "hits": stats["hits"],
            "misses": stats["misses"],
        }
        config_dict = scenario.config.to_dict()
        result["ok"] = True
    except Exception:
        result["error"] = traceback.format_exc(limit=12)
    result["duration_s"] = time.perf_counter() - started
    result["manifest"] = RunManifest.from_tracer(
        local,
        config=config_dict,
        meta={"kind": "sweep-cell", "cell": cell.to_dict()},
    ).to_dict()
    return result


def _count_coalesced(manifest: Optional[Dict[str, Any]]) -> int:
    """How many spans in a cell manifest fetched an artifact another
    process built while they waited on the single-flight lock."""
    if not manifest:
        return 0

    def walk(spans: List[Dict[str, Any]]) -> int:
        total = 0
        for span in spans:
            if (span.get("attrs") or {}).get("coalesced"):
                total += 1
            total += walk(span.get("children") or [])
        return total

    return walk(manifest.get("spans") or [])


@dataclass
class SweepResult:
    """Everything one sweep produced, in cell order."""

    cells: List[Dict[str, Any]]
    summary: SweepSummary
    workers: int
    cache: Union[None, bool, str]
    total_s: float
    aggregates: Dict[str, Any] = field(init=False)

    def __post_init__(self) -> None:
        self.aggregates = self.summary.aggregates()

    @property
    def ok(self) -> bool:
        return all(cell["ok"] for cell in self.cells)

    def cache_dedup(self) -> Dict[str, int]:
        """Cross-cell artifact reuse: fetch hits inside cells (the
        artifact existed before the cell looked — stored by an earlier
        or concurrent cell) and coalesced single-flight builds."""
        return {
            "cross_cell_hits": sum(
                cell["cache"]["hits"] for cell in self.cells
            ),
            "misses": sum(cell["cache"]["misses"] for cell in self.cells),
            "coalesced": sum(
                _count_coalesced(cell.get("manifest")) for cell in self.cells
            ),
        }

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "kind": "sweep",
            "workers": self.workers,
            "cache": self.cache,
            "total_s": self.total_s,
            "cache_dedup": self.cache_dedup(),
            "cells": [
                {k: v for k, v in cell.items() if k != "manifest"}
                for cell in self.cells
            ],
            "summary": self.summary.to_dict(),
        }

    def manifest(self) -> RunManifest:
        """The per-sweep RunManifest: one ``sweep.cell`` span per cell
        (cell manifests embedded in meta), dedup accounting in meta."""
        tracer = Tracer()
        for cell in self.cells:
            tracer.record_span(
                "sweep.cell",
                cell["duration_s"],
                family=cell["cell"].get("family", "us2015"),
                seed=cell["cell"]["seed"],
                driver=cell["cell"]["driver"],
                driver_seed=cell["cell"]["driver_seed"],
                ok=cell["ok"],
                cache_hits=cell["cache"]["hits"],
                cache_misses=cell["cache"]["misses"],
            )
        return RunManifest.from_tracer(
            tracer,
            config={
                "cells": len(self.cells),
                "workers": self.workers,
                "cache": self.cache,
            },
            meta={
                "kind": "sweep",
                "total_s": self.total_s,
                "cache_dedup": self.cache_dedup(),
                "aggregates": self.aggregates,
                "cell_manifests": [cell["manifest"] for cell in self.cells],
            },
        )

    def write_manifest(self, path: Union[str, Path]) -> Path:
        return self.manifest().write(path)


def run_sweep(
    cells: Sequence[SweepCell],
    *,
    isps: Optional[Sequence[str]] = None,
    cache: Any = None,
    workers: int = 1,
    stream: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> SweepResult:
    """Run every cell and aggregate the results.

    ``workers <= 1`` runs cells serially in-process; more fans them out
    over a :class:`ProcessPoolExecutor`.  *cache* takes any scenario
    cache setting — a shared on-disk root is what enables cross-cell
    dedup (with ``None`` the environment decides, with ``False`` every
    cell builds everything).  *stream* is called with each cell result
    as it finishes (pool completion order; returned cells keep grid
    order).  Per-cell failures are contained: the sweep always
    completes and failed cells carry their traceback.
    """
    cells = list(cells)
    setting = normalize_cache_setting(cache)
    if isinstance(setting, ArtifactCache):
        setting = str(setting.root)
    payloads = [
        {
            "cell": cell.to_dict(),
            "cache": setting,
            "isps": list(isps) if isps else None,
        }
        for cell in cells
    ]
    started = time.perf_counter()
    results: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
    if workers <= 1 or len(payloads) <= 1:
        for i, payload in enumerate(payloads):
            result = _run_cell(payload)
            results[i] = result
            if stream is not None:
                stream(result)
    else:
        pool_size = min(workers, len(payloads))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            pending = {
                pool.submit(_run_cell, payload): i
                for i, payload in enumerate(payloads)
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    i = pending.pop(future)
                    result = future.result()
                    results[i] = result
                    if stream is not None:
                        stream(result)
    total_s = time.perf_counter() - started
    tracer = get_tracer()
    summary = SweepSummary()
    for result in results:
        assert result is not None
        summary.add(result)
        tracer.record_span(
            "sweep.cell",
            result["duration_s"],
            family=result["cell"].get("family", "us2015"),
            seed=result["cell"]["seed"],
            driver=result["cell"]["driver"],
            ok=result["ok"],
            cache_hits=result["cache"]["hits"],
        )
    return SweepResult(
        cells=[r for r in results if r is not None],
        summary=summary,
        workers=workers,
        cache=setting if not isinstance(setting, ArtifactCache) else str(setting.root),
        total_s=total_s,
    )
