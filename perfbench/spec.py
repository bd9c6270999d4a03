"""What the benchmark measures: workloads, metrics, units, bounds.

This table is the single source of truth.  ``BENCHMARK.json`` at the
repository root is generated from it (``python3 perfbench/run.py
manifest --write``) and ``run.py manifest --check`` fails when the two
drift apart.

Every run prints every end-to-end metric, whatever its workload, so each
metric below has a meaning on all three workloads; the README table
gives it per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Seconds of timed work one run measures.  Batch workloads repeat their
#: work in fresh processes until this much has been timed on the wall
#: clock (at least once); the what-if workload's closed-loop phase (a)
#: lasts a third of it.
RUN_SECONDS = 9

#: Cold set-ups measured per run (their median is reported), and warm
#: set-ups per traced run.
SETUPS_PER_RUN = 3

#: Every workload runs the paper's scenario: us2015 at this seed, whose
#: outputs are pinned.  The workload seed shuffles the order of the
#: experiments and draws the what-if queries; it does not change the
#: map, because the work some experiments do varies with the map by
#: more than the bounds (ext_exchange makes 47k to 60k Dijkstra calls
#: over scenario seeds 1 to 10).
SCENARIO_SEED = 2015


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: before a change counts as a regression (end-to-end metrics only).
    bound: float = 0.0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "experiments",
        "all 25 experiments on a 20k-trace us2015 scenario: ext_exchange's "
        "NetworkX Dijkstra calls, then geo kernels, substrate and the "
        "section-2 pipeline (set-up) do the work",
    ),
    Workload(
        "campaign_traffic",
        "section 4.3 at 1/10 paper scale: a 500k-trace campaign on 2 "
        "workers, its overlay and tables 2-4/fig 9; mitigation and service "
        "do none of the work",
    ),
    Workload(
        "whatif",
        "the HTTP what-if service: batched latency queries, then a "
        "risk/add/audit/cut mix that bypasses the batcher and goes through "
        "the entry lock and re-traces",
    ),
)

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("work_s", "s", "lower", 0.24),
    Metric("rate_per_s", "1/s", "higher", 0.24),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: The 11 stages of a us2015 scenario, in topological order, and the
#: five the artifact cache persists.
STAGES = (
    "ground_truth", "provider_maps", "records", "constructed_map",
    "topology", "probe_engine", "campaign", "geolocation", "overlay",
    "risk_matrix", "substrate",
)
PERSISTED = ("ground_truth", "constructed_map", "campaign", "overlay",
             "substrate")

#: The registry's experiments: the paper's 15 artifacts, then the 10
#: extensions.
EXPERIMENT_IDS = (
    "table1", "fig1", "fig2_3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "table2_3", "fig9", "table4", "fig10", "table5", "fig11", "fig12",
    "ext_resilience", "ext_partition", "ext_policy", "ext_exchange",
    "ext_protection", "ext_annotated", "ext_nsfnet", "ext_opacity",
    "ext_capacity", "ext_growth",
)
CAMPAIGN_IDS = ("table2_3", "table4", "fig9")
SERVICE_KINDS = ("latency", "risk", "add", "audit", "cut")


def _per_layer() -> Tuple[Metric, ...]:
    lower, higher = "lower", "higher"
    s: List[Tuple[str, str, str]] = []
    s += [(f"stage.{name}_s", "s", lower) for name in STAGES]
    s += [("warm.setup_s", "s", lower)]
    s += [(f"warm.stage.{name}_s", "s", lower) for name in PERSISTED]
    s += [("cache.hits", "count", higher), ("cache.misses", "count", lower)]
    s += [(f"pipeline.step{i}_s", "s", lower) for i in range(1, 5)]
    s += [(f"exp.{i}_s", "s", lower) for i in EXPERIMENT_IDS]
    s += [
        ("exchange.plan_s", "s", lower),
        ("augmentation.improvement_curves_s", "s", lower),
        ("latency.latency_study_s", "s", lower),
        ("robustness.optimize_s", "s", lower),
        ("nx.sssp_calls", "count", lower),
        ("nx.sssp_s", "s", lower),
        ("substrate.dijkstra_calls", "count", lower),
        ("substrate.dijkstra_sources", "count", lower),
        ("substrate.dijkstra_s", "s", lower),
        ("substrate.clone_s", "s", lower),
        ("routing.path_calls", "count", lower),
        ("routing.path_s", "s", lower),
        ("resilience.traffic_shift_s", "s", lower),
        ("resilience.assess_cut_s", "s", lower),
        ("campaign.run_s", "s", lower),
        ("campaign.records_per_s", "1/s", higher),
        ("overlay.add_traces_s", "s", lower),
        ("overlay.records_per_s", "1/s", higher),
        ("columns.bytes", "B", lower),
    ]
    s += [(f"service.{k}.handle_p50_ms", "ms", lower) for k in SERVICE_KINDS]
    s += [
        ("service.transport_p50_ms", "ms", lower),
        ("service.latency.batches", "count", lower),
        ("service.latency.mean_batch_size", "count", higher),
        ("service.requests", "count", higher),
        ("service.errors", "count", lower),
        ("client.latency_p50_ms", "ms", lower),
        ("client.latency_p95_ms", "ms", lower),
        ("client.mixed_p50_ms", "ms", lower),
        ("client.mixed_p95_ms", "ms", lower),
        ("gen.late_p95_ms", "ms", lower),
        ("gen.late_max_ms", "ms", lower),
        ("trace.overhead_pct", "%", lower),
        ("probe.unit_ms", "ms", lower),
    ]
    return tuple(Metric(name, unit, better) for name, unit, better in s)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def manifest() -> Dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
