"""One batch-workload process: set up a scenario, optionally time work.

Run by ``run.py`` as a fresh interpreter (``PYTHONHASHSEED=0``,
``PYTHONPATH=src``) with one JSON argument::

    {"seed": 2015, "traces": 20000, "workers": 1,
     "cache": null | "<dir>",      # artifact cache for the set-up
     "kind": "experiments" | "campaign",
     "experiments": ["fig4", ...], # the work's experiments, in order
     "work": true,                 # false: set up only
     "store_to": null | "<dir>",   # fill a cache after timing
     "trace": false,
     "out": "<result.json>"}

The set-up materializes each stage (and its dependencies) once, in
topological order.  The result file holds the set-up end time on the
monotonic clock the parent shares, the work's timings and digests, the
peak RSS, and, when traced, the layer records.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.perf.cache import resolve_cache
from repro.scenario import Scenario, ScenarioConfig

import layers


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def map_digest(fiber_map) -> str:
    rows = sorted(
        (cid, list(c.edge), sorted(c.tenants))
        for cid, c in fiber_map.conduits.items()
    )
    return sha256(json.dumps(rows).encode())


def schema_digest(columns) -> str:
    return columns.schema.digest(rng_contract=columns.rng_contract)


def columns_digest(columns) -> str:
    h = hashlib.sha256(schema_digest(columns).encode())
    for array in (columns.traces, columns.hop_offsets, columns.hop_router,
                  columns.hop_rtt):
        h.update(memoryview(array).cast("B"))
    return h.hexdigest()


def overlay_digest(overlay) -> str:
    rows = sorted(
        (cid, t.west_to_east, t.east_to_west, sorted(t.observed_isps))
        for cid, t in overlay.traffic().items()
    )
    counters = [overlay.traces_processed, overlay.hops_unresolved, rows]
    return sha256(json.dumps(counters).encode())


def setup_stages(graph, kind: str, experiment_ids):
    """The set-up's stages in topological order: the union of the
    experiments' declared ``requires`` (with their dependencies), or for
    the campaign workload every stage except the two it times."""
    if kind == "campaign":
        return [s for s in graph.order() if s not in ("campaign", "overlay")]
    return graph.order({
        stage for i in experiment_ids for stage in EXPERIMENTS[i].requires
    })


def run_experiments(scenario, ids, times, digests) -> None:
    for experiment_id in ids:
        started = time.monotonic()
        result = run_experiment(experiment_id, scenario)
        times[experiment_id] = time.monotonic() - started
        digests[experiment_id] = sha256(result.text.encode())


def main(spec: dict) -> None:
    recorder = None
    if spec["trace"]:
        recorder = layers.Recorder()
        layers.install(recorder, stage_prefix="warm.stage."
                       if spec["cache"] else "stage.")
    config = ScenarioConfig(
        seed=spec["seed"],
        campaign_traces=spec["traces"],
        workers=spec["workers"],
        cache=spec["cache"] or False,
    )
    scenario = Scenario(config=config)
    graph = scenario.graph
    kind = spec["kind"]
    setup = setup_stages(graph, kind, spec["experiments"])
    for stage in setup:
        graph.materialize(stage)
    ready = time.monotonic()

    times, digests = {}, {}
    if spec["work"]:
        if kind == "campaign":
            graph.materialize("campaign")
            graph.materialize("overlay")
        run_experiments(scenario, spec["experiments"], times, digests)
    finished = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Outside the timed region: digests of the built stages (so cold,
    # warm and repeated set-ups can be checked against each other), then
    # the optional cache fill for later warm set-ups.
    stage_digests = {"constructed_map": map_digest(scenario.constructed_map)}
    if graph.peek("campaign") is not None:
        stage_digests["campaign"] = columns_digest(graph.peek("campaign"))
    if graph.peek("overlay") is not None:
        stage_digests["overlay"] = overlay_digest(graph.peek("overlay"))
    if spec["work"] and kind == "campaign":
        digests["columns.schema"] = schema_digest(graph.peek("campaign"))
        digests["columns"] = stage_digests["campaign"]
        digests["overlay.counters"] = stage_digests["overlay"]
    if spec["store_to"]:
        cache = resolve_cache(spec["store_to"])
        for stage in setup:
            if graph.stage(stage).persist and graph.peek(stage) is not None:
                cache.store(stage, graph.cache_key(stage), graph.peek(stage))

    result = {
        "ready": ready,
        "work_s": finished - ready if spec["work"] else None,
        "times": times,
        "digests": digests,
        "stage_digests": stage_digests,
        "peak_rss_mb": peak_rss_mb,
        "layers": recorder.snapshot() if recorder is not None else None,
    }
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
