"""Benchmark: tracing overhead on the campaign hot path.

Times ``run_campaign`` with the global tracer disabled and enabled and
reports the relative overhead.  Spans are recorded at stage/shard
granularity — never per trace — so the target is <=2% at the 20k
default; CI gates the 2k smoke run at ``REPRO_TRACE_OVERHEAD_LIMIT=5``
(percent), failing the job on regressions that make tracing expensive.
"""

from __future__ import annotations

import os
import time

from repro.obs import Tracer, set_tracer
from repro.traceroute.campaign import CampaignConfig, run_campaign

#: Timing repetitions; the minimum is reported to suppress scheduler noise.
_ROUNDS = 3


def _best_of(rounds, fn) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_trace_overhead(scenario, report_output):
    traces = int(os.environ.get("REPRO_BENCH_TRACES", "20000"))
    workers = 1
    topology = scenario.topology
    config = CampaignConfig(num_traces=traces, seed=2021, workers=workers)

    previous = set_tracer(Tracer(enabled=False))
    try:
        run_campaign(topology, config)  # warm-up: routing core, tables
        untraced_s = _best_of(
            _ROUNDS, lambda: run_campaign(topology, config)
        )
        tracer = Tracer()
        set_tracer(tracer)
        traced_s = _best_of(
            _ROUNDS, lambda: run_campaign(topology, config)
        )
    finally:
        set_tracer(previous)

    # The traced runs really were traced (one campaign.run span each).
    campaign_spans = [s for s in tracer.spans if s.name == "campaign.run"]
    assert len(campaign_spans) == _ROUNDS

    overhead_pct = (traced_s / untraced_s - 1.0) * 100.0
    report_output(
        "trace_overhead",
        f"trace overhead: {traces} traces, {workers} worker(s); "
        f"untraced {untraced_s:.3f}s, traced {traced_s:.3f}s, "
        f"overhead {overhead_pct:+.2f}%",
        untraced_s=untraced_s,
        traced_s=traced_s,
        overhead_pct=overhead_pct,
    )

    limit = float(os.environ.get("REPRO_TRACE_OVERHEAD_LIMIT", "0") or 0)
    if limit > 0:
        assert overhead_pct <= limit, (
            f"tracing overhead {overhead_pct:.2f}% exceeds the "
            f"{limit:.1f}% budget"
        )
