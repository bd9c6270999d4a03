"""Benchmark: campaign recovery overhead under injected worker crashes.

Runs the same pooled campaign twice — fault-free, then with two shard
workers deterministically killed — and reports the wall-time cost of
the kill/respawn/requeue cycle.  The recovered run must stay
byte-identical to the clean one; the interesting number is how much of
the campaign's throughput survives a mid-run pool loss.
"""

from __future__ import annotations

import os
import time

from repro.obs import FaultPlan, fault_injection
from repro.traceroute.campaign import CampaignConfig, run_campaign


def test_fault_recovery_overhead(benchmark, scenario, report_output):
    traces = int(os.environ.get("REPRO_BENCH_TRACES", "20000"))
    topology = scenario.topology
    config = CampaignConfig(
        num_traces=traces, seed=2021, workers=2, retry_backoff_s=0.01
    )
    # Untimed warm-up: the first campaign on the shared topology pays
    # one-time costs (compiling its routing core) that would otherwise
    # land on the clean run only and make recovery look cheaper than a
    # clean run.  The destination rows are not among them: a pool
    # solves them in its workers on every campaign.
    run_campaign(topology, config)
    started = time.perf_counter()
    clean = run_campaign(topology, config)
    clean_s = time.perf_counter() - started

    chunk = max(250, -(-traces // 8))

    def chaotic_run():
        # Fresh injector each round: every round re-kills both shards.
        with fault_injection(
            FaultPlan(seed=1, crash_shards=(0, chunk))
        ):
            return run_campaign(topology, config)

    recovered = benchmark.pedantic(chaotic_run, rounds=1, iterations=1)
    assert recovered == clean
    chaotic_s = benchmark.stats.stats.mean
    overhead = chaotic_s / clean_s - 1.0 if clean_s > 0 else 0.0
    report_output(
        "fault_recovery",
        f"fault recovery: {traces} traces, 2 workers, 2 shards killed; "
        f"clean {clean_s:.2f}s vs recovered {chaotic_s:.2f}s "
        f"({overhead:+.1%} overhead), records byte-identical",
    )
