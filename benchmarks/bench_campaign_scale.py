"""Benchmark: raw campaign throughput on the columnar pipeline.

Times one full ``run_campaign`` (now returning a
:class:`~repro.traceroute.columns.TraceColumns` store) over the
benchmark topology under **both RNG contracts** — v2 (counter-based
vectorized streams, the default and the gated headline) and v1 (the
legacy per-trace Mersenne streams, kept for golden compatibility) —
then the same base tier through the two-worker process pool under
each contract (timed, not gated), then a larger tier as a stepping
stone toward the paper's 4.9M-trace scale.  Knobs, all environment variables so CI can run a reduced smoke
pass:

``REPRO_BENCH_TRACES``        base-tier size (default 20000)
``REPRO_BENCH_TRACES_LARGE``  large-tier size (default 200000; 0 skips)
``REPRO_BENCH_MIN_RPS``       records/second floor the base tier must
                              clear under contract v2 (default 0 = no
                              gate)
``REPRO_BENCH_MAX_RSS_PER_100K_MB``
                              peak-RSS growth budget per 100k traces on
                              the large tier (default 192 MB)
"""

from __future__ import annotations

import os
import resource
import time

from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.columns import TraceColumns
from repro.traceroute.rngv2 import RNG_CONTRACT_V1, RNG_CONTRACT_V2

MIN_RPS = float(os.environ.get("REPRO_BENCH_MIN_RPS", "0"))
LARGE_TRACES = int(os.environ.get("REPRO_BENCH_TRACES_LARGE", "200000"))
MAX_RSS_PER_100K_MB = float(
    os.environ.get("REPRO_BENCH_MAX_RSS_PER_100K_MB", "192")
)
#: Worker processes of the base tier's pool runs.
POOL_WORKERS = 2


def _peak_rss_mb() -> float:
    """High-water-mark RSS of this process, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_run(topology, traces: int, workers: int, contract: int):
    started = time.perf_counter()
    columns = run_campaign(
        topology,
        CampaignConfig(
            num_traces=traces, seed=2020, workers=workers,
            rng_contract=contract,
        ),
    )
    elapsed = time.perf_counter() - started
    return columns, elapsed


def test_campaign_scale(benchmark, scenario, report_output):
    traces = int(os.environ.get("REPRO_BENCH_TRACES", "20000"))
    workers = 1
    topology = scenario.topology

    # The routing core's Dijkstra rows are cached on the (shared)
    # topology object, so whichever contract ran first would pay that
    # one-time cost for both.  A tiny warm-up run prepares every
    # campaign destination up front, making the two timed runs
    # order-independent (hop templates stay per-engine and are rebuilt
    # by each timed run — that cost is honestly attributed).
    _timed_run(topology, 256, workers, RNG_CONTRACT_V2)

    # Contract v1 timed directly; then the gated v2 headline through
    # pytest-benchmark.
    v1_columns, v1_elapsed = _timed_run(
        topology, traces, workers, RNG_CONTRACT_V1
    )
    assert v1_columns.rng_contract == RNG_CONTRACT_V1
    assert len(v1_columns) == traces
    v1_rps = traces / v1_elapsed if v1_elapsed > 0 else 0.0
    del v1_columns

    config = CampaignConfig(
        num_traces=traces, seed=2020, workers=workers,
        rng_contract=RNG_CONTRACT_V2,
    )
    columns = benchmark.pedantic(
        run_campaign, args=(topology, config), rounds=1, iterations=1
    )
    assert isinstance(columns, TraceColumns)
    assert columns.rng_contract == RNG_CONTRACT_V2
    assert len(columns) == traces
    assert bool(columns.traces["reached"].all())
    mean_s = float(benchmark.stats.stats.mean)
    rps = traces / mean_s if mean_s > 0 else 0.0

    # Large tier: run directly (pytest-benchmark only times one callable
    # per test) with a peak-RSS growth budget — the columnar store is
    # what keeps paper-scale campaigns inside a laptop's memory, so a
    # per-100k-trace regression here is a real scalability break.
    large = {}
    if LARGE_TRACES:
        # v2 runs first: ru_maxrss is a high-water mark, so a v1 large
        # run before it would already have raised the peak and hidden
        # v2's growth.
        rss_before = _peak_rss_mb()
        started = time.perf_counter()
        big = run_campaign(
            topology,
            CampaignConfig(
                num_traces=LARGE_TRACES, seed=2020, workers=workers,
                rng_contract=RNG_CONTRACT_V2,
            ),
        )
        elapsed = time.perf_counter() - started
        rss_grown = max(0.0, _peak_rss_mb() - rss_before)
        assert len(big) == LARGE_TRACES
        large_bytes = big.nbytes
        del big
        per_100k = rss_grown / (LARGE_TRACES / 100_000)
        assert per_100k <= MAX_RSS_PER_100K_MB, (
            f"peak RSS grew {per_100k:.1f} MB per 100k traces "
            f"(budget {MAX_RSS_PER_100K_MB} MB)"
        )
        _, v1_large_elapsed = _timed_run(
            topology, LARGE_TRACES, workers, RNG_CONTRACT_V1
        )
        large = {
            "large_traces": LARGE_TRACES,
            "large_wall_time_s": elapsed,
            "large_records_per_s": LARGE_TRACES / elapsed,
            "large_records_per_s_v1": LARGE_TRACES / v1_large_elapsed,
            "large_v2_speedup": v1_large_elapsed / elapsed,
            "large_columnar_bytes": large_bytes,
            "large_peak_rss_growth_mb": rss_grown,
            "large_rss_growth_per_100k_mb": per_100k,
        }

    # The base tier through the pool, per contract, after the large
    # tier so these runs cannot raise the RSS high-water mark the
    # large tier's budget reads.  Their rows tasks solve the
    # destination rows in the workers on every run, so the warm
    # routing cache does not shorten them.
    pool = {}
    for contract in (RNG_CONTRACT_V1, RNG_CONTRACT_V2):
        pooled, elapsed = _timed_run(
            topology, traces, POOL_WORKERS, contract
        )
        assert pooled.rng_contract == contract
        assert len(pooled) == traces
        suffix = "_v1" if contract == RNG_CONTRACT_V1 else ""
        pool[f"pool_records_per_s{suffix}"] = traces / elapsed
        del pooled

    if MIN_RPS:
        assert rps >= MIN_RPS, (
            f"campaign throughput {rps:,.0f} records/s (contract v2) "
            f"below the REPRO_BENCH_MIN_RPS={MIN_RPS:,.0f} gate"
        )
    report_output(
        "campaign_scale",
        f"campaign scale: {traces} traces, {workers} worker(s), "
        f"{len(columns)} records, {rps:,.0f} records/s (v2) vs "
        f"{v1_rps:,.0f} (v1), {columns.nbytes / 1e6:.2f} MB columnar",
        campaign_records=len(columns),
        rng_contract=RNG_CONTRACT_V2,
        records_per_s=rps,
        records_per_s_v1=v1_rps,
        v2_speedup=rps / v1_rps if v1_rps else None,
        columnar_bytes=columns.nbytes,
        min_rps_gate=MIN_RPS or None,
        pool_workers=POOL_WORKERS,
        **pool,
        **large,
    )
