"""Benchmark fixtures: the full-size scenario and output capture.

Each benchmark (the CI-gated perf smokes and the ablation studies)
times its work, prints its result, and persists it under
``benchmarks/output/`` — the text as ``<name>.txt`` plus a
machine-readable ``BENCH_<name>.json`` (wall time, campaign size, cache
hit/miss, the commit and whether the tree differed from it, the host
and dependency versions that produced it, and the run manifest of every
stage traced so far).  The paper's tables and figures are regenerated
by ``python -m repro run`` and timed by ``perfbench/``, not here.

The benchmark session runs with tracing **enabled**: a session-scoped
:class:`repro.obs.Tracer` is installed globally, so every BENCH record
embeds the span tree (scenario stages, pipeline steps, campaign shards,
experiments) accumulated up to that benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Optional

import networkx
import numpy
import pytest
import scipy

from repro.obs import RunManifest, Tracer, set_tracer
from repro.scenario import Scenario, ScenarioConfig

#: Full-size campaign for the traffic benchmarks (env-overridable so CI
#: can run a reduced smoke pass).
BENCH_CAMPAIGN_TRACES = int(os.environ.get("REPRO_BENCH_TRACES", "20000"))


@pytest.fixture(scope="session")
def bench_tracer() -> Tracer:
    """Session tracer: every benchmarked stage lands in BENCH records."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


@pytest.fixture(scope="session")
def scenario(bench_tracer) -> Scenario:
    return Scenario(
        config=ScenarioConfig(seed=2015, campaign_traces=BENCH_CAMPAIGN_TRACES)
    )


#: Where the session writes its records: rewriting them must not mark
#: the next record's tree as changed.
_OUTPUT_SPEC = ":(top,exclude)benchmarks/output"


def _git(cwd: Path, *args: str) -> Optional[str]:
    """``git args`` run in *cwd*: its stdout, ``None`` outside a git
    checkout (or without git)."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout


def _commit(cwd: Path = Path(__file__).parent) -> Optional[str]:
    """The checked-out commit the record was made at, ``None`` outside
    a git checkout."""
    out = _git(cwd, "rev-parse", "HEAD")
    return (out or "").strip() or None


def _dirty(cwd: Path = Path(__file__).parent) -> Optional[bool]:
    """Whether the tree differs from :func:`_commit` (a change, staged
    or not, or an untracked file; the record outputs aside), ``None``
    outside a git checkout.  A record made before its change was
    committed names the parent commit; this flags it."""
    out = _git(cwd, "status", "--porcelain", "--", _OUTPUT_SPEC)
    return None if out is None else bool(out.strip())


def _wall_time_s(request, started: float) -> float:
    """Benchmark mean when pytest-benchmark ran, else elapsed time."""
    try:
        stats = request.getfixturevalue("benchmark").stats
        return float(stats.stats.mean)
    except Exception:
        return time.perf_counter() - started


@pytest.fixture()
def report_output(request, scenario, bench_tracer):
    """Writer that persists and echoes each benchmark's result."""
    output_dir = Path(__file__).parent / "output"
    output_dir.mkdir(exist_ok=True)
    started = time.perf_counter()

    def write(name: str, text: str, **extra) -> None:
        (output_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        campaign = scenario.peek("campaign")  # never force a build here
        manifest = RunManifest.from_tracer(
            bench_tracer,
            config=scenario.config.to_dict(),
            meta={"bench": name},
        )
        payload = {
            "name": name,
            "commit": _commit(),
            "dirty": _dirty(),
            "wall_time_s": _wall_time_s(request, started),
            "campaign_traces": scenario.campaign_traces,
            "campaign_records": len(campaign) if campaign is not None else None,
            "cache": scenario.cache_stats(),
            "host": {
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
            },
            "versions": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "networkx": networkx.__version__,
            },
            "manifest": manifest.to_dict(),
        }
        payload.update(extra)
        (output_dir / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        banner = "=" * 72
        print(f"\n{banner}\n{text}\n{banner}")

    return write
