"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR] [--pin]
    python3 perfbench/run.py compare A B
    python3 perfbench/run.py manifest [--write | --check]

A run prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) by name with its unit, and as its last line one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full record (versions, phases, processes, checks) goes to ``--out``
(default ``perfbench/results/``).  Without ``--workload`` all three
workloads run in turn.  Every workload runs the us2015 scenario at seed
``spec.SCENARIO_SEED``; ``--seed`` (default 2015) shuffles the order of
the experiments and seeds the query generator.  Times spent computing
are reported at a reference machine speed (``probe.py``).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

import loadgen
import probe
import spec
import stats

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
PINS = HERE / "pins.json"
RECORD_SCHEMA = "perfbench/1"

#: Per-process limit; a whole run stays well inside three minutes.
JOB_TIMEOUT_S = 150
SERVER_TIMEOUT_S = 60
#: Upper bound on repeated work processes, whatever --seconds says.
MAX_REPS = 8

monotonic = time.monotonic


@dataclass(frozen=True)
class Batch:
    """A batch workload: set up in a fresh process, then time its work
    (``jobs.py`` knows each *kind*'s set-up stages)."""

    kind: str
    traces: int
    workers: int
    #: Work items per repetition, for ``rate_per_s``.
    items: int
    #: The experiments the work runs, in an order the seed shuffles.
    experiments: Tuple[str, ...]


BATCHES = {
    "experiments": Batch("experiments", 20000, 1, len(spec.EXPERIMENT_IDS),
                         spec.EXPERIMENT_IDS),
    "campaign_traffic": Batch("campaign", 500_000, 2, 500_000,
                              spec.CAMPAIGN_IDS),
}
WHATIF_TRACES = BATCHES["experiments"].traces


class Run:
    """One workload run: its processes, phases, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, pin: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = HERE / ".work" / f"{workload}-{os.getpid()}"
        self.started = monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.phases: List[Dict[str, Any]] = []
        self.metrics: Dict[str, float] = {}
        #: The end-to-end times as the wall clock read them, before they
        #: were scaled to the reference speed.
        self.unscaled: Dict[str, float] = {}
        self.digests: Dict[str, str] = {}
        self.probe: Optional[probe.Probe] = None
        self.probe_unit_ms: Optional[float] = None
        self.wall_setups: Dict[str, float] = {}
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        #: Pinned digests of this workload's outputs, or None: then the
        #: outputs are only checked against each other.
        self.pins: Optional[Dict[str, str]] = (
            None if pin else pins.get(workload))
        self.pinning = pin
        #: Outputs checked against a pin (the rest against each other).
        self.pinned = 0

    # -- bookkeeping -----------------------------------------------------
    def check(self, ok: bool, message: str) -> bool:
        """Count one operation; record it as failed unless *ok*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(message)
        return ok

    def phase(self, name: str, start: float, duration: float, sent: int,
              failed: int) -> None:
        self.phases.append({
            "name": name,
            "start_s": round(start - self.started, 6),
            "duration_s": duration,
            "sent": sent,
            "succeeded": sent - failed,
            "failed": failed,
        })

    def scaled(self, seconds: float, start: float) -> float:
        """*seconds* measured from *start* on, at the reference speed."""
        return seconds * self.probe.scale(start, start + seconds)

    def env(self) -> Dict[str, str]:
        tmp = self.work_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_") and k != "PYTHONPATH"
        }
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(tmp))
        return env

    # -- batch processes -------------------------------------------------
    def job(self, label: str, batch: Batch, *, work: bool,
            cache: Optional[Path] = None, store_to: Optional[Path] = None,
            traced: bool = False) -> Optional[Dict[str, Any]]:
        """One fresh process; returns its result with ``setup_s`` and
        (for work on one CPU) ``work_s`` at the reference speed (as the
        wall clock read them in ``setup_wall_s`` and ``work_wall_s``), or
        ``None`` (a failed operation) if it did not finish."""
        out = self.work_dir / f"{label}.json"
        job_spec = {
            "seed": spec.SCENARIO_SEED,
            "experiments": seeded_order(batch.experiments, self.seed),
            "traces": batch.traces,
            "workers": batch.workers,
            "cache": str(cache) if cache else None,
            "kind": batch.kind,
            "work": work,
            "store_to": str(store_to) if store_to else None,
            "trace": traced,
            "out": str(out),
        }
        cmd = [sys.executable, str(HERE / "jobs.py"), json.dumps(job_spec)]
        spawned = monotonic()
        code = run_child(cmd, self.env(), self.work_dir / f"{label}.log")
        ended = monotonic()
        if not self.check(code == 0 and out.exists(),
                          f"{label}: process failed ({code})"):
            self.phase(label, spawned, ended - spawned, 1, 1)
            return None
        result = json.loads(out.read_text())
        result["label"] = label
        result["traced"] = traced
        setup = result["ready"] - spawned
        self.phase(f"{label} setup", spawned, setup, 1, 0)
        result["setup_wall_s"] = setup
        result["setup_s"] = self.scaled(setup, spawned)
        if work:
            self.phase(f"{label} work", result["ready"], result["work_s"],
                       len(result["digests"]), 0)
            result["work_wall_s"] = result["work_s"]
            # Work sharded over every CPU leaves the probe none to itself:
            # it then measures the contention the work causes, not the
            # host's speed, so such work keeps its wall time.
            if batch.workers == 1:
                result["work_s"] = self.scaled(result["work_s"],
                                               result["ready"])
        return result

    def run_batch(self) -> None:
        batch = BATCHES[self.workload]
        cache = self.work_dir / "cache"
        colds: List[Dict[str, Any]] = []
        # Counted on the wall clock, so that on a slow host a run does
        # fewer repetitions rather than take longer.
        worked = 0.0
        while not colds or (worked < self.seconds and len(colds) < MAX_REPS):
            # In a traced run the first process also fills the cache the
            # warm set-ups start from.
            fill = self.trace and not colds
            result = self.job(f"cold-{len(colds) + 1}", batch, work=True,
                              store_to=cache if fill else None,
                              traced=self.trace)
            if result is None:
                return
            colds.append(result)
            worked += result["work_wall_s"]
        full = list(colds)
        while len(colds) < spec.SETUPS_PER_RUN:
            result = self.job(f"cold-{len(colds) + 1}", batch, work=False,
                              traced=self.trace)
            if result is None:
                return
            colds.append(result)
        warms = []
        if self.trace:
            reference = self.job("reference", batch, work=False)
            if reference is None:
                return
            for k in range(spec.SETUPS_PER_RUN):
                result = self.job(f"warm-{k + 1}", batch, work=False,
                                  cache=cache, traced=True)
                if result is None:
                    return
                warms.append(result)

        self.check_batch(full, colds + warms)
        work_s = median([r["work_s"] for r in full])
        self.metrics.update(
            setup_s=median([r["setup_s"] for r in colds]),
            work_s=work_s,
            rate_per_s=batch.items / work_s,
            peak_rss_mb=median([r["peak_rss_mb"] for r in full]),
        )
        wall_work_s = median([r["work_wall_s"] for r in full])
        self.unscaled.update(
            setup_s=median([r["setup_wall_s"] for r in colds]),
            work_s=wall_work_s,
            rate_per_s=batch.items / wall_work_s,
        )
        if self.trace:
            self.metrics.update(batch_layers(full, colds, warms))
            self.metrics["warm.setup_s"] = median(
                [r["setup_s"] for r in warms])
            self.metrics["trace.overhead_pct"] = overhead_pct(
                [r["setup_s"] for r in colds], reference["setup_s"])

    def check_batch(self, full: List[Dict], processes: List[Dict]) -> None:
        """Work outputs against the pins (or, unpinned, against each
        other); every set-up's stage digests against the first one's."""
        first = full[0]["digests"]
        self.digests = dict(first)
        for result in full:
            for key, digest in result["digests"].items():
                expected = (self.pins or first).get(key)
                self.pinned += self.pins is not None
                self.check(digest == expected,
                           f"{result['label']}: {key} digest {digest[:16]} "
                           f"!= expected {str(expected)[:16]}")
        reference = processes[0]["stage_digests"]
        for result in processes[1:]:
            for stage, digest in result["stage_digests"].items():
                self.check(digest == reference.get(stage),
                           f"{result['label']}: stage {stage} differs "
                           "from cold-1")

    # -- the what-if service ---------------------------------------------
    def server(self, label: str, cache: Optional[Path] = None,
               traced: bool = False) -> loadgen.Server:
        args = ["--seed", str(spec.SCENARIO_SEED),
                "--traces", str(WHATIF_TRACES)]
        if cache is not None:
            args += ["--cache-dir", str(cache)]
        args += ["serve", "--port", "0"]
        if traced:
            prefix = "warm.stage." if label.startswith("warm") else "stage."
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(self.work_dir / f"{label}.layers.json"), prefix, "--",
                   *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        return loadgen.Server(cmd, ROOT, self.env(),
                              self.work_dir / f"{label}.log")

    def start(self, label: str, cache: Optional[Path] = None,
              traced: bool = False, keep: bool = False):
        """Start a server and time its set-up; stop it unless *keep*.
        Returns ``(setup_s, server or None, layer records or None)``, the
        set-up at the reference speed (its wall time goes to
        ``self.wall_setups``)."""
        server = self.server(label, cache, traced)
        try:
            setup = server.wait_ready(SERVER_TIMEOUT_S)
        except loadgen.ServerError as error:
            server.stop()
            self.check(False, f"{label}: {error}")
            self.phase(label, server.spawned, monotonic() - server.spawned,
                       1, 1)
            return None, None, None
        except BaseException:
            server.stop()
            raise
        self.check(True, label)
        self.phase(f"{label} setup", server.spawned, setup, 1, 0)
        self.wall_setups[label] = setup
        setup = self.scaled(setup, server.spawned)
        if keep:
            return setup, server, None
        server.stop()
        return setup, None, self.layers_of(label) if traced else None

    def layers_of(self, label: str) -> Optional[Dict[str, Any]]:
        path = self.work_dir / f"{label}.layers.json"
        return json.loads(path.read_text()) if path.exists() else None

    def run_whatif(self) -> None:
        setup, server, _ = self.start("cold-1", traced=self.trace, keep=True)
        if server is None:
            return
        try:
            phases, counters, rss = self.drive(server)
        finally:
            server.stop()
        if phases is None:
            return
        colds = [setup]
        cold_layers = [self.layers_of("cold-1")]
        serve_layers = cold_layers[0]
        while len(colds) < spec.SETUPS_PER_RUN:
            setup, _, layers = self.start(f"cold-{len(colds) + 1}",
                                          traced=self.trace)
            if setup is None:
                return
            colds.append(setup)
            cold_layers.append(layers)
        # The phases are timed by the wall clock alone: each answer waits
        # out a delayed TCP acknowledgement (about 40 ms), which does not
        # slow down with the host, so scaling them would add its noise.
        a, b, c = phases
        self.metrics.update(
            setup_s=median(colds),
            work_s=c.end - c.start,
            rate_per_s=len(a.answers) / (a.end - a.start),
            peak_rss_mb=rss,
        )
        self.unscaled["setup_s"] = median(
            [self.wall_setups[f"cold-{k + 1}"] for k in range(len(colds))])
        if not self.trace:
            return
        reference, _, _ = self.start("reference")
        if reference is None:
            return
        # The served scenario's stages are those of the experiments' set-up
        # (20k traces), so a batch process fills the warm set-ups' cache.
        cache = self.work_dir / "cache"
        if self.job("fill", BATCHES["experiments"], work=False,
                    store_to=cache) is None:
            return
        warms, warm_layers = [], []
        for k in range(spec.SETUPS_PER_RUN):
            setup, _, layers = self.start(f"warm-{k + 1}", cache=cache,
                                          traced=True)
            if setup is None:
                return
            warms.append(setup)
            warm_layers.append(layers)
        self.metrics.update(whatif_layers(
            phases, counters, serve_layers, cold_layers, warm_layers))
        self.metrics["warm.setup_s"] = median(warms)
        self.metrics["trace.overhead_pct"] = overhead_pct(colds, reference)

    def drive(self, server: loadgen.Server):
        """Discovery, then phases (a), (b), (c) in that fixed order: (c)
        runs on a server that (a) has already warmed, in every run."""
        client = loadgen.Client(server.port)
        try:
            cities, edges = loadgen.discover(client)
        except loadgen.ServerError as error:
            self.check(False, f"discovery: {error}")
            return None, None, None
        finally:
            client.close()
        queries = loadgen.generate(self.seed, cities, edges,
                                   loadgen.provider_names(SRC))
        a = loadgen.closed_loop_for(
            server.port, queries.latency_pool, self.seconds / 3)
        # Phase (b) feeds only per-layer metrics, so it runs only when
        # they are reported.
        b = loadgen.open_loop(server.port, queries.open_offsets,
                              queries.open_requests) if self.trace else None
        c = loadgen.closed_loop_list(server.port, queries.mixed)
        counters = loadgen.manifest_counters(server.port)
        counters["requests"] -= server.health_polls
        counters["errors"] -= server.warming_polls
        rss = server.peak_rss_mb()
        self.check_answers([p for p in (a, b, c) if p is not None])
        if self.pinning:
            generated = queries.latency_pool + queries.mixed
            self.check(all(q.decode() in self.digests for q in generated),
                       "pin: phase (a) did not reach every pooled query")
        return (a, b, c), counters, rss

    def check_answers(self, phases: Sequence[loadgen.Phase]) -> None:
        """Every answer is a 200 whose body matches the pinned digest of
        its request (a request without a pin: the first answer to the same
        request, and the latency invariants)."""
        seen: Dict[bytes, str] = {}
        pins = self.pins or {}
        for phase in phases:
            failed = 0
            for answer in phase.answers:
                key = answer.request.decode()
                if answer.status != 200:
                    ok, why = False, f"status {answer.status}"
                elif key in pins:
                    self.pinned += 1
                    ok = answer.digest == pins[key]
                    why = f"digest {answer.digest} != pinned {pins[key]}"
                else:
                    expected = seen.setdefault(answer.request, answer.digest)
                    ok = answer.digest == expected and latency_sane(answer)
                    why = "answer differs from an earlier answer or breaks "\
                          "a latency invariant"
                if ok:
                    self.digests[key] = answer.digest
                failed += not self.check(ok, f"({phase.name}) {key}: {why}")
            self.phase(f"phase {phase.name}", phase.start,
                       phase.end - phase.start, len(phase.answers), failed)

    # -- the whole run ---------------------------------------------------
    def execute(self) -> None:
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        self.work_dir.mkdir(parents=True)
        self.probe = probe.Probe(self.work_dir / "probe.log", self.env())
        try:
            self.probe.wait_started()
            if self.workload == "whatif":
                self.run_whatif()
            else:
                self.run_batch()
            self.probe_unit_ms = 1e3 * self.probe.unit_s(self.started,
                                                         monotonic())
            self.metrics["probe.unit_ms"] = self.probe_unit_ms
        finally:
            self.probe.stop()
            shutil.rmtree(self.work_dir, ignore_errors=True)

    def expected_metrics(self) -> List[spec.Metric]:
        return list(spec.PER_LAYER if self.trace else spec.END_TO_END)

    def record(self) -> Dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA,
            "workload": self.workload,
            "seed": self.seed,
            "scenario_seed": spec.SCENARIO_SEED,
            "pinned": self.pinned,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "finished_at": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "wall_s": monotonic() - self.started,
            **environment(),
            "phases": self.phases,
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": self.metrics,
            "unscaled": self.unscaled,
            "probe_unit_ms": self.probe_unit_ms,
            "digests": self.digests,
        }


# ----------------------------------------------------------------------
# Per-layer assembly
# ----------------------------------------------------------------------
def _median_of(records: Sequence[Optional[Dict]], key: str) -> float:
    values = [r["values"].get(key, 0.0) for r in records if r is not None]
    return median(values) if values else 0.0


def _layer_metrics(main: Sequence[Dict], colds: Sequence[Dict],
                   warms: Sequence[Dict]) -> Dict[str, float]:
    """Every per-layer metric the layer wrappers record: stage and
    pipeline times from cold set-ups, warm stage times and cache counts
    from warm set-ups, the rest from the processes that did the work."""
    out: Dict[str, float] = {}
    for metric in spec.PER_LAYER:
        name = metric.name
        if name.startswith(("stage.", "pipeline.")):
            out[name] = _median_of(colds, name)
        elif name.startswith(("warm.", "cache.")):
            out[name] = _median_of(warms, name)
        else:
            out[name] = _median_of(main, name)
    for layer, busy in (("campaign", "campaign.run_s"),
                        ("overlay", "overlay.add_traces_s")):
        records = _median_of(main, f"{layer}.records")
        out[f"{layer}.records_per_s"] = (
            records / out[busy] if out[busy] else 0.0)
    return out


def batch_layers(full, colds, warms) -> Dict[str, float]:
    main = [r["layers"] for r in full]
    out = _layer_metrics(main, [r["layers"] for r in colds],
                         [r["layers"] for r in warms])
    for experiment_id in spec.EXPERIMENT_IDS:
        times = [r["times"][experiment_id] for r in full
                 if experiment_id in r["times"]]
        out[f"exp.{experiment_id}_s"] = median(times) if times else 0.0
    return out


def _handle_p50(layers: Dict, kind: str, phase: loadgen.Phase) -> float:
    samples = [
        ms for t, ms in layers["samples"].get(f"service.{kind}.handle_ms", [])
        if phase.start <= t <= phase.end
    ]
    return stats.percentile(samples, 50) if samples else 0.0


def whatif_layers(phases, counters, serve, colds, warms) -> Dict[str, float]:
    a, b, c = phases
    out = _layer_metrics([serve], colds, warms)
    out["service.latency.handle_p50_ms"] = _handle_p50(serve, "latency", b)
    for kind in spec.SERVICE_KINDS[1:]:
        out[f"service.{kind}.handle_p50_ms"] = _handle_p50(serve, kind, c)
    open_ms = [x.latency * 1e3 for x in b.answers]
    mixed_ms = [x.latency * 1e3 for x in c.answers]
    tail = stats.tail_percentile(len(open_ms))
    out.update({
        "client.latency_p50_ms": stats.percentile(open_ms, 50),
        "client.latency_p95_ms": stats.percentile(open_ms, tail),
        "client.mixed_p50_ms": stats.percentile(mixed_ms, 50),
        "client.mixed_p95_ms": stats.percentile(
            mixed_ms, stats.tail_percentile(len(mixed_ms))),
        "gen.late_p95_ms": stats.percentile(b.late, tail) * 1e3,
        "gen.late_max_ms": max(b.late) * 1e3,
        "service.requests": counters["requests"],
        "service.errors": counters["errors"],
        "service.latency.batches": counters["latency_batches"],
        "service.latency.mean_batch_size": (
            counters["latency_batched_requests"]
            / max(1, counters["latency_batches"])),
    })
    out["service.transport_p50_ms"] = (
        out["client.latency_p50_ms"] - out["service.latency.handle_p50_ms"])
    return out


def seeded_order(ids: Sequence[str], seed: int) -> List[str]:
    """The experiments in the order the workload seed shuffles them to."""
    return random.Random(f"perfbench-order-{seed}").sample(list(ids),
                                                          len(ids))


def overhead_pct(traced_setups: Sequence[float], untraced: float) -> float:
    return 100.0 * (median(traced_setups) - untraced) / untraced


def latency_sane(answer: loadgen.Answer) -> bool:
    """A latency answer's path runs from city_a to city_b over as many
    conduits as hops, with a positive delay."""
    request = json.loads(answer.request)
    if request["kind"] != "latency":
        return True
    body = json.loads(answer.body)
    if not body["reachable"]:
        return True
    path = body["path"]
    return (
        path[0] == request["city_a"] and path[-1] == request["city_b"]
        and body["hops"] == len(body["conduit_ids"]) == len(path) - 1
        and body["delay_ms"] > 0
    )


# ----------------------------------------------------------------------
# Processes and environment
# ----------------------------------------------------------------------
def run_child(cmd: List[str], env: Dict[str, str], log: Path) -> int:
    """Run *cmd* in its own session; on timeout kill the whole group
    (the campaign's worker processes included) and wait for it."""
    with open(log, "w") as handle:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=handle,
                                start_new_session=True)
        try:
            return proc.wait(timeout=JOB_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise


def environment() -> Dict[str, Any]:
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "versions": versions,
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": "0",
    }


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources (identifies a checkout that is
    not a git repository)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else [
        w.name for w in spec.WORKLOADS]
    out_dir = Path(args.out) if args.out else HERE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run = Run(workload, args.seed, args.seconds, bool(args.trace),
                  pin=args.pin)
        run.execute()
        record = run.record()
        stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
        path = out_dir / (f"{workload}-seed{args.seed}-trace{args.trace}-"
                          f"{stamp}-{os.getpid()}.json")
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{workload} (seed {args.seed}): "
              f"{run.attempted - run.failed}/{run.attempted} operations "
              f"correct, {run.pinned} outputs against pins; record {path}")
        for failure in run.failures[:10]:
            print(f"  FAILED {failure}")
        metrics = {}
        for metric in run.expected_metrics():
            if metric.name not in run.metrics:
                continue
            value = run.metrics[metric.name]
            metrics[metric.name] = {"value": value, "unit": metric.unit}
            print(f"  {metric.name} = {value:.6g} {metric.unit}")
        missing = len(metrics) < len(run.expected_metrics())
        if args.pin and not missing and run.failed == 0:
            clashes = write_pins(workload, run.digests)
            print(f"  not pinned: {clashes} answers differ from their pins"
                  if clashes else f"  pinned {len(run.digests)} digests in "
                  f"{PINS.relative_to(ROOT)}")
            summary["correct"] &= not clashes
        summary["correct"] &= run.failed == 0 and not missing
        summary["attempted"] += run.attempted
        summary["failed"] += run.failed
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        summary["metrics"].update(
            {prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def write_pins(workload: str, digests: Dict[str, str]) -> int:
    """Pin a batch workload's outputs; add a what-if run's answers to the
    pinned ones (each seed asks other questions of the same scenario).
    Writes nothing and returns how many answers contradict a pin when any
    does (to re-pin changed answers, delete the what-if table first)."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    table = pins.get(workload, {}) if workload == "whatif" else {}
    clashes = sum(table.get(k, v) != v for k, v in digests.items())
    if not clashes:
        pins[workload] = dict(sorted({**table, **digests}.items()))
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return clashes


def load_records(location: str) -> List[Dict[str, Any]]:
    """Untraced result records from a file or a directory of them."""
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        try:
            record = json.loads(file.read_text())
        except (OSError, ValueError):
            continue
        if record.get("schema") == RECORD_SCHEMA and not record["trace"]:
            records.append(record)
    return records


def cmd_compare(args: argparse.Namespace) -> int:
    """Median and quartiles of each (workload, end-to-end metric) on
    both sides, with a verdict under the bounds of BENCHMARK.json."""
    manifest = json.loads(Path(args.benchmark).read_text())
    sides = [load_records(args.a), load_records(args.b)]
    if not sides[0] or not sides[1]:
        print("compare: no untraced records on one side", file=sys.stderr)
        return 2
    print(f"A: {args.a} ({len(sides[0])} records)   "
          f"B: {args.b} ({len(sides[1])} records)")
    print(f"{'workload':17} {'metric':13} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'wins':>6}  verdict")
    verdicts = []
    for workload in [w["name"] for w in manifest["workloads"]]:
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            values = [
                sorted((r["seed"], r["metrics"][name]) for r in side
                       if r["workload"] == workload and name in r["metrics"])
                for side in sides
            ]
            if not values[0] or not values[1]:
                continue
            a = [v for _, v in values[0]]
            b = [v for _, v in values[1]]
            result = stats.compare(a, b, metric["better"], metric["bound"],
                                   pairs=pair_by_seed(*values))
            verdicts.append(result.verdict)
            print(f"{workload:17} {name:13} {_quartiles(a):>30} "
                  f"{_quartiles(b):>30} {100 * result.change:+7.2f}% "
                  f"{result.wins:>2}/{result.pairs:<3}  {result.verdict}")
    counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    print("verdicts: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 0


def pair_by_seed(a: Sequence, b: Sequence) -> List:
    """Pairs of values run on the same seed, in seed order (the k-th run
    of a seed on one side meets the k-th run of it on the other)."""
    pairs = []
    for seed in sorted({s for s, _ in a} & {s for s, _ in b}):
        left = [v for s, v in a if s == seed]
        right = [v for s, v in b if s == seed]
        pairs.extend(zip(left, right))
    return pairs


def _quartiles(values: Sequence[float]) -> str:
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def cmd_manifest(args: argparse.Namespace) -> int:
    text = json.dumps(spec.manifest(), indent=2) + "\n"
    target = ROOT / "BENCHMARK.json"
    if args.write:
        target.write_text(text)
    elif args.check:
        if not target.exists() or target.read_text() != text:
            print("BENCHMARK.json differs from perfbench/spec.py; "
                  "regenerate with: python3 perfbench/run.py manifest "
                  "--write", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def parse(argv: List[str]) -> argparse.Namespace:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", help="parent: a record file or directory")
        parser.add_argument("b", help="change: a record file or directory")
        parser.add_argument("--benchmark",
                            default=str(ROOT / "BENCHMARK.json"))
        args = parser.parse_args(argv[1:])
        args.command = cmd_compare
        return args
    if argv[:1] == ["manifest"]:
        parser = argparse.ArgumentParser(prog="run.py manifest")
        mode = parser.add_mutually_exclusive_group()
        mode.add_argument("--write", action="store_true")
        mode.add_argument("--check", action="store_true")
        args = parser.parse_args(argv[1:])
        args.command = cmd_manifest
        return args
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the result records")
    parser.add_argument("--pin", action="store_true",
                        help="check outputs for self-consistency only, and "
                             "on success pin their digests")
    args = parser.parse_args(argv)
    args.command = cmd_run
    return args


def main(argv: List[str]) -> int:
    args = parse(argv)
    sources = SRC / "repro" / "__init__.py"
    if args.command is cmd_run and not sources.is_file():
        print(f"perfbench: no package sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    return args.command(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
