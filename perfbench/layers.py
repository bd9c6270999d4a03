"""Per-layer call counts and busy time, recorded from outside ``src/``.

:func:`install` wraps the public entry points of each layer and records
into a :class:`Recorder`.  Each name is patched where its callers look
it up: class attributes for methods, and for module-level functions
every loaded module that imported the function by name.  The records
are locked because the what-if server's handler threads record
concurrently.  A per-thread guard keeps a nested call of the same layer
(NetworkX calling itself, ``optimize_all_isps`` and its helpers) from
being counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

now = time.perf_counter


class Recorder:
    """Thread-safe counters, busy times and timestamped samples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values: Dict[str, float] = defaultdict(float)
        #: name -> [(monotonic end time, milliseconds)]
        self.samples: Dict[str, List[List[float]]] = defaultdict(list)

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] += amount

    def sample(self, name: str, millis: float) -> None:
        with self._lock:
            self.samples[name].append([time.monotonic(), millis])

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "values": dict(self.values),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


_active = threading.local()


def _guarded(key: str) -> bool:
    held = getattr(_active, "keys", None)
    if held is None:
        held = _active.keys = set()
    if key in held:
        return False
    held.add(key)
    return True


def _release(key: str) -> None:
    _active.keys.discard(key)


def _timed(
    recorder: Recorder,
    key: str,
    fn: Callable,
    calls: Optional[str] = None,
    after: Optional[Callable[[Any, tuple, float], None]] = None,
) -> Callable:
    """*fn* wrapped to add its busy time to ``<key>_s`` (and one call to
    *calls*); *after(result, args, seconds)* records layer-specific
    counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _guarded(key):
            return fn(*args, **kwargs)
        started = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = now() - started
            _release(key)
            recorder.add(f"{key}_s", elapsed)
            if calls is not None:
                recorder.add(calls, 1)
        if after is not None:
            after(result, args, elapsed)
        return result

    return wrapper


def _patch_function(module_name: str, name: str, wrap: Callable) -> None:
    """Replace ``module.name`` in its module and in every loaded module
    that imported the same object under the same name."""
    module = importlib.import_module(module_name)
    original = getattr(module, name)
    wrapped = wrap(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, name, None) is original:
            setattr(loaded, name, wrapped)


def _patch_method(cls: type, name: str, wrap: Callable) -> None:
    setattr(cls, name, wrap(getattr(cls, name)))


#: Modules whose callers must be loaded before patching, so that names
#: they imported get replaced too.
_CALLERS = (
    "repro.cli",
    "repro.experiments.runner",
    "repro.families.stages",
    "repro.mitigation",
    "repro.resilience",
    "repro.service.handlers",
    "repro.service.server",
)

#: NetworkX shortest-path entry points the package calls (generator
#: functions such as ``shortest_simple_paths`` are left out: a wrapper
#: would time only the generator's creation).
_NX_FUNCTIONS = (
    "shortest_path",
    "shortest_path_length",
    "single_source_dijkstra",
    "single_source_dijkstra_path_length",
    "dijkstra_predecessor_and_distance",
    "dijkstra_path",
    "dijkstra_path_length",
    "bidirectional_dijkstra",
)


def install(recorder: Recorder, stage_prefix: str = "stage.") -> None:
    """Wrap every layer entry point the benchmark reports on."""
    for module_name in _CALLERS:
        importlib.import_module(module_name)
    import networkx

    from repro.engine.graph import StageGraph
    from repro.fibermap.pipeline import MapConstructionPipeline
    from repro.perf.cache import ArtifactCache
    from repro.perf.routing import RoutingCore
    from repro.perf.substrate import GraphView
    from repro.service.server import ServiceApp
    from repro.traceroute.overlay import TrafficOverlay

    _install_engine(recorder, StageGraph, ArtifactCache, stage_prefix)

    for i, step in enumerate(
        ("step1_initial_map", "step2_check_initial_map", "step3_augment",
         "step4_validate_augmented"),
        start=1,
    ):
        _patch_method(
            MapConstructionPipeline, step,
            lambda fn, i=i: _timed(recorder, f"pipeline.step{i}", fn),
        )

    for module_name, name, key in (
        ("repro.mitigation.exchange", "plan_exchange", "exchange.plan"),
        ("repro.mitigation.augmentation", "improvement_curves",
         "augmentation.improvement_curves"),
        ("repro.mitigation.latency", "latency_study",
         "latency.latency_study"),
        ("repro.mitigation.robustness", "optimize_isp_around_conduits",
         "robustness.optimize"),
        ("repro.mitigation.robustness", "optimize_all_isps",
         "robustness.optimize"),
        ("repro.resilience.traffic_shift", "traffic_shift",
         "resilience.traffic_shift"),
        ("repro.resilience.impact", "assess_cut", "resilience.assess_cut"),
    ):
        _patch_function(
            module_name, name, lambda fn, key=key: _timed(recorder, key, fn)
        )

    for name in _NX_FUNCTIONS:
        setattr(networkx, name, _timed(
            recorder, "nx.sssp", getattr(networkx, name),
            calls="nx.sssp_calls",
        ))

    def sources(result, args, elapsed):
        try:
            recorder.add("substrate.dijkstra_sources", len(args[1]))
        except TypeError:  # an unsized iterable of sources
            pass

    _patch_method(GraphView, "dijkstra", lambda fn: _timed(
        recorder, "substrate.dijkstra", fn,
        calls="substrate.dijkstra_calls", after=sources,
    ))
    _patch_method(GraphView, "clone", lambda fn: _timed(
        recorder, "substrate.clone", fn,
    ))
    _patch_method(RoutingCore, "path", lambda fn: _timed(
        recorder, "routing.path", fn, calls="routing.path_calls",
    ))

    def campaign_built(result, args, elapsed):
        recorder.add("campaign.records", len(result))
        recorder.add("columns.bytes", result.nbytes)

    _patch_function("repro.traceroute.campaign", "run_campaign", lambda fn:
                    _timed(recorder, "campaign.run", fn,
                           after=campaign_built))

    def overlaid(result, args, elapsed):
        try:
            recorder.add("overlay.records", len(args[1]))
        except TypeError:
            pass

    _patch_method(TrafficOverlay, "add_traces", lambda fn: _timed(
        recorder, "overlay.add_traces", fn, after=overlaid,
    ))

    _install_service(recorder, ServiceApp)


def _install_engine(recorder, StageGraph, ArtifactCache, prefix) -> None:
    """Stage build self time: a stage's ``materialize`` minus the time
    spent materializing the dependencies it pulled in."""
    original = StageGraph.materialize
    frames = threading.local()

    @functools.wraps(original)
    def materialize(self, name):
        if self.peek(name) is not None:
            return original(self, name)
        stack = getattr(frames, "stack", None)
        if stack is None:
            stack = frames.stack = []
        stack.append(0.0)
        started = now()
        try:
            return original(self, name)
        finally:
            elapsed = now() - started
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            recorder.add(f"{prefix}{name}_s", elapsed - children)

    StageGraph.materialize = materialize

    fetch = ArtifactCache.fetch

    @functools.wraps(fetch)
    def counted_fetch(self, stage, params):
        hit, value = fetch(self, stage, params)
        recorder.add("cache.hits" if hit else "cache.misses", 1)
        return hit, value

    ArtifactCache.fetch = counted_fetch


def _install_service(recorder: Recorder, ServiceApp) -> None:
    """``ServiceApp.handle`` time per query kind, as timestamped samples
    (the benchmark cuts them into its load phases)."""
    handle = ServiceApp.handle

    @functools.wraps(handle)
    def timed_handle(self, method, path, body):
        started = now()
        result = handle(self, method, path, body)
        elapsed = now() - started
        if method == "POST" and path.startswith("/v1/query"):
            try:
                kind = json.loads(body or b"{}").get("kind", "?")
            except (ValueError, AttributeError):
                kind = "?"
            recorder.sample(f"service.{kind}.handle_ms", elapsed * 1e3)
        return result

    ServiceApp.handle = timed_handle
