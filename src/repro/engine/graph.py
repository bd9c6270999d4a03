"""The stage-graph execution engine.

A :class:`StageGraph` owns a table of :class:`~repro.engine.StageDef`
declarations and applies every cross-cutting execution policy in one
place:

* **Resolution** — dependencies materialize on demand, in dependency
  order, each stage at most once per graph (memoized).
* **Artifact cache** — persisted stages fetch before building and store
  after, keyed by the declared graph parameters plus the package's code
  version.  A cache *write* failure (disk full, permissions, injected
  fault) never fails the run: the built value is returned anyway and
  the stage is marked degraded in the trace.
* **Tracing** — every stage build runs inside one
  ``<prefix>.<stage>`` span with cache hit/miss attribution, exactly
  the shape run manifests expect.
* **Laziness under a warm cache** — a persisted stage that hits the
  cache never materializes its dependencies, so e.g. a warm overlay is
  served without rebuilding the campaign beneath it.
* **Concurrency** — per-stage locks keep each build single-flight
  when threads (the what-if service's handlers) materialize the same
  stage at once.

Fault injection reaches the engine through the same seams production
failures do: the artifact cache's store path consults the process
fault injector (:mod:`repro.obs.faults`), and the degraded-store
recovery above is what turns an injected write failure into a traced
non-event.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.stage import (
    StageContext,
    StageDef,
    StageGraphError,
    validate_stages,
)
from repro.obs.tracer import get_tracer


class UnknownStageError(KeyError, StageGraphError):
    """Lookup of a stage name the graph does not declare."""


class StageGraph:
    """Declarative dataflow: declared stages in, materialized values out."""

    def __init__(
        self,
        stages: Iterable[StageDef],
        *,
        base_seed: int = 0,
        params: Optional[Dict[str, Any]] = None,
        cache: Any = None,
        span_prefix: str = "stage",
    ):
        self._stages: Dict[str, StageDef] = {}
        for stage in stages:
            self._stages[stage.name] = stage
        problems = validate_stages(tuple(self._stages.values()))
        if problems:
            raise StageGraphError("; ".join(problems))
        self.base_seed = base_seed
        self.params: Dict[str, Any] = dict(params or {})
        self.cache = cache
        self.span_prefix = span_prefix
        self._values: Dict[str, Any] = {}
        self._locks: Dict[str, threading.Lock] = {
            name: threading.Lock() for name in self._stages
        }

    # -- structure -----------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def stage(self, name: str) -> StageDef:
        try:
            return self._stages[name]
        except KeyError:
            raise UnknownStageError(name) from None

    def names(self) -> Tuple[str, ...]:
        """Every declared stage, in declaration order."""
        return tuple(self._stages)

    def order(
        self, names: Optional[Iterable[str]] = None
    ) -> Tuple[str, ...]:
        """Topological order over *names* (default: the whole graph)."""
        targets = self.closure(self.names() if names is None else names)
        placed: List[str] = []
        placed_set: set = set()
        remaining = list(targets)
        while remaining:
            progressed = False
            for name in list(remaining):
                deps = self.stage(name).deps
                if all(d in placed_set or d not in targets for d in deps):
                    placed.append(name)
                    placed_set.add(name)
                    remaining.remove(name)
                    progressed = True
            if not progressed:  # pragma: no cover - init validates acyclicity
                raise StageGraphError(f"cycle among {remaining}")
        return tuple(placed)

    def closure(self, names: Iterable[str]) -> Tuple[str, ...]:
        """*names* plus every transitive dependency, declaration-ordered."""
        wanted: set = set()
        pending = list(names)
        while pending:
            name = pending.pop()
            if name in wanted:
                continue
            wanted.add(name)
            pending.extend(self.stage(name).deps)
        return tuple(n for n in self._stages if n in wanted)

    def dependents(self, name: str) -> Tuple[str, ...]:
        """Every stage downstream of *name* (transitively)."""
        self.stage(name)
        downstream: set = {name}
        changed = True
        while changed:
            changed = False
            for stage in self._stages.values():
                if stage.name in downstream:
                    continue
                if any(dep in downstream for dep in stage.deps):
                    downstream.add(stage.name)
                    changed = True
        downstream.discard(name)
        return tuple(n for n in self._stages if n in downstream)

    def derived_seed(self, name: str) -> Optional[int]:
        """``base_seed + seed_offset``, or ``None`` for seedless stages."""
        offset = self.stage(name).seed_offset
        return None if offset is None else self.base_seed + offset

    def cache_key(self, name: str) -> Optional[Dict[str, Any]]:
        """The cache-key parameters of a persisted stage, else ``None``."""
        stage = self.stage(name)
        if not stage.persist:
            return None
        return {p: self.params[p] for p in stage.cache_params}

    # -- execution -----------------------------------------------------
    def materialize(self, name: str) -> Any:
        """The stage's value, building (or cache-fetching) on first use."""
        try:
            return self._values[name]
        except KeyError:
            pass
        stage = self.stage(name)
        with self._locks[name]:
            if name not in self._values:
                self._values[name] = self._execute(stage)
        return self._values[name]

    def materialize_many(self, names: Iterable[str]) -> None:
        """Materialize several stages serially and lazily — a warm
        persisted stage never touches its dependencies."""
        for name in names:
            self.materialize(name)

    def peek(self, name: str) -> Any:
        """The stage's value if already materialized, else ``None``."""
        self.stage(name)
        return self._values.get(name)

    def materialized(self) -> Tuple[str, ...]:
        """Names of the stages materialized so far."""
        return tuple(n for n in self._stages if n in self._values)

    def _execute(self, stage: StageDef) -> Any:
        tracer = get_tracer()
        build: Callable[[], Any] = lambda: stage.build(
            StageContext(graph=self, stage=stage)
        )
        with tracer.span(f"{self.span_prefix}.{stage.name}"):
            if not stage.persist:
                return build()
            if self.cache is None:
                value = build()
                tracer.annotate(cache="off")
                return value
            key = self.cache_key(stage.name)
            hit, value = self.cache.fetch(stage.name, key)
            if hit:
                tracer.annotate(cache="hit")
                return value
            single_flight = getattr(self.cache, "single_flight", None)
            if single_flight is None:
                return self._build_and_store(stage, key, build, tracer)
            # Single-flight on the stage key: concurrent processes
            # sharing this cache root (sweep cells, parallel CLI runs)
            # build identical artifacts once — the first holder builds
            # and stores, waiters re-fetch the stored entry.
            with single_flight(stage.name, key) as contended:
                if contended:
                    hit, value = self.cache.fetch(stage.name, key)
                    if hit:
                        tracer.annotate(cache="hit", coalesced=True)
                        return value
                return self._build_and_store(stage, key, build, tracer)

    def _build_and_store(
        self,
        stage: StageDef,
        key: Optional[Dict[str, Any]],
        build: Callable[[], Any],
        tracer: Any,
    ) -> Any:
        value = build()
        try:
            self.cache.store(stage.name, key, value)
        except OSError as error:
            tracer.event(
                "cache.degraded", stage=stage.name,
                error=type(error).__name__,
            )
            tracer.annotate(cache="miss", store="failed")
        else:
            tracer.annotate(cache="miss")
        return value

    # -- cache management ----------------------------------------------
    def invalidate(self, name: str, dependents: bool = True) -> int:
        """Targeted cache eviction: drop *name*'s persisted artifacts.

        Downstream persisted stages are evicted too by default — their
        cached values embed the invalidated stage's output, so keeping
        them would serve stale artifacts.  In-memory memoized values
        for the affected stages are dropped as well.  Returns how many
        cache files were removed.
        """
        affected = [name]
        if dependents:
            affected.extend(self.dependents(name))
        removed = 0
        for stage_name in affected:
            self._values.pop(stage_name, None)
            if self.cache is not None and self.stage(stage_name).persist:
                removed += self.cache.evict_stage(stage_name)
        return removed

    # -- introspection -------------------------------------------------
    def explain(self, name: str) -> Dict[str, Any]:
        """Everything ``graph explain <stage>`` shows, as plain data."""
        stage = self.stage(name)
        cached = None
        if stage.persist and self.cache is not None:
            cached = self.cache.contains(name, self.cache_key(name))
        return {
            "stage": name,
            "doc": stage.doc,
            "deps": list(stage.deps),
            "closure": [n for n in self.closure([name]) if n != name],
            "dependents": list(self.dependents(name)),
            "seed_offset": stage.seed_offset,
            "derived_seed": self.derived_seed(name),
            "policy": "persisted" if stage.persist else "transient",
            "cache_key": self.cache_key(name),
            "cache_entry": cached,
            "materialized": name in self._values,
        }

    def describe(self) -> List[Dict[str, Any]]:
        """One :meth:`explain`-style row per stage, in topological order."""
        return [self.explain(name) for name in self.order()]

    def validate(self) -> List[str]:
        """Structural problems (always empty for a constructed graph)."""
        return validate_stages(tuple(self._stages.values()))
