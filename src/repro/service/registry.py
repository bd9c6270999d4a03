"""Named scenarios served side by side, each warm and locked.

The server can hold many :class:`~repro.scenario.Scenario` instances —
different seeds, campaign sizes, cache settings — under client-chosen
names.  Each entry carries:

* its own re-entrant lock, serializing non-batchable queries per
  scenario (the stage graph is itself single-flight per stage, but
  handlers that compose several stages should not interleave);
* its own :class:`~repro.service.handlers.LatencyBatcher` (group
  commit: a lone latency query is solved at once, concurrent ones
  share a solve), so batches never mix scenarios;
* a warm-up state machine (``cold -> warming -> ready | failed``):
  :meth:`ScenarioRegistry.warm_all_async` materializes each entry's
  warm stages on a background thread, and ``/healthz`` reports 503
  until every entry is ready.  Queries are answered during warm-up —
  they simply pay the remaining build cost themselves.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.substrate import substrate_for
from repro.scenario import Scenario, ScenarioConfig
from repro.service.handlers import LatencyBatcher
from repro.service.schema import QueryError

#: Stages materialized at warm-up: everything the query kinds touch.
#: ``overlay`` transitively pulls the campaign, topology, and
#: geolocation; warm-up then compiles the constructed map's routing
#: substrate, so a ready scenario answers every kind from memory.
DEFAULT_WARM_STAGES: Tuple[str, ...] = (
    "constructed_map",
    "risk_matrix",
    "overlay",
)

#: Warm-up states, in lifecycle order.
COLD, WARMING, READY, FAILED = "cold", "warming", "ready", "failed"


class ScenarioEntry:
    """One named scenario plus its serving apparatus."""

    def __init__(
        self,
        name: str,
        scenario: Scenario,
        warm_stages: Tuple[str, ...] = DEFAULT_WARM_STAGES,
    ):
        self.name = name
        self.scenario = scenario
        self.warm_stages = tuple(
            s for s in warm_stages if s in scenario.graph
        )
        self.lock = threading.RLock()
        self.batcher = LatencyBatcher(scenario)
        self.state = COLD
        self.error: Optional[str] = None
        #: Queries answered for this scenario (all kinds).
        self.queries = 0

    def warm(self) -> None:
        """Materialize the warm stages and compile the routing substrate;
        flips state to ready/failed."""
        self.state = WARMING
        try:
            with self.lock:
                self.scenario.graph.materialize_many(self.warm_stages)
                substrate_for(self.scenario.constructed_map)
        except Exception as error:  # noqa: BLE001 - reported via /healthz
            self.state = FAILED
            self.error = f"{type(error).__name__}: {error}"
        else:
            self.state = READY

    def describe(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "name": self.name,
            "state": self.state,
            "config": self.scenario.config.to_dict(),
            "warm_stages": list(self.warm_stages),
            "queries": self.queries,
            "latency_batches": self.batcher.batches,
            "latency_batched_requests": self.batcher.requests,
        }
        if self.error is not None:
            info["error"] = self.error
        return info


class ScenarioRegistry:
    """The named-scenario table the server dispatches against."""

    def __init__(self):
        self._entries: Dict[str, ScenarioEntry] = {}
        self._threads: List[threading.Thread] = []

    def add(
        self,
        name: str,
        scenario: Optional[Scenario] = None,
        config: Optional[ScenarioConfig] = None,
        warm_stages: Tuple[str, ...] = DEFAULT_WARM_STAGES,
    ) -> ScenarioEntry:
        """Register a scenario under *name* (instance or config)."""
        if name in self._entries:
            raise ValueError(f"scenario {name!r} already registered")
        if scenario is None:
            scenario = Scenario(config=config or ScenarioConfig())
        entry = ScenarioEntry(name, scenario, warm_stages=warm_stages)
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> ScenarioEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise QueryError(
                "unknown_scenario",
                f"unknown scenario {name!r}; known: "
                f"{', '.join(sorted(self._entries))}",
                field="scenario",
                status=404,
            )
        return entry

    def names(self) -> List[str]:
        return sorted(self._entries)

    def entries(self) -> List[ScenarioEntry]:
        return [self._entries[name] for name in self.names()]

    @property
    def ready(self) -> bool:
        return all(e.state == READY for e in self._entries.values())

    def describe(self) -> Dict[str, Any]:
        return {e.name: e.describe() for e in self.entries()}

    def warm_all_async(self) -> List[threading.Thread]:
        """Warm every cold entry on background threads (one each)."""
        threads = []
        for entry in self.entries():
            if entry.state != COLD:
                continue
            thread = threading.Thread(
                target=entry.warm,
                name=f"repro-warm-{entry.name}",
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        self._threads.extend(threads)
        return threads

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until background warm-up threads finish; True if all
        entries ended ready."""
        for thread in self._threads:
            thread.join(timeout)
        return self.ready
