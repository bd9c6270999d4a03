"""Scenarios: a map family, a seed, and everything wired together.

One object exposes (lazily, with caching) every artifact the paper's
analyses need: the ground-truth world, the published maps and records,
the §2 constructed map, the router-level topology, a traceroute
campaign, its conduit overlay, and the §4 risk matrix.  All components
derive deterministically from the scenario seed.

    >>> from repro import us2015
    >>> scenario = us2015()
    >>> scenario.constructed_map.stats()
    MapStats(...)

Since PR 4 the dataflow itself is declarative: a table of
:class:`repro.engine.StageDef` nodes — each naming its dependencies,
derived-seed offset, and cache policy — and a
:class:`repro.engine.StageGraph` owns all execution policy
(memoization, artifact-cache fetch/store with degraded-store recovery,
tracer spans).  ``Scenario`` is a thin facade over that graph: the
public properties below are unchanged, and ``scenario.graph`` exposes
the engine for inspection (``python -m repro graph show``) and
targeted cache eviction (``graph invalidate``).

Every **map family** (:mod:`repro.families`) runs the same stage table:
``ScenarioConfig.family`` selects which map universe the stages build —
``"us2015"`` (the paper's US long-haul map, the default) or any other
registered family (``"global2023"``, the submarine-cable extension).
:func:`us2015` remains the canonical spelling of the default scenario;
:func:`load_scenario` is the family-generic equivalent.

Configuration lives in one frozen :class:`ScenarioConfig` value
(``Scenario(config=...)`` / ``us2015(config=...)``); the individual
``seed``/``campaign_traces``/``workers``/``cache`` keyword arguments
remain supported as a legacy spelling of the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from repro.engine import StageGraph
from repro.families import (
    DEFAULT_FAMILY,
    MapFamily,
    build_stage_table,
    get_family,
)
from repro.fibermap.elements import FiberMap
from repro.fibermap.pipeline import ConstructionReport
from repro.fibermap.publish import ProviderMap
from repro.fibermap.records import RecordsCorpus
from repro.fibermap.synthesis import GroundTruth
from repro.perf.cache import (
    CacheLike,
    describe_cache_setting,
    normalize_cache_setting,
    resolve_cache,
)
from repro.risk.matrix import RiskMatrix
from repro.traceroute.columns import TraceColumns
from repro.traceroute.geolocate import GeolocationDatabase
from repro.traceroute.rngv2 import (
    SUPPORTED_RNG_CONTRACTS,
    default_rng_contract,
)
from repro.traceroute.overlay import TrafficOverlay
from repro.traceroute.probe import ProbeEngine
from repro.traceroute.topology import InternetTopology
from repro.transport.network import TransportationNetwork

#: Default campaign size — the single documented default, shared by the
#: library and the CLI.  The paper used 4.9M traceroutes over three
#: months; 20k keeps the same top-conduit and top-ISP orderings at
#: interactive runtimes (scale up via ``ScenarioConfig(campaign_traces=...)``).
DEFAULT_CAMPAIGN_TRACES = 20000


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable configuration of one scenario.

    Consolidates the knobs previously threaded as separate keyword
    arguments.  *cache* is canonicalized on construction (see
    :func:`repro.perf.cache.normalize_cache_setting`) so ``Path``,
    ``str``, and ``True`` spellings of the same cache root compare (and
    hash) equal — and therefore share one memoization slot.  *family*
    names a registered map family (validated on construction; see
    :mod:`repro.families`).
    """

    seed: int = 2015
    campaign_traces: int = DEFAULT_CAMPAIGN_TRACES
    workers: int = 1
    cache: CacheLike = field(default=None)
    family: str = DEFAULT_FAMILY
    rng_contract: int = field(default_factory=default_rng_contract)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cache", normalize_cache_setting(self.cache)
        )
        get_family(self.family)  # fail fast on unknown families
        if self.rng_contract not in SUPPORTED_RNG_CONTRACTS:
            raise ValueError(
                f"rng_contract must be one of {SUPPORTED_RNG_CONTRACTS}, "
                f"got {self.rng_contract!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (embedded in run manifests and BENCH records)."""
        return {
            "seed": self.seed,
            "campaign_traces": self.campaign_traces,
            "workers": self.workers,
            "cache": describe_cache_setting(self.cache),
            "family": self.family,
            "rng_contract": self.rng_contract,
        }


def build_stage_graph(
    config: ScenarioConfig, cache: Any = None
) -> StageGraph:
    """A fresh :class:`StageGraph` wired for *config*'s family.

    The ``family`` graph parameter reaches the family-generic stage
    builders and keys every persisted stage; ``rng_contract`` reaches
    the campaign/geolocation builders and keys the draw-dependent
    stages (campaign, overlay), so no two families' or contracts'
    artifacts can collide.
    """
    get_family(config.family).ensure_ready()
    return StageGraph(
        build_stage_table(),
        base_seed=config.seed,
        params={
            "seed": config.seed,
            "traces": config.campaign_traces,
            "workers": config.workers,
            "family": config.family,
            "rng_contract": config.rng_contract,
        },
        cache=cache,
        span_prefix="scenario",
    )


class Scenario:
    """A fully wired reproduction scenario.

    A thin facade over a :class:`repro.engine.StageGraph` built from
    the configured family's stage table: every property materializes
    its backing stage on first access (memoized by the graph), and all
    randomness derives from ``config.seed`` via each stage's declared
    offset, so two scenarios with the same configuration are identical.

    Pass a :class:`ScenarioConfig` (preferred), or the legacy
    ``seed``/``campaign_traces``/``workers``/``cache`` keywords — both
    spellings produce the same scenario.  ``workers`` shards the
    traceroute campaign across processes (0 auto-detects cores) without
    changing its records.  ``cache`` selects the persistent artifact
    cache: ``None`` defers to the ``REPRO_CACHE``/``REPRO_CACHE_DIR``
    environment (off by default), ``True``/``False`` force it, a path
    selects a specific cache root.  Persisted stages (ground truth,
    constructed map, campaign, overlay) are keyed by family, seed, the
    campaign size and RNG contract where they depend on the draws, and
    a hash of the package source, so a warm cache can never serve stale
    artifacts.
    """

    def __init__(
        self,
        seed: int = 2015,
        campaign_traces: int = DEFAULT_CAMPAIGN_TRACES,
        workers: int = 1,
        cache: CacheLike = None,
        config: Optional[ScenarioConfig] = None,
        family: str = DEFAULT_FAMILY,
    ):
        if config is None:
            config = ScenarioConfig(
                seed=seed,
                campaign_traces=campaign_traces,
                workers=workers,
                cache=cache,
                family=family,
            )
        self.config = config
        self.cache = resolve_cache(config.cache)
        self.graph = build_stage_graph(config, self.cache)

    # -- legacy attribute views of the config --------------------------
    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def campaign_traces(self) -> int:
        return self.config.campaign_traces

    @property
    def workers(self) -> int:
        return self.config.workers

    @property
    def family(self) -> MapFamily:
        """The scenario's map-family declaration."""
        return get_family(self.config.family)

    # ------------------------------------------------------------------
    def peek(self, stage: str) -> Any:
        """A stage's value if already materialized, else ``None``
        (never forces a build)."""
        return self.graph.peek(stage)

    def cache_stats(self) -> Dict[str, Any]:
        """Hit/miss accounting for benchmarks and diagnostics."""
        if self.cache is None:
            return {"enabled": False, "hits": 0, "misses": 0, "root": None}
        return {
            "enabled": True,
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "root": str(self.cache.root),
        }

    # -- the artifacts -------------------------------------------------
    @property
    def ground_truth(self) -> GroundTruth:
        return self.graph.materialize("ground_truth")

    @property
    def network(self) -> TransportationNetwork:
        return self.ground_truth.network

    @property
    def provider_maps(self) -> Dict[str, ProviderMap]:
        return self.graph.materialize("provider_maps")

    @property
    def records(self) -> RecordsCorpus:
        return self.graph.materialize("records")

    @property
    def constructed_map(self) -> FiberMap:
        """The §2 four-step constructed map (what all analyses use)."""
        return self.graph.materialize("constructed_map")[0]

    @property
    def construction_report(self) -> ConstructionReport:
        return self.graph.materialize("constructed_map")[1]

    @property
    def topology(self) -> InternetTopology:
        return self.graph.materialize("topology")

    @property
    def probe_engine(self) -> ProbeEngine:
        return self.graph.materialize("probe_engine")

    @property
    def campaign(self) -> TraceColumns:
        """The campaign as columns (still a sequence of records)."""
        return self.graph.materialize("campaign")

    @property
    def geolocation(self) -> GeolocationDatabase:
        return self.graph.materialize("geolocation")

    @property
    def overlay(self) -> TrafficOverlay:
        """The §4.3 traffic overlay, populated with the full campaign."""
        return self.graph.materialize("overlay")

    @property
    def risk_matrix(self) -> RiskMatrix:
        """The §4.1 risk matrix over the scenario's providers."""
        return self.graph.materialize("risk_matrix")

    @property
    def isps(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.ground_truth.profiles)

    # -- the typed query API -------------------------------------------
    def query(self, request: Any) -> Any:
        """Answer one typed what-if query against this scenario.

        *request* is either a :mod:`repro.service.schema` request
        dataclass (``CutRequest``, ``LatencyRequest``, ...) or the
        equivalent JSON mapping (``{"v": 1, "kind": "cut", ...}``),
        which is parsed and validated first.  Dispatches through the
        same handlers as the HTTP service and the CLI what-if verbs, so
        all three frontends give identical answers.  Raises
        :class:`repro.service.schema.QueryError` on validation or
        lookup failures.
        """
        from collections.abc import Mapping

        from repro.service.handlers import handle_query
        from repro.service.schema import parse_request

        if isinstance(request, Mapping):
            request = parse_request(request)
        return handle_query(self, request)


@lru_cache(maxsize=8)
def _scenario_for_config(config: ScenarioConfig) -> Scenario:
    return Scenario(config=config)


def load_scenario(
    family: str = DEFAULT_FAMILY,
    seed: Optional[int] = None,
    campaign_traces: int = DEFAULT_CAMPAIGN_TRACES,
    workers: int = 1,
    cache: CacheLike = None,
    config: Optional[ScenarioConfig] = None,
) -> Scenario:
    """The memoized scenario of any registered family.

    ``seed`` defaults to the family's declared ``default_seed``.
    Memoization is keyed on the normalized :class:`ScenarioConfig`, so
    equivalent spellings (legacy keywords vs an explicit config,
    ``Path`` vs ``str`` vs ``True`` cache settings) share one instance,
    and scenarios of different families coexist in the cache.
    """
    if config is None:
        declared = get_family(family)
        config = ScenarioConfig(
            seed=declared.default_seed if seed is None else seed,
            campaign_traces=campaign_traces,
            workers=workers,
            cache=cache,
            family=family,
        )
    return _scenario_for_config(config)


def us2015(
    seed: int = 2015,
    campaign_traces: int = DEFAULT_CAMPAIGN_TRACES,
    workers: int = 1,
    cache: CacheLike = None,
    config: Optional[ScenarioConfig] = None,
) -> Scenario:
    """The canonical US scenario, cached so experiments share one instance.

    A thin alias of :func:`load_scenario` pinned to the default family
    (rejecting configs of any other family, so a mislabeled call cannot
    silently serve the wrong map).
    """
    if config is None:
        config = ScenarioConfig(
            seed=seed,
            campaign_traces=campaign_traces,
            workers=workers,
            cache=cache,
            family=DEFAULT_FAMILY,
        )
    elif config.family != DEFAULT_FAMILY:
        raise ValueError(
            f"us2015() serves only the {DEFAULT_FAMILY!r} family "
            f"(got {config.family!r}); use load_scenario()"
        )
    return _scenario_for_config(config)


#: Exposed for tests that need to drop the memoized scenarios.  Both
#: entry points share one memo table, so either clear empties both.
load_scenario.cache_clear = _scenario_for_config.cache_clear  # type: ignore[attr-defined]
us2015.cache_clear = _scenario_for_config.cache_clear  # type: ignore[attr-defined]
