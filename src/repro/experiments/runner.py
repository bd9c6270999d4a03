"""Experiment registry: every table and figure, runnable by id.

Running an experiment yields a typed :class:`ExperimentResult` — the
raw ``data`` object, the formatted ``text`` artifact, and a
``to_json()`` machine-readable view — replacing the older two-callable
``(run, format_result)`` contract at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.engine import StageGraphError
from repro.obs.serialize import to_jsonable
from repro.obs.tracer import get_tracer

from repro.experiments import (  # noqa: F401 (re-export convenience)
    ext_annotated,
    ext_capacity,
    ext_exchange,
    ext_growth,
    ext_nsfnet,
    ext_opacity,
    ext_partition,
    ext_policy,
    ext_protection,
    ext_resilience,
    fig1,
    fig2_3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table1,
    table2_3,
    table4,
    table5,
)
from repro.families.stages import STAGE_OF_ATTRIBUTE, build_stage_table
from repro.scenario import Scenario, us2015

_STAGE_NAMES: FrozenSet[str] = frozenset(
    s.name for s in build_stage_table()
)


class UndeclaredStageAccessError(StageGraphError):
    """An experiment touched a scenario stage it did not declare."""


class UnsupportedExperimentError(ValueError):
    """An experiment was requested on a family that excludes it.

    Carries the experiment id, the family name, and the family's
    supported ids, so frontends can render a structured error.
    """

    def __init__(self, experiment_id: str, family: str, supported):
        self.experiment_id = experiment_id
        self.family = family
        self.supported = tuple(supported)
        super().__init__(
            f"experiment {experiment_id!r} is not supported by map "
            f"family {family!r}; supported: {', '.join(self.supported)}"
        )


@dataclass(frozen=True)
class Experiment:
    """One registered experiment (a paper table/figure or an extension)."""

    experiment_id: str
    title: str
    run: Callable[[Scenario], Any]
    format_result: Callable[[Any], str]
    #: False for the paper's own artifacts, True for extension analyses.
    extension: bool = False
    #: The scenario stages this experiment reads.  The runner
    #: materializes exactly this subgraph before running, and the
    #: scenario view handed to ``run`` refuses access to any other
    #: stage — so the declaration can never drift from the code.
    requires: Tuple[str, ...] = ()


class RestrictedScenario:
    """A scenario view limited to an experiment's declared stages.

    Forwards every attribute to the underlying :class:`Scenario`,
    except the stage-backed ones (``scenario.campaign``,
    ``scenario.risk_matrix``, ...): those raise
    :class:`UndeclaredStageAccessError` unless the backing stage is in
    the experiment's ``requires``.  Config views (``seed``,
    ``campaign_traces``, ...) pass through untouched.
    """

    def __init__(
        self, scenario: Scenario, label: str, allowed: FrozenSet[str]
    ):
        self._scenario = scenario
        self._label = label
        self._allowed = allowed

    def __getattr__(self, name: str) -> Any:
        stage = STAGE_OF_ATTRIBUTE.get(name)
        if stage is not None and stage not in self._allowed:
            raise UndeclaredStageAccessError(
                f"{self._label} read scenario.{name} (stage {stage!r}) "
                f"without declaring it; declared requires: "
                f"{sorted(self._allowed) or '()'}"
            )
        return getattr(self._scenario, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RestrictedScenario({self._label}, "
            f"allowed={sorted(self._allowed)})"
        )


def _register() -> Dict[str, Experiment]:
    modules = {
        "table1": (table1, "Table 1: step-1 provider map sizes"),
        "fig1": (fig1, "Figure 1: the constructed long-haul map"),
        "fig2_3": (fig2_3, "Figures 2-3: road and rail layers"),
        "fig4": (fig4, "Figure 4: transport co-location histogram"),
        "fig5": (fig5, "Figure 5: pipeline rights-of-way"),
        "fig6": (fig6, "Figure 6: conduits shared by >= k ISPs"),
        "fig7": (fig7, "Figure 7: ISP ranking by average sharing"),
        "fig8": (fig8, "Figure 8: Hamming risk-profile similarity"),
        "table2_3": (table2_3, "Tables 2-3: most-probed conduits"),
        "fig9": (fig9, "Figure 9: sharing CDF with traffic overlay"),
        "table4": (table4, "Table 4: ISPs by conduits carrying traffic"),
        "fig10": (fig10, "Figure 10: path inflation / shared-risk reduction"),
        "table5": (table5, "Table 5: peering suggestions"),
        "fig11": (fig11, "Figure 11: improvement vs k added conduits"),
        "fig12": (fig12, "Figure 12: propagation delay CDFs"),
    }
    extensions = {
        "ext_resilience": (
            ext_resilience, "Extension: targeted attack vs random cuts"),
        "ext_partition": (
            ext_partition, "Extension: cuts-to-partition + metro coverage"),
        "ext_policy": (
            ext_policy, "Extension: Title II open-access trade-off"),
        "ext_exchange": (
            ext_exchange, "Extension: the conduit exchange model"),
        "ext_protection": (
            ext_protection, "Extension: SRLG-diverse backup availability"),
        "ext_annotated": (
            ext_annotated, "Extension: the annotated map"),
        "ext_nsfnet": (
            ext_nsfnet, "Extension: NSFNET-1995 invariance comparison"),
        "ext_opacity": (
            ext_opacity, "Extension: logical vs physical path diversity"),
        "ext_capacity": (
            ext_capacity, "Extension: capacity concentration in shared conduits"),
        "ext_growth": (
            ext_growth, "Extension: sharing trajectory under growth"),
    }
    registry = {}
    for extension, table in ((False, modules), (True, extensions)):
        for experiment_id, (module, title) in table.items():
            requires = tuple(module.requires)
            unknown = sorted(set(requires) - _STAGE_NAMES)
            if unknown:
                raise StageGraphError(
                    f"experiment {experiment_id!r} requires unknown "
                    f"stage(s): {unknown}"
                )
            registry[experiment_id] = Experiment(
                experiment_id=experiment_id,
                title=title,
                run=module.run,
                format_result=module.format_result,
                extension=extension,
                requires=requires,
            )
    return registry


#: All experiments keyed by id.
EXPERIMENTS: Dict[str, Experiment] = _register()


def _check_family_declarations() -> None:
    """Fail at import when a registered family declares experiment ids
    that do not exist — the declaration can never drift silently."""
    from repro.families import family_names, get_family

    for name in family_names():
        family = get_family(name)
        if family.experiments is None:
            continue
        unknown = sorted(family.experiments - set(EXPERIMENTS))
        if unknown:
            raise StageGraphError(
                f"map family {name!r} declares unknown experiment(s): "
                f"{unknown}"
            )


_check_family_declarations()


@dataclass(frozen=True)
class ExperimentResult:
    """The typed outcome of one experiment run.

    ``data`` is the experiment's native result object; ``text`` is the
    formatted human-readable artifact; :meth:`to_json` renders a fully
    JSON-serializable document (used by the CLI's ``--json`` flag).
    """

    experiment_id: str
    title: str
    data: Any
    text: str
    extension: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "extension": self.extension,
            "data": to_jsonable(self.data),
            "text": self.text,
        }


def run_experiment(
    experiment_id: str, scenario: Optional[Scenario] = None
) -> ExperimentResult:
    """Run one experiment; returns an :class:`ExperimentResult`.

    The experiment's declared ``requires`` stages are materialized
    first (the minimal subgraph — nothing else builds), and the
    experiment runs against a :class:`RestrictedScenario` that raises
    on any undeclared stage access.  Each run is one
    ``experiment.<id>`` tracing span, so a traced ``run all`` manifest
    attributes wall time per experiment.
    """
    experiment = EXPERIMENTS[experiment_id]
    scenario = scenario if scenario is not None else us2015()
    family = scenario.family
    if not family.supports(experiment_id):
        raise UnsupportedExperimentError(
            experiment_id,
            family.name,
            family.supported_experiments(EXPERIMENTS),
        )
    tracer = get_tracer()
    with tracer.span(f"experiment.{experiment_id}"):
        scenario.graph.materialize_many(experiment.requires)
        view = RestrictedScenario(
            scenario,
            f"experiment {experiment_id!r}",
            frozenset(experiment.requires),
        )
        data = experiment.run(view)
        text = experiment.format_result(data)
        tracer.annotate(extension=experiment.extension)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=experiment.title,
        data=data,
        text=text,
        extension=experiment.extension,
    )


def run_all(
    scenario: Optional[Scenario] = None,
    ids: Optional[Iterable[str]] = None,
) -> Iterator[ExperimentResult]:
    """Run experiments in id order, streaming each result.

    Runs every experiment the scenario's family supports by default, or
    just ``ids`` when given (unknown ids raise ``KeyError`` before
    anything runs; ids outside the family's declared subset raise
    :class:`UnsupportedExperimentError`).
    Yields :class:`ExperimentResult` as each experiment completes, so
    callers can render incrementally instead of waiting for the full
    sweep.  (Previously returned a fully materialized list of
    ``(id, text)`` pairs; iterate and use the named fields instead.)
    """
    scenario = scenario if scenario is not None else us2015()
    family = scenario.family
    if ids is None:
        selected = family.supported_experiments(EXPERIMENTS)
    else:
        selected = sorted(ids)
    for experiment_id in selected:
        if experiment_id not in EXPERIMENTS:
            raise KeyError(experiment_id)
        if not family.supports(experiment_id):
            raise UnsupportedExperimentError(
                experiment_id,
                family.name,
                family.supported_experiments(EXPERIMENTS),
            )
    for experiment_id in selected:
        yield run_experiment(experiment_id, scenario)
