"""Map families: pluggable map universes behind one stage graph.

A *map family* bundles everything that distinguishes one physical-map
universe from another — which ground truth gets synthesized (dataset
loaders + map-synthesis stages), what geographic model the corridors
follow (corridor right-of-way meander vs great-circle cable routes),
what its risk groups mean (a shared conduit along a highway vs a shared
trench/chokepoint like Suez or Malacca), and which of the registered
experiments are meaningful for it.  The stage-graph engine, the routing
substrate, the service, and the sweep orchestrator consume families
through this registry and never special-case any one of them: that a
new family needs *only* a registration here is the proof the engine
generalizes (ROADMAP, "intercontinental + submarine extension").

The default family is :data:`DEFAULT_FAMILY` (``"us2015"``) — the
paper's US long-haul map.  Every family runs the one stage table of
:func:`repro.families.stages.build_stage_table`; the ``family`` graph
parameter selects what its ``ground_truth`` stage synthesizes and keys
every persisted artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

#: The family every config defaults to: the paper's US long-haul map.
DEFAULT_FAMILY = "us2015"


class UnknownFamilyError(ValueError):
    """A family name that is not in the registry.

    Carries the offending name (``.family``) and the registered names
    (``.known``) so CLI/service frontends can render a structured error.
    """

    def __init__(self, family: str, known: Tuple[str, ...]):
        self.family = family
        self.known = tuple(known)
        super().__init__(
            f"unknown map family {family!r}; known families: "
            f"{', '.join(self.known) or '(none registered)'}"
        )


@dataclass(frozen=True)
class MapFamily:
    """Declaration of one map universe.

    ``synthesize`` is the family's ground-truth factory: it takes the
    stage-derived seed and returns a
    :class:`repro.fibermap.synthesis.GroundTruth`; every downstream
    stage (map construction, topology, campaign, overlay, risk matrix)
    and the routing substrate compiled from the constructed map are
    family-generic and consume that object unchanged.

    ``prepare`` (optional) runs once before any stage of the family
    builds *or loads from cache* — it is where a family registers its
    extension datasets (e.g. landing-station cities), so artifacts
    unpickled in a fresh process still resolve their city keys.

    ``row_kinds`` are the right-of-way kind groups the latency study
    and the transport-layer views route over (the US family's
    deployed-route view is ``("road", "rail")``; a submarine family
    routes over ``("sea", "road")``).

    ``experiments`` limits the family to a declared subset of the
    experiment registry (``None`` means every experiment applies —
    reserved for the default family whose artifacts the paper defines).

    ``client_isps``/``dest_isps`` are the traceroute campaign's provider
    mixes — ``(name, weight)`` pairs over this family's carriers.
    ``None`` defers to the campaign module's defaults (the paper's US
    access/content mix).
    """

    name: str
    title: str
    description: str
    #: "corridor-right-of-way" (meandered terrestrial corridors) or
    #: "submarine-great-circle" (cable routes between landing stations).
    geographic_model: str
    #: What a shared risk group physically is in this family.
    risk_semantics: str
    synthesize: Callable[[int], Any]
    row_kinds: Tuple[Tuple[str, ...], ...] = (("road", "rail"),)
    experiments: Optional[FrozenSet[str]] = None
    default_seed: int = 2015
    prepare: Optional[Callable[[], None]] = None
    client_isps: Optional[Tuple[Tuple[str, float], ...]] = None
    dest_isps: Optional[Tuple[Tuple[str, float], ...]] = None

    def supports(self, experiment_id: str) -> bool:
        """Whether *experiment_id* is meaningful for this family."""
        return self.experiments is None or experiment_id in self.experiments

    def supported_experiments(self, all_ids: Any) -> List[str]:
        """The subset of *all_ids* this family supports, sorted."""
        return sorted(i for i in all_ids if self.supports(i))

    def ensure_ready(self) -> None:
        """Run the family's dataset preparation hook (idempotent)."""
        if self.prepare is not None:
            self.prepare()

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary (CLI ``families`` listing, service info)."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "geographic_model": self.geographic_model,
            "risk_semantics": self.risk_semantics,
            "row_kinds": [list(group) for group in self.row_kinds],
            "default_seed": self.default_seed,
            "experiments": (
                None if self.experiments is None
                else sorted(self.experiments)
            ),
        }


_REGISTRY: Dict[str, MapFamily] = {}


def register_family(family: MapFamily) -> MapFamily:
    """Add *family* to the registry; returns it for assignment."""
    if family.name in _REGISTRY:
        raise ValueError(f"map family {family.name!r} already registered")
    _REGISTRY[family.name] = family
    return family


def get_family(name: str) -> MapFamily:
    """Look up a registered family; raises :class:`UnknownFamilyError`."""
    family = _REGISTRY.get(name)
    if family is None:
        raise UnknownFamilyError(name, tuple(sorted(_REGISTRY)))
    return family


def family_names() -> List[str]:
    """All registered family names, sorted."""
    return sorted(_REGISTRY)
