"""Logical diversity vs physical reality (§6.1's punchline).

"The fact that there is widespread and sometimes significant conduit
sharing complicates the task of identifying and configuring backup
paths since these critical details are often opaque to higher layers."
An operator buying transit from two *different providers* believes the
paths are diverse; the conduit map says otherwise.  For a city pair and
a pair of providers, this module computes each provider's path and the
trenches they secretly share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.fibermap.elements import FiberMap
from repro.perf.substrate import substrate_for
from repro.routing.srlg import shared_srlgs
from repro.transport.network import EdgeKey


@dataclass(frozen=True)
class OpacityCase:
    """One (city pair, provider pair) logical-diversity check."""

    endpoints: EdgeKey
    isp_a: str
    isp_b: str
    path_a: Tuple[str, ...]
    path_b: Tuple[str, ...]
    shared_groups: FrozenSet[EdgeKey]
    #: Trenches where both providers ride the *same physical conduit*.
    shared_conduits: FrozenSet[str]

    @property
    def logically_diverse(self) -> bool:
        """What the layer-3 view believes: different providers = diverse."""
        return self.isp_a != self.isp_b

    @property
    def physically_diverse(self) -> bool:
        """What the conduit map knows."""
        return not self.shared_groups

    @property
    def deceived(self) -> bool:
        """Logical diversity that physical reality contradicts."""
        return self.logically_diverse and not self.physically_diverse


def _isp_path(
    fiber_map: FiberMap, isp: str, a_key: str, b_key: str
) -> Optional[Tuple[str, ...]]:
    """The provider's shortest conduit path, solved on the substrate's
    cached footprint view (shortest parallel conduit per city pair)."""
    cs = substrate_for(fiber_map)
    view = cs.footprint_view(isp)
    if not view.present(a_key) or not view.present(b_key):
        return None
    path = view.shortest_path(a_key, b_key, "length_km")
    if path is None:
        return None
    return cs.path_conduits(view, path)


def check_pair(
    fiber_map: FiberMap,
    a_key: str,
    b_key: str,
    isp_a: str,
    isp_b: str,
) -> Optional[OpacityCase]:
    """Compare two providers' paths between one city pair.

    Returns ``None`` when either provider cannot connect the pair.
    """
    path_a = _isp_path(fiber_map, isp_a, a_key, b_key)
    path_b = _isp_path(fiber_map, isp_b, a_key, b_key)
    if path_a is None or path_b is None:
        return None
    return OpacityCase(
        endpoints=(a_key, b_key),
        isp_a=isp_a,
        isp_b=isp_b,
        path_a=path_a,
        path_b=path_b,
        shared_groups=shared_srlgs(fiber_map, path_a, path_b),
        shared_conduits=frozenset(path_a) & frozenset(path_b),
    )


@dataclass(frozen=True)
class OpacityStudy:
    """Aggregate logical-vs-physical diversity over many cases."""

    cases: Tuple[OpacityCase, ...]

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def deceived_count(self) -> int:
        return sum(1 for c in self.cases if c.deceived)

    @property
    def deceived_fraction(self) -> float:
        return self.deceived_count / self.total if self.total else 0.0

    @property
    def same_conduit_count(self) -> int:
        """Cases where the two providers share an actual conduit."""
        return sum(1 for c in self.cases if c.shared_conduits)

    def mean_shared_groups(self) -> float:
        if not self.cases:
            return 0.0
        return sum(len(c.shared_groups) for c in self.cases) / self.total


def opacity_study(
    fiber_map: FiberMap,
    isps: Sequence[str],
    max_pairs: int = 40,
) -> OpacityStudy:
    """Check every provider pair over the busiest shared city pairs.

    City pairs are the endpoints both providers can connect, sampled
    deterministically from their common link endpoints.
    """
    cases: List[OpacityCase] = []
    for isp_a, isp_b in combinations(sorted(isps), 2):
        pairs_a = {l.endpoints for l in fiber_map.links_of(isp_a)}
        pairs_b = {l.endpoints for l in fiber_map.links_of(isp_b)}
        common = sorted(pairs_a & pairs_b)[:max_pairs]
        for a_key, b_key in common:
            case = check_pair(fiber_map, a_key, b_key, isp_a, isp_b)
            if case is not None:
                cases.append(case)
    return OpacityStudy(cases=tuple(cases))
