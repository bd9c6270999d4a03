"""Propagation-delay analysis (§5.3, Figure 12).

For city pairs connected by the conduit system, compare four one-way
delays:

* **best existing path** — shortest conduit path actually deployed;
* **average of existing paths** — mean over the distinct physical paths
  between the pair (deployed routes often take long detours);
* **best ROW path** — shortest path over existing roads and railways,
  i.e. what a new conduit along existing rights-of-way could achieve;
* **LOS** — the line-of-sight lower bound, "in most cases practically
  infeasible".

The paper's headline findings: average delays substantially exceed the
best link; about 65% of best paths are already the best ROW paths; and
LOS-vs-ROW differences are under ~100 us for half the pairs but exceed
500 us for a quarter of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.perf.substrate import GraphView, row_view, substrate_for
from repro.transport.network import EdgeKey, TransportationNetwork, canonical_edge

#: Default LOS distance band for studied pairs (km).  Maps to roughly
#: 0.75-4.5 ms, the x-range of Figure 12.
DEFAULT_MIN_KM = 150.0
DEFAULT_MAX_KM = 900.0
#: Number of alternative physical paths considered for the average.
DEFAULT_MAX_PATHS = 4
#: Alternative paths longer than slack * best are not real alternatives.
DEFAULT_SLACK = 2.5


@dataclass(frozen=True)
class PairDelays:
    """One city pair's four delays, milliseconds one-way."""

    pair: EdgeKey
    best_ms: float
    avg_ms: float
    row_ms: float
    los_ms: float

    @property
    def best_is_row_best(self) -> bool:
        """True when the deployed best path matches the best ROW (within 1%)."""
        return self.best_ms <= self.row_ms * 1.01


@dataclass(frozen=True)
class LatencyStudy:
    """The full §5.3 dataset."""

    pairs: Tuple[PairDelays, ...]

    def cdf(self, attribute: str) -> List[Tuple[float, float]]:
        """CDF points (delay_ms, fraction) for one of the four series."""
        values = sorted(getattr(p, attribute) for p in self.pairs)
        n = len(values)
        return [(v, (i + 1) / n) for i, v in enumerate(values)]

    @property
    def fraction_best_is_row_best(self) -> float:
        """The paper's "about 65% of the best paths are also the best ROW
        paths" statistic."""
        if not self.pairs:
            return 0.0
        return sum(1 for p in self.pairs if p.best_is_row_best) / len(self.pairs)

    def row_los_gap_percentiles(
        self, q: Sequence[float] = (50.0, 75.0)
    ) -> List[float]:
        """Percentiles of (best ROW - LOS) delay gap, milliseconds."""
        import numpy as np

        gaps = [p.row_ms - p.los_ms for p in self.pairs]
        if not gaps:
            return [0.0 for _ in q]
        return [float(v) for v in np.percentile(gaps, list(q))]


def _alternative_paths_mean_km(
    view: GraphView,
    a: str,
    b: str,
    best_km: float,
    max_paths: int,
    slack: float,
) -> float:
    """Mean length of distinct physical paths between two cities.

    Takes the *max_paths* shortest simple paths (one compiled Yen call)
    up to the first one past the slack bound; always includes the best
    path.
    """
    lengths: List[float] = []
    for _path, km in view.k_shortest_paths(a, b, "length_km", max(max_paths, 1)):
        if km > best_km * slack and lengths:
            break
        lengths.append(km)
    return sum(lengths) / len(lengths)


def _pair_delays(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    ordered: Sequence[EdgeKey],
    los_of: Dict[EdgeKey, float],
    max_paths: int,
    slack: float,
    row_kinds: Tuple[str, ...],
) -> List[PairDelays]:
    """The four delays of every studied pair: best/ROW distances come
    from two batched Dijkstras (one per weight view, all sources at once)
    and the alternative-path means from one compiled Yen call per pair."""
    conduit_view = substrate_for(fiber_map).conduit_view()
    row_graph = row_view(network, row_kinds)
    import numpy as np

    sources = [a for a, _ in ordered]
    c_dist, _c_pred, c_row = conduit_view.dijkstra(sources, "length_km")
    r_dist, _r_pred, r_row = row_graph.dijkstra(sources, "length_km")
    results: List[PairDelays] = []
    for a, b in ordered:
        if not conduit_view.present(a) or not conduit_view.present(b):
            continue
        best_km = float(c_dist[c_row[a], conduit_view.index[b]])
        if not np.isfinite(best_km):
            continue
        avg_km = _alternative_paths_mean_km(
            conduit_view, a, b, best_km, max_paths, slack
        )
        if not row_graph.present(a) or not row_graph.present(b):
            continue
        b_row_idx = row_graph.index.get(b)
        row_km = (
            float(r_dist[r_row[a], b_row_idx])
            if b_row_idx is not None
            else float("inf")
        )
        if not np.isfinite(row_km):
            continue
        results.append(
            PairDelays(
                pair=(a, b),
                best_ms=fiber_delay_ms(best_km),
                avg_ms=fiber_delay_ms(avg_km),
                row_ms=fiber_delay_ms(row_km),
                los_ms=fiber_delay_ms(los_of[(a, b)]),
            )
        )
    return results


def latency_study(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    min_km: float = DEFAULT_MIN_KM,
    max_km: float = DEFAULT_MAX_KM,
    max_pairs: Optional[int] = 400,
    max_paths: int = DEFAULT_MAX_PATHS,
    slack: float = DEFAULT_SLACK,
    seed: int = 97,
    row_kinds: Tuple[str, ...] = ("road", "rail"),
) -> LatencyStudy:
    """Build the Figure 12 dataset.

    Studied pairs are the distinct provider-link endpoint pairs whose LOS
    distance falls in [min_km, max_km] — city pairs the industry actually
    connects.  ``max_pairs`` caps the sample (deterministically) to keep
    the k-shortest-path enumeration tractable.  Each pair's LOS distance
    is computed once, in the band filter, and reused for the result.
    ``row_kinds`` names the right-of-way kinds a new conduit could follow
    (the map family's deployable media; the paper's roads and railways by
    default).
    """
    ordered, los_of = _study_pairs(
        fiber_map, network, min_km, max_km, max_pairs, seed
    )
    return LatencyStudy(
        pairs=tuple(
            _pair_delays(
                fiber_map, network, ordered, los_of, max_paths, slack,
                row_kinds,
            )
        )
    )


def _study_pairs(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    min_km: float,
    max_km: float,
    max_pairs: Optional[int],
    seed: int,
) -> Tuple[List[EdgeKey], Dict[EdgeKey, float]]:
    """The sorted studied pairs and the LOS distance of every link pair."""
    los_of: Dict[EdgeKey, float] = {}
    pairs: Set[EdgeKey] = set()
    for link in fiber_map.links.values():
        a, b = link.endpoints
        if a == b:
            continue
        edge = canonical_edge(a, b)
        los = los_of.get(edge)
        if los is None:
            los = network.los_km(*edge)
            los_of[edge] = los
        if min_km <= los <= max_km:
            pairs.add(edge)
    ordered = sorted(pairs)
    if max_pairs is not None and len(ordered) > max_pairs:
        rng = random.Random(seed)
        ordered = sorted(rng.sample(ordered, max_pairs))
    return ordered, los_of
