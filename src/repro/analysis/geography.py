"""Geography of fiber deployments (§3, Figures 4 and 5).

Quantifies the correspondence between conduits and transportation
infrastructure with the buffer-overlap measurement: for every conduit,
the fraction of its route co-located with roadways, railways, and the
union of the two (Figure 4), and the identification of conduits that
follow neither — which other rights-of-way, i.e. pipelines, explain
(Figure 5: the Level 3 route outside Laurel, MS; Anaheim-Las Vegas along
a refined-products pipeline; Houston-Atlanta along NGL pipelines).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import List, Tuple

from repro.fibermap.elements import Conduit, FiberMap
from repro.geo.overlap import (
    DEFAULT_BUFFER_KM,
    histogram,
    overlap_profile,
)
from repro.transport.network import TransportationNetwork


@dataclass(frozen=True)
class ConduitColocation:
    """Per-conduit co-location fractions."""

    conduit_id: str
    road: float
    rail: float
    pipeline: float
    road_or_rail: float


@dataclass(frozen=True)
class GeographyReport:
    """The Figure 4 dataset plus summary statistics."""

    colocations: Tuple[ConduitColocation, ...]
    buffer_km: float

    def histogram(self, kind: str, bins: int = 10) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
        """Figure 4 histogram for ``road``, ``rail`` or ``road_or_rail``."""
        values = [getattr(c, kind) for c in self.colocations]
        return histogram(values, bins=bins)

    def mean_fraction(self, kind: str) -> float:
        values = [getattr(c, kind) for c in self.colocations]
        return sum(values) / len(values) if values else 0.0

    @property
    def road_beats_rail_fraction(self) -> float:
        """Fraction of conduits more co-located with roads than rails —
        the paper's "physical link paths more often follow roadway
        infrastructure compared with rail"."""
        if not self.colocations:
            return 0.0
        wins = sum(1 for c in self.colocations if c.road > c.rail)
        return wins / len(self.colocations)


#: Reports by fiber map, network and (buffer, spacing), weak-keyed like
#: ``substrate_for``; computed under the lock, so once however many
#: threads ask.
_REPORTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_LOCK = threading.Lock()


def geography_report(
    fiber_map: FiberMap,
    network: TransportationNetwork,
    buffer_km: float = DEFAULT_BUFFER_KM,
    spacing_km: float = 10.0,
) -> GeographyReport:
    """Co-location of every conduit with road/rail/pipeline layers,
    computed once per (map, network, buffer, spacing).  Maps are not
    edited once their builder returns, so a report never goes stale."""
    with _LOCK:
        by_network = _REPORTS.setdefault(fiber_map, weakref.WeakKeyDictionary())
        reports = by_network.setdefault(network, {})
        report = reports.get((buffer_km, spacing_km))
        if report is None:
            index = network.corridor_index()
            rows = []
            for conduit_id, conduit in sorted(fiber_map.conduits.items()):
                profile = overlap_profile(conduit.geometry, index,
                                          buffer_km=buffer_km,
                                          spacing_km=spacing_km)
                rows.append(ConduitColocation(
                    conduit_id=conduit_id,
                    road=profile.fraction("road"),
                    rail=profile.fraction("rail"),
                    pipeline=profile.fraction("pipeline"),
                    road_or_rail=profile.union("road", "rail"),
                ))
            report = reports[(buffer_km, spacing_km)] = GeographyReport(
                colocations=tuple(rows), buffer_km=buffer_km
            )
    return report


def non_transport_conduits(
    report: GeographyReport,
    fiber_map: FiberMap,
    threshold: float = 0.5,
) -> List[Tuple[Conduit, ConduitColocation]]:
    """Figure 5: conduits mostly *not* co-located with road or rail.

    Returns them with their co-location rows; the interesting ones have
    high pipeline fractions (the "other types of rights-of-way, such as
    natural gas and/or petroleum pipelines" of §3).
    """
    result = []
    for row in report.colocations:
        if row.road_or_rail < threshold:
            result.append((fiber_map.conduit(row.conduit_id), row))
    result.sort(key=lambda pair: pair[1].road_or_rail)
    return result
