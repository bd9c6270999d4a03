"""Annotated map generation — the paper's §8 future work, delivered.

"We also plan to generate annotated versions of our map, focusing in
particular on traffic and propagation delay."  An annotated map decorates
every conduit with its measured probe traffic, propagation delay, tenant
count and a coarse risk class, and exports as GeoJSON so a GIS (or the
ASCII renderer) can style by any annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.fibermap.elements import FiberMap
from repro.geo.coords import fiber_delay_ms
from repro.traceroute.overlay import TrafficOverlay

#: Risk classes by tenant count.
RISK_CLASSES = (
    (1, "private"),
    (4, "shared"),
    (9, "heavily-shared"),
    (10**9, "critical"),
)


def risk_class(tenants: int) -> str:
    """Coarse risk label for a tenant count."""
    if tenants < 0:
        raise ValueError(f"tenant count must be non-negative: {tenants}")
    for bound, label in RISK_CLASSES:
        if tenants <= bound:
            return label
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class ConduitAnnotation:
    """Everything known about one conduit, in one record."""

    conduit_id: str
    endpoints: Tuple[str, str]
    length_km: float
    delay_ms: float
    tenants: int
    risk_class: str
    probes_total: int
    probes_west_to_east: int
    probes_east_to_west: int
    inferred_extra_isps: int


@dataclass(frozen=True)
class AnnotatedMap:
    """The full annotated map."""

    annotations: Tuple[ConduitAnnotation, ...]

    def __len__(self) -> int:
        return len(self.annotations)

    def critical(self) -> Tuple[ConduitAnnotation, ...]:
        """Conduits in the highest risk class, busiest first."""
        rows = [a for a in self.annotations if a.risk_class == "critical"]
        rows.sort(key=lambda a: (-a.probes_total, a.conduit_id))
        return tuple(rows)

    def busiest(self, top: int = 10) -> Tuple[ConduitAnnotation, ...]:
        rows = sorted(
            self.annotations, key=lambda a: (-a.probes_total, a.conduit_id)
        )
        return tuple(rows[:top])


def annotate_map(
    fiber_map: FiberMap,
    overlay: Optional[TrafficOverlay] = None,
) -> AnnotatedMap:
    """Build the annotated map (traffic annotations need an overlay)."""
    traffic = overlay.traffic() if overlay is not None else {}
    annotations = []
    for conduit_id, conduit in sorted(fiber_map.conduits.items()):
        item = traffic.get(conduit_id)
        extra = (
            len(overlay.inferred_additional_isps(conduit_id))
            if overlay is not None
            else 0
        )
        annotations.append(
            ConduitAnnotation(
                conduit_id=conduit_id,
                endpoints=conduit.edge,
                length_km=conduit.length_km,
                delay_ms=fiber_delay_ms(conduit.length_km),
                tenants=conduit.num_tenants,
                risk_class=risk_class(conduit.num_tenants),
                probes_total=item.total if item else 0,
                probes_west_to_east=item.west_to_east if item else 0,
                probes_east_to_west=item.east_to_west if item else 0,
                inferred_extra_isps=extra,
            )
        )
    return AnnotatedMap(annotations=tuple(annotations))


def annotated_geojson(
    fiber_map: FiberMap,
    annotated: AnnotatedMap,
) -> Dict[str, Any]:
    """GeoJSON FeatureCollection with the annotations as properties."""
    features = []
    for annotation in annotated.annotations:
        conduit = fiber_map.conduit(annotation.conduit_id)
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [
                        [p.lon, p.lat] for p in conduit.geometry.points
                    ],
                },
                "properties": {
                    "conduit_id": annotation.conduit_id,
                    "endpoints": list(annotation.endpoints),
                    "length_km": round(annotation.length_km, 1),
                    "delay_ms": round(annotation.delay_ms, 3),
                    "tenants": annotation.tenants,
                    "risk_class": annotation.risk_class,
                    "probes_total": annotation.probes_total,
                    "probes_west_to_east": annotation.probes_west_to_east,
                    "probes_east_to_west": annotation.probes_east_to_west,
                    "inferred_extra_isps": annotation.inferred_extra_isps,
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}
