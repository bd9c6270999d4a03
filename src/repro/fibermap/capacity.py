"""Capacity layer: fiber counts, lit wavelengths, and utilization.

The paper treats conduits as risk containers; operationally they are
also capacity containers.  This layer assigns each conduit a plausible
fiber-strand count (scaling with tenancy — more tenants means more
cables pulled through the tube), each tenant a lit-capacity share, and
computes utilization from a traceroute overlay's probe counts, exposing
the *amplification* effect: the most-shared conduits also concentrate
the most capacity, so one cut destroys disproportionate bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.fibermap.elements import FiberMap
from repro.fibermap.synthesis import _stable_unit
from repro.traceroute.overlay import TrafficOverlay

#: Fiber strands per cable a tenant pulls through a conduit.
STRANDS_PER_TENANT_CABLE = 96
#: Lit wavelengths per strand pair (DWDM) and capacity per wavelength.
WAVELENGTHS_PER_PAIR = 40
GBPS_PER_WAVELENGTH = 10.0


@dataclass(frozen=True)
class ConduitCapacity:
    """Capacity attributes of one conduit."""

    conduit_id: str
    endpoints: Tuple[str, str]
    tenants: int
    strands: int
    lit_gbps: float
    probe_share: float


@dataclass(frozen=True)
class CapacityModel:
    """The capacity-annotated conduit system."""

    conduits: Tuple[ConduitCapacity, ...]

    def __len__(self) -> int:
        return len(self.conduits)

    @property
    def total_lit_gbps(self) -> float:
        return sum(c.lit_gbps for c in self.conduits)

    def top_capacity(self, top: int = 10) -> Tuple[ConduitCapacity, ...]:
        return tuple(
            sorted(
                self.conduits,
                key=lambda c: (-c.lit_gbps, c.conduit_id),
            )[:top]
        )

    def amplification(self) -> float:
        """Capacity share of the top decile of conduits by tenancy.

        >0.1 means shared conduits concentrate capacity beyond their
        numbers — the risk-amplification effect.
        """
        if not self.conduits:
            return 0.0
        ranked = sorted(self.conduits, key=lambda c: -c.tenants)
        decile = max(1, len(ranked) // 10)
        top_capacity = sum(c.lit_gbps for c in ranked[:decile])
        total = self.total_lit_gbps
        return top_capacity / total if total else 0.0


def build_capacity_model(
    fiber_map: FiberMap,
    overlay: Optional[TrafficOverlay] = None,
) -> CapacityModel:
    """Assign capacity to every conduit, deterministically.

    Strands scale with tenant count (each tenant pulls its own cable);
    lit capacity scales with strands, modulated by a stable per-conduit
    utilization factor; probe share comes from the overlay when given.
    """
    traffic = overlay.traffic() if overlay is not None else {}
    total_probes = sum(t.total for t in traffic.values()) or 1
    conduits: List[ConduitCapacity] = []
    for conduit_id, conduit in sorted(fiber_map.conduits.items()):
        strands = max(1, conduit.num_tenants) * STRANDS_PER_TENANT_CABLE
        # Only a fraction of strand pairs are lit; stable per conduit.
        lit_fraction = 0.15 + 0.35 * _stable_unit(f"lit|{conduit_id}")
        pairs = strands // 2
        lit_gbps = (
            pairs * lit_fraction * WAVELENGTHS_PER_PAIR * GBPS_PER_WAVELENGTH
        )
        item = traffic.get(conduit_id)
        probe_share = (item.total / total_probes) if item else 0.0
        conduits.append(
            ConduitCapacity(
                conduit_id=conduit_id,
                endpoints=conduit.edge,
                tenants=conduit.num_tenants,
                strands=strands,
                lit_gbps=lit_gbps,
                probe_share=probe_share,
            )
        )
    return CapacityModel(conduits=tuple(conduits))


def capacity_risk_correlation(model: CapacityModel) -> float:
    """Pearson correlation between tenancy and lit capacity.

    Strongly positive by construction of the economics — the measurable
    form of "the riskiest tubes are also the fattest".
    """
    if len(model) < 2:
        return 0.0
    tenants = np.array([c.tenants for c in model.conduits], dtype=float)
    capacity = np.array([c.lit_gbps for c in model.conduits], dtype=float)
    if tenants.std() == 0 or capacity.std() == 0:
        return 0.0
    return float(np.corrcoef(tenants, capacity)[0, 1])
