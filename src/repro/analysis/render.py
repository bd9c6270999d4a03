"""ASCII rendering of the continental-US map (Figures 1-3 in a terminal).

Projects the lower-48 bounding box onto a character grid and draws
conduit/corridor geometry with density shading, so the paper's visual
claims — dense northeast, empty upper plains and four corners, the
transcontinental corridors — are visible without a GIS.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.fibermap.elements import FiberMap
from repro.geo.polyline import Polyline
from repro.perf.substrate import substrate_for
from repro.transport.network import TransportationNetwork

#: Continental-US bounding box.
LAT_MIN, LAT_MAX = 24.0, 50.0
LON_MIN, LON_MAX = -125.0, -66.0

#: Density shading, lightest to darkest.
SHADES = " .:-=+*#%@"


class AsciiMap:
    """A character-grid canvas over the lower 48."""

    def __init__(self, width: int = 100, height: int = 32):
        if width < 10 or height < 5:
            raise ValueError("canvas too small")
        self.width = width
        self.height = height
        self._density: List[List[int]] = [
            [0] * width for _ in range(height)
        ]
        self._marks: List[List[Optional[str]]] = [
            [None] * width for _ in range(height)
        ]

    # ------------------------------------------------------------------
    def _cell(self, lat: float, lon: float) -> Optional[Tuple[int, int]]:
        if not (LAT_MIN <= lat <= LAT_MAX and LON_MIN <= lon <= LON_MAX):
            return None
        col = int((lon - LON_MIN) / (LON_MAX - LON_MIN) * (self.width - 1))
        row = int((LAT_MAX - lat) / (LAT_MAX - LAT_MIN) * (self.height - 1))
        return row, col

    def draw_polyline(self, line: Polyline, weight: int = 1,
                      spacing_km: float = 25.0) -> None:
        """Accumulate density along a route."""
        for point in line.resample(spacing_km):
            cell = self._cell(point.lat, point.lon)
            if cell is not None:
                row, col = cell
                self._density[row][col] += weight

    def mark(self, lat: float, lon: float, symbol: str) -> None:
        """Place a symbol (city marker) that overrides shading."""
        if len(symbol) != 1:
            raise ValueError("symbol must be one character")
        cell = self._cell(lat, lon)
        if cell is not None:
            row, col = cell
            self._marks[row][col] = symbol

    def render(self) -> str:
        """The finished map as a multi-line string."""
        peak = max(
            (v for row in self._density for v in row), default=0
        )
        lines = []
        for r in range(self.height):
            chars = []
            for c in range(self.width):
                mark = self._marks[r][c]
                if mark is not None:
                    chars.append(mark)
                    continue
                value = self._density[r][c]
                if value == 0 or peak == 0:
                    chars.append(" ")
                else:
                    index = min(
                        len(SHADES) - 1,
                        1 + int((len(SHADES) - 2) * value / peak),
                    )
                    chars.append(SHADES[index])
            lines.append("".join(chars).rstrip())
        return "\n".join(lines)


def render_fiber_map(
    fiber_map: FiberMap,
    width: int = 100,
    height: int = 32,
    weight_by_tenants: bool = True,
    hub_symbols: int = 8,
) -> str:
    """Figure 1: the conduit map, shaded by tenancy, hubs marked ``O``."""
    canvas = AsciiMap(width=width, height=height)
    for conduit in fiber_map.conduits.values():
        weight = conduit.num_tenants if weight_by_tenants else 1
        canvas.draw_polyline(conduit.geometry, weight=max(1, weight))
    if hub_symbols > 0:
        # Stable: tied hubs keep the substrate's first-seen city order.
        degrees = substrate_for(fiber_map).conduit_degrees()
        hubs = sorted(degrees, key=lambda kv: -kv[1])[:hub_symbols]
        from repro.data.cities import city_by_name

        for city_key, _ in hubs:
            city = city_by_name(city_key)
            canvas.mark(city.lat, city.lon, "O")
    return canvas.render()


def render_transport(
    network: TransportationNetwork,
    kind: str,
    width: int = 100,
    height: int = 32,
) -> str:
    """Figures 2-3: one infrastructure layer."""
    canvas = AsciiMap(width=width, height=height)
    for record in network.edges():
        geometry = record.geometry_for_kind(kind)
        if geometry is not None:
            canvas.draw_polyline(geometry)
    return canvas.render()
