"""The NSFNET T3 backbone, circa 1995 (§6.1's historical comparison).

"The links reflected in our map can also be considered an Internet
invariant, and it is instructive to compare the basic structure of our
map to the NSFNET backbone circa 1995."  This is that backbone: the
core nodes (mapped to their nearest cities in our dataset) and the T3
links between them, so the invariance claim — yesterday's backbone
routes are today's most-shared corridors — can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.data.cities import city_by_name

#: NSFNET T3 core nodes (1992-1995 architecture), as dataset city keys.
NSFNET_NODES: Tuple[str, ...] = (
    "Seattle, WA",
    "Palo Alto, CA",       # NSS at Stanford / FIX-West
    "San Diego, CA",       # SDSC
    "Salt Lake City, UT",
    "Boulder, CO",         # NCAR
    "Lincoln, NE",         # MIDnet
    "Houston, TX",         # SESQUINET
    "Urbana, IL",          # NCSA
    "Chicago, IL",
    "Ann Arbor, MI",       # MERIT
    "St. Louis, MO",
    "Pittsburgh, PA",      # PSC
    "New York, NY",        # Cornell NSS, mapped to the NYC metro
    "Washington, DC",      # College Park / SURAnet
    "Atlanta, GA",
)

#: T3 backbone links (city-key pairs).
NSFNET_LINKS: Tuple[Tuple[str, str], ...] = (
    ("Seattle, WA", "Palo Alto, CA"),
    ("Seattle, WA", "Salt Lake City, UT"),
    ("Palo Alto, CA", "San Diego, CA"),
    ("Palo Alto, CA", "Salt Lake City, UT"),
    ("San Diego, CA", "Houston, TX"),
    ("Salt Lake City, UT", "Boulder, CO"),
    ("Boulder, CO", "Lincoln, NE"),
    ("Lincoln, NE", "Urbana, IL"),
    ("Urbana, IL", "Chicago, IL"),
    ("Chicago, IL", "Ann Arbor, MI"),
    ("Ann Arbor, MI", "New York, NY"),
    ("Houston, TX", "St. Louis, MO"),
    ("Houston, TX", "Atlanta, GA"),
    ("St. Louis, MO", "Urbana, IL"),
    ("Atlanta, GA", "Washington, DC"),
    ("Washington, DC", "New York, NY"),
    ("New York, NY", "Chicago, IL"),
    ("Pittsburgh, PA", "Chicago, IL"),
    ("Pittsburgh, PA", "New York, NY"),
    ("Pittsburgh, PA", "Washington, DC"),
)


@dataclass(frozen=True)
class NsfnetBackbone:
    """The historical backbone as a simple structure."""

    nodes: Tuple[str, ...]
    links: Tuple[Tuple[str, str], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def total_los_km(self) -> float:
        total = 0.0
        for a, b in self.links:
            total += city_by_name(a).distance_km(city_by_name(b))
        return total


def nsfnet_backbone() -> NsfnetBackbone:
    """The validated NSFNET 1995 backbone."""
    for key in NSFNET_NODES:
        city_by_name(key)
    for a, b in NSFNET_LINKS:
        city_by_name(a)
        city_by_name(b)
    return NsfnetBackbone(nodes=NSFNET_NODES, links=NSFNET_LINKS)
