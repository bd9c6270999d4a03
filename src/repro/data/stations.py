"""Landing stations and submarine-cable systems: the global node universe.

The intercontinental extension (ROADMAP; Nautilus and "A hop away from
everywhere" in PAPERS.md) needs what :mod:`repro.data.cities` and
:mod:`repro.data.corridors` give the US family: a city universe and the
rights-of-way between them.  Here the "cities" are cable landing
stations plus the metro hubs they backhaul into, and the corridors are
submarine cable systems (``kind="sea"``) plus terrestrial backhaul
(``kind="road"``).

Two deliberate structural properties feed the risk analyses:

* **Chokepoints.**  Several independent cable systems traverse the same
  narrow passages — Port Said–Suez (the canal), the Bab el-Mandeb
  approach into Djibouti, Penang–Singapore (the Malacca Strait), and
  the Gibraltar entrance to the Mediterranean.  Those shared edges are
  the submarine analogue of the paper's most-tenanted US conduits: a
  single trench/passage whose cut touches many providers at once.
* **Detours exist but are expensive.**  The Red Sea festoon via Jeddah
  and the terrestrial Egypt crossing give the what-if analyses a
  non-trivial answer to "what if Suez is cut" instead of a partition.

Stations register through :func:`repro.data.cities.register_cities`, so
they join the lookup tables without perturbing the US dataset.
Coordinates are approximate; populations are metro-scale figures used
only as POP-selection weights.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.data.cities import City, register_cities
from repro.data.corridors import (
    GRADE_PRIMARY,
    KIND_ROAD,
    KIND_SEA,
    Corridor,
)

# ---------------------------------------------------------------------------
# Landing stations and international hubs.  (name, country, lat, lon, pop)
# ---------------------------------------------------------------------------
_STATION_RAW: List[Tuple[str, str, float, float, int]] = [
    # --- Europe --------------------------------------------------------
    ("Bude", "UK", 50.83, -4.55, 9000),
    ("London", "UK", 51.51, -0.13, 8800000),
    ("Amsterdam", "NL", 52.37, 4.90, 870000),
    ("Frankfurt", "DE", 50.11, 8.68, 750000),
    ("Paris", "FR", 48.86, 2.35, 2140000),
    ("Marseille", "FR", 43.30, 5.37, 870000),
    ("Madrid", "ES", 40.42, -3.70, 3200000),
    ("Lisbon", "PT", 38.72, -9.14, 505000),
    ("Gibraltar", "GI", 36.14, -5.35, 34000),
    # --- Mediterranean / Middle East / Indian Ocean --------------------
    ("Alexandria", "EG", 31.20, 29.92, 5200000),
    ("Port Said", "EG", 31.27, 32.30, 750000),
    ("Suez", "EG", 29.97, 32.55, 570000),
    ("Jeddah", "SA", 21.49, 39.19, 4000000),
    ("Djibouti City", "DJ", 11.59, 43.15, 600000),
    ("Fujairah", "AE", 25.13, 56.33, 100000),
    ("Mumbai", "IN", 19.08, 72.88, 12400000),
    ("Chennai", "IN", 13.08, 80.27, 7100000),
    # --- Asia-Pacific ---------------------------------------------------
    ("Penang", "MY", 5.41, 100.33, 710000),
    ("Singapore", "SG", 1.35, 103.82, 5600000),
    ("Hong Kong", "HK", 22.32, 114.17, 7400000),
    ("Tokyo", "JP", 35.68, 139.69, 13900000),
    ("Guam", "GU", 13.44, 144.79, 170000),
    ("Sydney", "AU", -33.87, 151.21, 5300000),
    ("Auckland", "NZ", -36.85, 174.76, 1650000),
    ("Honolulu", "HI", 21.31, -157.86, 350000),
]

#: The station City objects (not yet registered; see ensure_registered).
STATIONS: Tuple[City, ...] = tuple(City(*row) for row in _STATION_RAW)


def _sea(name: str, *waypoints: str) -> Corridor:
    return Corridor(
        name=name, kind=KIND_SEA, waypoints=tuple(waypoints),
        grade=GRADE_PRIMARY,
    )


def _backhaul(name: str, *waypoints: str) -> Corridor:
    return Corridor(
        name=name, kind=KIND_ROAD, waypoints=tuple(waypoints),
        grade=GRADE_PRIMARY,
    )


#: Submarine cable systems.  Waypoint pairs sharing an edge share the
#: physical passage — that is the chokepoint structure (Suez appears in
#: four systems, Malacca in three, Gibraltar in two).
CABLE_SYSTEMS: Tuple[Corridor, ...] = (
    # Transatlantic
    _sea("Atlantic Crossing", "New York, NY", "Bude, UK"),
    _sea("Apollo South", "Washington, DC", "Lisbon, PT"),
    _sea("Columbus-III", "Miami, FL", "Lisbon, PT"),
    # European festoon / Mediterranean entrance
    _sea("Circe North", "London, UK", "Amsterdam, NL"),
    _sea("Atlantis-2", "Lisbon, PT", "Gibraltar, GI", "Marseille, FR"),
    # Europe -> Egypt -> India -> Southeast Asia (the Suez corridor)
    _sea("SEA-ME-WE-5",
         "Marseille, FR", "Alexandria, EG", "Port Said, EG", "Suez, EG",
         "Djibouti City, DJ", "Mumbai, IN", "Chennai, IN", "Penang, MY",
         "Singapore, SG"),
    _sea("AAE-1",
         "Marseille, FR", "Port Said, EG", "Suez, EG",
         "Djibouti City, DJ", "Fujairah, AE", "Mumbai, IN", "Penang, MY",
         "Singapore, SG"),
    _sea("EIG",
         "Gibraltar, GI", "Alexandria, EG", "Port Said, EG", "Suez, EG",
         "Djibouti City, DJ", "Mumbai, IN"),
    _sea("FALCON",
         "Suez, EG", "Djibouti City, DJ", "Fujairah, AE", "Mumbai, IN"),
    # The Red Sea festoon: the expensive detour around Bab el-Mandeb.
    _sea("Red Sea Festoon", "Suez, EG", "Jeddah, SA", "Djibouti City, DJ"),
    # Malacca Strait and East Asia
    _sea("Malacca Express", "Chennai, IN", "Penang, MY", "Singapore, SG"),
    _sea("APG", "Singapore, SG", "Hong Kong, HK", "Tokyo, JP"),
    _sea("Asia Submarine Express",
         "Singapore, SG", "Hong Kong, HK", "Tokyo, JP"),
    # Transpacific
    _sea("Pacific Crossing", "Tokyo, JP", "Seattle, WA"),
    _sea("Unity", "Tokyo, JP", "San Francisco, CA"),
    _sea("Australia-Japan Cable", "Sydney, AU", "Guam, GU", "Tokyo, JP"),
    _sea("Southern Cross",
         "Sydney, AU", "Auckland, NZ", "Honolulu, HI",
         "San Francisco, CA"),
    _sea("Hawaiki",
         "Sydney, AU", "Auckland, NZ", "Honolulu, HI",
         "Los Angeles, CA"),
)

#: Terrestrial backhaul tying landing stations into the metro hubs.
BACKHAUL_CORRIDORS: Tuple[Corridor, ...] = (
    _backhaul("UK Backhaul", "Bude, UK", "London, UK"),
    _backhaul("Channel Route", "London, UK", "Paris, FR"),
    _backhaul("Rhine Route", "Paris, FR", "Frankfurt, DE",
              "Amsterdam, NL"),
    _backhaul("Rhone Route", "Paris, FR", "Marseille, FR"),
    _backhaul("Iberia Route", "Lisbon, PT", "Madrid, ES",
              "Marseille, FR"),
    _backhaul("Nile Delta Route", "Alexandria, EG", "Port Said, EG"),
    _backhaul("Egypt Crossing", "Alexandria, EG", "Suez, EG"),
    _backhaul("Suez Canal Zone", "Port Said, EG", "Suez, EG"),
    _backhaul("India Land Route", "Mumbai, IN", "Chennai, IN"),
    _backhaul("US Atlantic Backhaul",
              "Miami, FL", "Ashburn, VA", "Washington, DC",
              "New York, NY"),
    _backhaul("US Transcontinental", "Washington, DC", "Los Angeles, CA"),
    _backhaul("US Pacific Backhaul",
              "Los Angeles, CA", "San Francisco, CA", "Seattle, WA"),
)

#: Every corridor of the global map, cables first.
GLOBAL_CORRIDORS: Tuple[Corridor, ...] = CABLE_SYSTEMS + BACKHAUL_CORRIDORS


def ensure_registered() -> None:
    """Register the station cities (idempotent; safe to call per stage)."""
    register_cities(STATIONS)
