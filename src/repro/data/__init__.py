"""Base datasets: US cities, transportation corridors, ISP profiles.

These replace the paper's external data sources — the NationalAtlas
roadway/railway layers (Figures 2 and 3), the census population centers
used in the long-haul-link definition, and the 20 provider identities.
"""

from repro.data.cities import (
    CITIES,
    City,
    city_by_code,
    city_by_name,
)
from repro.data.corridors import (
    CORRIDORS,
    Corridor,
)
from repro.data.isps import (
    ISPS,
    STEP1_ISPS,
    STEP3_ISPS,
    ISPProfile,
)

__all__ = [
    "CITIES",
    "City",
    "city_by_name",
    "city_by_code",
    "CORRIDORS",
    "Corridor",
    "ISPS",
    "STEP1_ISPS",
    "STEP3_ISPS",
    "ISPProfile",
]
