"""US cities: the node universe of the long-haul map.

The paper's long-haul-link definition (§2) refers to population centers of
at least 100,000 people; its final map has 273 nodes/cities, and its
tables name both major metros and small waypoint cities (Casper WY,
Battle Creek MI, Camp Verde AZ, ...).  This dataset therefore mixes every
city named anywhere in the paper with the major metros and the corridor
waypoint towns needed to trace the real interstate/rail geography.

Coordinates are approximate (good to a few tenths of a degree), which is
all the corridor-scale geometry requires.  Populations are rounded
city-proper figures circa the early 2010s.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint


@dataclass(frozen=True)
class City:
    """One city: map node candidate and corridor waypoint."""

    name: str
    state: str
    lat: float
    lon: float
    population: int

    @property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)

    @property
    def key(self) -> str:
        """Canonical ``"Name, ST"`` key used throughout the library."""
        return f"{self.name}, {self.state}"

    @property
    def code(self) -> str:
        """Short lowercase code used in synthetic router DNS names."""
        return _CODES[self.key]

    def distance_km(self, other: "City") -> float:
        """Great-circle distance, read off the compiled :func:`city_table`
        (equal to ``haversine_km`` of the two locations bit for bit)."""
        table = city_table()
        return table.distances.item(table.index[self.key], table.index[other.key])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key


# ---------------------------------------------------------------------------
# The dataset.  (name, state, lat, lon, population)
# ---------------------------------------------------------------------------
_RAW: List[Tuple[str, str, float, float, int]] = [
    # --- Northeast -----------------------------------------------------
    ("New York", "NY", 40.71, -74.01, 8400000),
    ("Newark", "NJ", 40.74, -74.17, 281000),
    ("Edison", "NJ", 40.52, -74.41, 100000),
    ("Trenton", "NJ", 40.22, -74.76, 84000),
    ("Philadelphia", "PA", 39.95, -75.17, 1560000),
    ("Allentown", "PA", 40.60, -75.47, 120000),
    ("Scranton", "PA", 41.41, -75.66, 77000),
    ("Harrisburg", "PA", 40.27, -76.88, 49000),
    ("Pittsburgh", "PA", 40.44, -80.00, 305000),
    ("Erie", "PA", 42.13, -80.09, 101000),
    ("Baltimore", "MD", 39.29, -76.61, 620000),
    ("Towson", "MD", 39.40, -76.61, 55000),
    ("Frederick", "MD", 39.41, -77.41, 66000),
    ("Washington", "DC", 38.90, -77.04, 650000),
    ("Wilmington", "DE", 39.75, -75.55, 71000),
    ("Boston", "MA", 42.36, -71.06, 650000),
    ("Worcester", "MA", 42.26, -71.80, 182000),
    ("Springfield", "MA", 42.10, -72.59, 154000),
    ("Providence", "RI", 41.82, -71.41, 178000),
    ("Hartford", "CT", 41.76, -72.69, 125000),
    ("New Haven", "CT", 41.31, -72.92, 130000),
    ("Stamford", "CT", 41.05, -73.54, 126000),
    ("Bridgeport", "CT", 41.19, -73.20, 146000),
    ("White Plains", "NY", 41.03, -73.77, 57000),
    ("Albany", "NY", 42.65, -73.75, 98000),
    ("Syracuse", "NY", 43.05, -76.15, 144000),
    ("Utica", "NY", 43.10, -75.23, 61000),
    ("Rochester", "NY", 43.16, -77.61, 210000),
    ("Buffalo", "NY", 42.89, -78.88, 258000),
    ("Binghamton", "NY", 42.10, -75.91, 46000),
    ("Portland", "ME", 43.66, -70.26, 66000),
    ("Manchester", "NH", 42.99, -71.46, 110000),
    ("Burlington", "VT", 44.48, -73.21, 42000),
    # --- Mid-Atlantic / Southeast --------------------------------------
    ("Richmond", "VA", 37.54, -77.44, 214000),
    ("Charlottesville", "VA", 38.03, -78.48, 45000),
    ("Lynchburg", "VA", 37.41, -79.14, 77000),
    ("Roanoke", "VA", 37.27, -79.94, 98000),
    ("Norfolk", "VA", 36.85, -76.29, 245000),
    ("Ashburn", "VA", 39.04, -77.49, 44000),
    ("Raleigh", "NC", 35.78, -78.64, 432000),
    ("Durham", "NC", 35.99, -78.90, 245000),
    ("Greensboro", "NC", 36.07, -79.79, 280000),
    ("Winston-Salem", "NC", 36.10, -80.24, 236000),
    ("Charlotte", "NC", 35.23, -80.84, 793000),
    ("Asheville", "NC", 35.60, -82.55, 88000),
    ("Wilmington", "NC", 34.23, -77.94, 112000),
    ("Columbia", "SC", 34.00, -81.03, 132000),
    ("Greenville", "SC", 34.85, -82.40, 62000),
    ("Charleston", "SC", 32.78, -79.93, 128000),
    ("Savannah", "GA", 32.08, -81.09, 142000),
    ("Atlanta", "GA", 33.75, -84.39, 447000),
    ("Macon", "GA", 32.84, -83.63, 91000),
    ("Augusta", "GA", 33.47, -81.97, 196000),
    ("Columbus", "GA", 32.46, -84.99, 195000),
    ("Valdosta", "GA", 30.83, -83.28, 56000),
    ("Chattanooga", "TN", 35.05, -85.31, 173000),
    ("Knoxville", "TN", 35.96, -83.92, 183000),
    ("Nashville", "TN", 36.16, -86.78, 644000),
    ("Memphis", "TN", 35.15, -90.05, 655000),
    ("Jackson", "TN", 35.61, -88.81, 67000),
    ("Louisville", "KY", 38.25, -85.76, 610000),
    ("Lexington", "KY", 38.04, -84.50, 308000),
    ("Bowling Green", "KY", 36.99, -86.44, 61000),
    ("Charleston", "WV", 38.35, -81.63, 51000),
    ("Bristol", "VA", 36.60, -82.19, 17000),
    # --- Florida --------------------------------------------------------
    ("Jacksonville", "FL", 30.33, -81.66, 842000),
    ("Gainesville", "FL", 29.65, -82.32, 127000),
    ("Ocala", "FL", 29.19, -82.14, 57000),
    ("Orlando", "FL", 28.54, -81.38, 255000),
    ("Daytona Beach", "FL", 29.21, -81.02, 62000),
    ("Tampa", "FL", 27.95, -82.46, 352000),
    ("Sarasota", "FL", 27.34, -82.53, 53000),
    ("Fort Myers", "FL", 26.64, -81.87, 68000),
    ("West Palm Beach", "FL", 26.71, -80.05, 100000),
    ("Boca Raton", "FL", 26.37, -80.10, 89000),
    ("Fort Lauderdale", "FL", 26.12, -80.14, 172000),
    ("Miami", "FL", 25.76, -80.19, 417000),
    ("Tallahassee", "FL", 30.44, -84.28, 186000),
    ("Pensacola", "FL", 30.42, -87.22, 52000),
    # --- Gulf / Deep South ----------------------------------------------
    ("Mobile", "AL", 30.69, -88.04, 195000),
    ("Montgomery", "AL", 32.37, -86.30, 205000),
    ("Birmingham", "AL", 33.52, -86.80, 212000),
    ("Huntsville", "AL", 34.73, -86.59, 186000),
    ("Jackson", "MS", 32.30, -90.18, 173000),
    ("Meridian", "MS", 32.36, -88.70, 41000),
    ("Laurel", "MS", 31.69, -89.13, 18600),
    ("Hattiesburg", "MS", 31.33, -89.29, 46000),
    ("Gulfport", "MS", 30.37, -89.09, 71000),
    ("New Orleans", "LA", 29.95, -90.07, 378000),
    ("Baton Rouge", "LA", 30.45, -91.15, 229000),
    ("Lafayette", "LA", 30.22, -92.02, 124000),
    ("Lake Charles", "LA", 30.23, -93.22, 74000),
    ("Shreveport", "LA", 32.53, -93.75, 200000),
    ("Monroe", "LA", 32.51, -92.12, 49000),
    ("Little Rock", "AR", 34.75, -92.29, 197000),
    ("Fort Smith", "AR", 35.39, -94.40, 88000),
    ("Texarkana", "TX", 33.43, -94.05, 37000),
    # --- Texas ----------------------------------------------------------
    ("Houston", "TX", 29.76, -95.37, 2200000),
    ("Beaumont", "TX", 30.08, -94.13, 118000),
    ("Galveston", "TX", 29.30, -94.80, 48000),
    ("Bryan", "TX", 30.67, -96.37, 78000),
    ("Austin", "TX", 30.27, -97.74, 885000),
    ("San Antonio", "TX", 29.42, -98.49, 1400000),
    ("Waco", "TX", 31.55, -97.15, 129000),
    ("Dallas", "TX", 32.78, -96.80, 1258000),
    ("Fort Worth", "TX", 32.76, -97.33, 792000),
    ("Wichita Falls", "TX", 33.91, -98.49, 104000),
    ("Abilene", "TX", 32.45, -99.73, 120000),
    ("Midland", "TX", 32.00, -102.08, 123000),
    ("El Paso", "TX", 31.76, -106.49, 674000),
    ("Lubbock", "TX", 33.58, -101.86, 239000),
    ("Amarillo", "TX", 35.22, -101.83, 196000),
    ("Laredo", "TX", 27.51, -99.51, 248000),
    ("Corpus Christi", "TX", 27.80, -97.40, 316000),
    ("McAllen", "TX", 26.20, -98.23, 136000),
    ("Tyler", "TX", 32.35, -95.30, 100000),
    ("San Angelo", "TX", 31.46, -100.44, 97000),
    # --- Midwest ---------------------------------------------------------
    ("Chicago", "IL", 41.88, -87.63, 2700000),
    ("Urbana", "IL", 40.11, -88.21, 41000),
    ("Champaign", "IL", 40.12, -88.24, 83000),
    ("Springfield", "IL", 39.80, -89.64, 117000),
    ("Peoria", "IL", 40.69, -89.59, 115000),
    ("Rockford", "IL", 42.27, -89.09, 150000),
    ("Bloomington", "IL", 40.48, -88.99, 78000),
    ("Effingham", "IL", 39.12, -88.54, 12000),
    ("Indianapolis", "IN", 39.77, -86.16, 843000),
    ("Fort Wayne", "IN", 41.08, -85.14, 256000),
    ("South Bend", "IN", 41.68, -86.25, 101000),
    ("Gary", "IN", 41.59, -87.35, 78000),
    ("Evansville", "IN", 37.97, -87.56, 120000),
    ("Terre Haute", "IN", 39.47, -87.41, 61000),
    ("Columbus", "OH", 39.96, -82.99, 823000),
    ("Cleveland", "OH", 41.50, -81.69, 390000),
    ("Cincinnati", "OH", 39.10, -84.51, 297000),
    ("Dayton", "OH", 39.76, -84.19, 141000),
    ("Toledo", "OH", 41.65, -83.54, 282000),
    ("Akron", "OH", 41.08, -81.52, 198000),
    ("Youngstown", "OH", 41.10, -80.65, 65000),
    ("Detroit", "MI", 42.33, -83.05, 689000),
    ("Livonia", "MI", 42.37, -83.37, 96000),
    ("Southfield", "MI", 42.47, -83.22, 72000),
    ("Ann Arbor", "MI", 42.28, -83.75, 117000),
    ("Lansing", "MI", 42.73, -84.56, 114000),
    ("Battle Creek", "MI", 42.32, -85.18, 52000),
    ("Kalamazoo", "MI", 42.29, -85.59, 75000),
    ("Grand Rapids", "MI", 42.96, -85.66, 192000),
    ("Flint", "MI", 43.01, -83.69, 99000),
    ("Saginaw", "MI", 43.42, -83.95, 50000),
    ("Milwaukee", "WI", 43.04, -87.91, 599000),
    ("Madison", "WI", 43.07, -89.40, 243000),
    ("Eau Claire", "WI", 44.81, -91.50, 67000),
    ("Green Bay", "WI", 44.51, -88.01, 105000),
    ("La Crosse", "WI", 43.81, -91.25, 52000),
    ("Wausau", "WI", 44.96, -89.63, 39000),
    ("Minneapolis", "MN", 44.98, -93.27, 400000),
    ("St. Paul", "MN", 44.95, -93.09, 295000),
    ("Duluth", "MN", 46.79, -92.10, 86000),
    ("Rochester", "MN", 44.02, -92.47, 111000),
    ("St. Cloud", "MN", 45.56, -94.16, 66000),
    ("Fargo", "ND", 46.88, -96.79, 113000),
    ("Bismarck", "ND", 46.81, -100.78, 67000),
    ("Grand Forks", "ND", 47.93, -97.03, 55000),
    ("Sioux Falls", "SD", 43.54, -96.73, 164000),
    ("Rapid City", "SD", 44.08, -103.23, 71000),
    ("Pierre", "SD", 44.37, -100.35, 14000),
    ("St. Louis", "MO", 38.63, -90.20, 318000),
    ("Kansas City", "MO", 39.10, -94.58, 467000),
    ("Springfield", "MO", 37.21, -93.29, 164000),
    ("Columbia", "MO", 38.95, -92.33, 115000),
    ("Joplin", "MO", 37.08, -94.51, 51000),
    ("Des Moines", "IA", 41.59, -93.62, 207000),
    ("Cedar Rapids", "IA", 41.98, -91.67, 128000),
    ("Davenport", "IA", 41.52, -90.58, 102000),
    ("Iowa City", "IA", 41.66, -91.53, 71000),
    ("Council Bluffs", "IA", 41.26, -95.86, 62000),
    ("Omaha", "NE", 41.26, -95.93, 434000),
    ("Lincoln", "NE", 40.81, -96.68, 268000),
    ("Grand Island", "NE", 40.93, -98.34, 51000),
    ("North Platte", "NE", 41.12, -100.77, 24000),
    ("Wichita", "KS", 37.69, -97.34, 386000),
    ("Topeka", "KS", 39.05, -95.68, 128000),
    ("Salina", "KS", 38.84, -97.61, 48000),
    ("Hays", "KS", 38.88, -99.33, 21000),
    ("Dodge City", "KS", 37.75, -100.02, 28000),
    # --- Plains / Mountain ----------------------------------------------
    ("Oklahoma City", "OK", 35.47, -97.52, 610000),
    ("Tulsa", "OK", 36.15, -95.99, 398000),
    ("Lawton", "OK", 34.61, -98.39, 97000),
    ("Denver", "CO", 39.74, -104.99, 649000),
    ("Colorado Springs", "CO", 38.83, -104.82, 440000),
    ("Pueblo", "CO", 38.25, -104.61, 108000),
    ("Fort Collins", "CO", 40.59, -105.08, 152000),
    ("Grand Junction", "CO", 39.06, -108.55, 60000),
    ("Boulder", "CO", 40.01, -105.27, 103000),
    ("Glenwood Springs", "CO", 39.55, -107.32, 10000),
    ("Limon", "CO", 39.26, -103.69, 1900),
    ("Cheyenne", "WY", 41.14, -104.82, 62000),
    ("Laramie", "WY", 41.31, -105.59, 31000),
    ("Casper", "WY", 42.87, -106.31, 59000),
    ("Rock Springs", "WY", 41.59, -109.22, 24000),
    ("Rawlins", "WY", 41.79, -107.24, 9000),
    ("Evanston", "WY", 41.27, -110.96, 12000),
    ("Sheridan", "WY", 44.80, -106.96, 18000),
    ("Billings", "MT", 45.78, -108.50, 109000),
    ("Bozeman", "MT", 45.68, -111.04, 42000),
    ("Butte", "MT", 46.00, -112.53, 34000),
    ("Helena", "MT", 46.59, -112.04, 30000),
    ("Missoula", "MT", 46.87, -113.99, 70000),
    ("Great Falls", "MT", 47.50, -111.29, 59000),
    ("Miles City", "MT", 46.41, -105.84, 8500),
    ("Boise", "ID", 43.62, -116.20, 215000),
    ("Twin Falls", "ID", 42.56, -114.46, 46000),
    ("Pocatello", "ID", 42.87, -112.45, 55000),
    ("Idaho Falls", "ID", 43.49, -112.03, 59000),
    ("Coeur d'Alene", "ID", 47.68, -116.78, 46000),
    ("Salt Lake City", "UT", 40.76, -111.89, 191000),
    ("Provo", "UT", 40.23, -111.66, 116000),
    ("Ogden", "UT", 41.22, -111.97, 84000),
    ("St. George", "UT", 37.10, -113.58, 77000),
    ("Green River", "UT", 38.99, -110.16, 950),
    ("Wendover", "UT", 40.74, -114.03, 1400),
    ("Wells", "NV", 41.11, -114.96, 1300),
    ("Elko", "NV", 40.83, -115.76, 20000),
    ("Winnemucca", "NV", 40.97, -117.74, 7900),
    ("Reno", "NV", 39.53, -119.81, 233000),
    ("Las Vegas", "NV", 36.17, -115.14, 603000),
    ("Tonopah", "NV", 38.07, -117.23, 2500),
    ("Albuquerque", "NM", 35.08, -106.65, 557000),
    ("Santa Fe", "NM", 35.69, -105.94, 70000),
    ("Las Cruces", "NM", 32.32, -106.76, 101000),
    ("Gallup", "NM", 35.53, -108.74, 22000),
    ("Roswell", "NM", 33.39, -104.52, 48000),
    ("Tucumcari", "NM", 35.17, -103.72, 5300),
    # --- Southwest / Pacific ----------------------------------------------
    ("Phoenix", "AZ", 33.45, -112.07, 1513000),
    ("Tucson", "AZ", 32.22, -110.97, 527000),
    ("Flagstaff", "AZ", 35.20, -111.65, 68000),
    ("Yuma", "AZ", 32.69, -114.62, 91000),
    ("Sedona", "AZ", 34.87, -111.76, 10000),
    ("Camp Verde", "AZ", 34.56, -111.85, 11000),
    ("Kingman", "AZ", 35.19, -114.05, 28000),
    ("Los Angeles", "CA", 34.05, -118.24, 3900000),
    ("Anaheim", "CA", 33.84, -117.91, 345000),
    ("Riverside", "CA", 33.95, -117.40, 316000),
    ("San Bernardino", "CA", 34.11, -117.29, 213000),
    ("San Diego", "CA", 32.72, -117.16, 1356000),
    ("Barstow", "CA", 34.90, -117.02, 23000),
    ("Bakersfield", "CA", 35.37, -119.02, 364000),
    ("Fresno", "CA", 36.74, -119.79, 509000),
    ("Modesto", "CA", 37.64, -120.99, 203000),
    ("Stockton", "CA", 37.96, -121.29, 298000),
    ("Sacramento", "CA", 38.58, -121.49, 479000),
    ("San Francisco", "CA", 37.77, -122.42, 837000),
    ("Oakland", "CA", 37.80, -122.27, 406000),
    ("Palo Alto", "CA", 37.44, -122.14, 66000),
    ("San Jose", "CA", 37.34, -121.89, 998000),
    ("Santa Clara", "CA", 37.35, -121.96, 120000),
    ("Santa Barbara", "CA", 34.42, -119.70, 90000),
    ("Santa Maria", "CA", 34.95, -120.44, 102000),
    ("Lompoc", "CA", 34.64, -120.46, 43000),
    ("San Luis Obispo", "CA", 35.28, -120.66, 46000),
    ("Salinas", "CA", 36.68, -121.66, 155000),
    ("Santa Cruz", "CA", 36.97, -122.03, 63000),
    ("Chico", "CA", 39.73, -121.84, 88000),
    ("Redding", "CA", 40.59, -122.39, 91000),
    ("Eureka", "CA", 40.80, -124.16, 27000),
    ("Truckee", "CA", 39.33, -120.18, 16000),
    ("Needles", "CA", 34.85, -114.61, 5000),
    ("Palm Springs", "CA", 33.83, -116.55, 46000),
    ("Blythe", "CA", 33.61, -114.60, 20000),
    # --- Pacific Northwest -------------------------------------------------
    ("Portland", "OR", 45.52, -122.68, 609000),
    ("Hillsboro", "OR", 45.52, -122.99, 97000),
    ("Salem", "OR", 44.94, -123.04, 160000),
    ("Eugene", "OR", 44.05, -123.09, 159000),
    ("Medford", "OR", 42.33, -122.88, 77000),
    ("Bend", "OR", 44.06, -121.32, 81000),
    ("Pendleton", "OR", 45.67, -118.79, 17000),
    ("Ontario", "OR", 44.03, -116.96, 11000),
    ("Seattle", "WA", 47.61, -122.33, 652000),
    ("Tacoma", "WA", 47.25, -122.44, 203000),
    ("Olympia", "WA", 47.04, -122.90, 48000),
    ("Spokane", "WA", 47.66, -117.43, 210000),
    ("Yakima", "WA", 46.60, -120.51, 93000),
    ("Vancouver", "WA", 45.64, -122.66, 167000),
    ("Bellingham", "WA", 48.75, -122.48, 82000),
    ("Kennewick", "WA", 46.21, -119.14, 78000),
    ("Ellensburg", "WA", 46.99, -120.55, 18000),
    ("Ritzville", "WA", 47.13, -118.38, 1700),
]


def _derive_code(name: str, state: str, taken: Dict[str, str]) -> str:
    """Deterministic 3-letter lowercase city code with collision handling."""
    letters = [c for c in name.lower() if c.isalpha()]
    base = "".join(letters[:3]) if len(letters) >= 3 else ("".join(letters) + "xx")[:3]
    candidates = [base]
    # Consonant skeleton fallback, then state-flavored fallbacks.
    consonants = [c for c in letters if c not in "aeiou"]
    if len(consonants) >= 3:
        candidates.append("".join(consonants[:3]))
    candidates.append((base[:2] + state[0]).lower())
    candidates.append((base[0] + state).lower())
    for cand in candidates:
        if cand not in taken:
            return cand
    # Last resort: append a digit.
    for i in range(10):
        cand = base[:2] + str(i)
        if cand not in taken:
            return cand
    raise RuntimeError(f"could not derive a unique code for {name}, {state}")


# Hand overrides for major metros so synthetic router names read naturally
# (mirrors the paper's naming-hint decoding, ref. [78, 92]).
_CODE_OVERRIDES: Dict[str, str] = {
    "New York, NY": "nyc",
    "Los Angeles, CA": "lax",
    "Chicago, IL": "chi",
    "Dallas, TX": "dfw",
    "Houston, TX": "hou",
    "Washington, DC": "iad",
    "Philadelphia, PA": "phl",
    "Atlanta, GA": "atl",
    "Miami, FL": "mia",
    "Boston, MA": "bos",
    "San Francisco, CA": "sfo",
    "San Jose, CA": "sjc",
    "Seattle, WA": "sea",
    "Denver, CO": "den",
    "Salt Lake City, UT": "slc",
    "Phoenix, AZ": "phx",
    "Las Vegas, NV": "las",
    "Minneapolis, MN": "msp",
    "Detroit, MI": "dtw",
    "St. Louis, MO": "stl",
    "Kansas City, MO": "mci",
    "New Orleans, LA": "msy",
    "Portland, OR": "pdx",
    "San Diego, CA": "san",
    "Austin, TX": "aus",
    "San Antonio, TX": "sat",
}

#: All cities, in dataset order.
CITIES: Tuple[City, ...] = tuple(City(*row) for row in _RAW)

_BY_KEY: Dict[str, City] = {c.key: c for c in CITIES}
if len(_BY_KEY) != len(CITIES):
    raise RuntimeError("duplicate city keys in dataset")

_CODES: Dict[str, str] = {}
_TAKEN: Dict[str, str] = {}
# Reserve the hand-picked codes first so derived codes can never shadow them.
for _key, _code in _CODE_OVERRIDES.items():
    if _key not in _BY_KEY:
        raise RuntimeError(f"code override for unknown city: {_key}")
    if _code in _TAKEN:
        raise RuntimeError(f"city code collision in overrides: {_code}")
    _TAKEN[_code] = _key
    _CODES[_key] = _code
for _city in CITIES:
    if _city.key in _CODES:
        continue
    _code = _derive_code(_city.name, _city.state, _TAKEN)
    if _code in _TAKEN:
        raise RuntimeError(f"city code collision: {_code}")
    _TAKEN[_code] = _city.key
    _CODES[_city.key] = _code

_BY_CODE: Dict[str, City] = {code: _BY_KEY[key] for code, key in _TAKEN.items()}


def register_cities(cities: Iterable[City]) -> List[City]:
    """Register extension cities (e.g. submarine-cable landing stations).

    Added cities join the lookup tables — ``city_by_name`` (by full
    ``"Name, CC"`` key), ``city_by_code``, and therefore router
    naming-hint decoding — but **not** the base :data:`CITIES` tuple, so
    the US map-construction pools, population thresholds, and the
    geolocation candidate sets are byte-identical with or without any
    extension registered.  Codes are derived with the same deterministic
    collision-handling scheme as the base dataset.

    Idempotent: re-registering an identical city is a no-op; registering
    a different city under an existing key raises ``ValueError``.
    """
    added: List[City] = []
    for city in cities:
        existing = _BY_KEY.get(city.key)
        if existing is not None:
            if existing != city:
                raise ValueError(
                    f"city {city.key!r} already registered with "
                    f"different data"
                )
            added.append(existing)
            continue
        code = _derive_code(city.name, city.state, _TAKEN)
        _BY_KEY[city.key] = city
        _TAKEN[code] = city.key
        _CODES[city.key] = code
        _BY_CODE[code] = city
        added.append(city)
    return added


class CityTable:
    """Every registered city's row and pairwise great-circle distances,
    compiled once.

    Rows follow registration order, so the base :data:`CITIES` hold rows
    ``0 .. len(CITIES) - 1`` in dataset order and extension cities
    follow.  ``distances[i, j]`` equals ``haversine_km`` of city *i*'s and
    city *j*'s locations bit for bit: the fill runs the scalar formula in
    its exact operation order with ``math`` functions, because numpy's
    array ``sin``/``arcsin`` may differ in the last place and the
    nearest-neighbour choices that read the table break ties at exact
    equality.  The matrix is symmetric (so is the scalar formula) and
    read-only.
    """

    __slots__ = ("keys", "index", "distances")

    def __init__(self, cities: Sequence[City]):
        self.keys: Tuple[str, ...] = tuple(c.key for c in cities)
        self.index: Dict[str, int] = {key: i for i, key in enumerate(self.keys)}
        lats = [c.lat for c in cities]
        lons = [c.lon for c in cities]
        cos = [math.cos(math.radians(lat)) for lat in lats]
        distances = np.zeros((len(cities), len(cities)))
        for i, (lat_i, lon_i, cos_i) in enumerate(zip(lats, lons, cos)):
            row = [0.0] * i
            for j in range(i):
                # haversine_km(city i, city j), operation for operation.
                sin_dphi = math.sin(math.radians(lats[j] - lat_i) / 2.0)
                sin_dlam = math.sin(math.radians(lons[j] - lon_i) / 2.0)
                h = sin_dphi * sin_dphi + cos_i * cos[j] * sin_dlam * sin_dlam
                h = min(1.0, max(0.0, h))
                row[j] = 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))
            distances[i, :i] = row
            distances[:i, i] = row
        distances.setflags(write=False)
        self.distances = distances

    def row(self, key: str) -> np.ndarray:
        """Distances from *key* to every registered city, by row."""
        return self.distances[self.index[key]]

    def submatrix(self, keys: Sequence[str]) -> np.ndarray:
        """The distances among *keys*, indexed by position in *keys*."""
        rows = [self.index[key] for key in keys]
        return self.distances[np.ix_(rows, rows)]


_TABLE: Optional[CityTable] = None
_TABLE_LOCK = threading.Lock()


def city_table() -> CityTable:
    """The compiled distance table over every registered city.

    Filled on first use, and filled again (once) after
    :func:`register_cities` adds cities.
    """
    global _TABLE
    table = _TABLE
    if table is None or len(table.keys) != len(_BY_KEY):
        with _TABLE_LOCK:
            if _TABLE is None or len(_TABLE.keys) != len(_BY_KEY):
                _TABLE = CityTable(list(_BY_KEY.values()))
            table = _TABLE
    return table


def city_by_name(name: str, state: Optional[str] = None) -> City:
    """Look up a city by ``"Name, ST"`` key or by name + state.

    Raises ``KeyError`` (with the ambiguous candidates listed) when a bare
    name matches several states.
    """
    if state is not None:
        return _BY_KEY[f"{name}, {state}"]
    if "," in name:
        return _BY_KEY[name.replace(", ", ",").replace(",", ", ")]
    matches = [c for c in CITIES if c.name == name]
    if not matches:
        raise KeyError(name)
    if len(matches) > 1:
        keys = ", ".join(c.key for c in matches)
        raise KeyError(f"ambiguous city name {name!r}: {keys}")
    return matches[0]


def city_by_code(code: str) -> City:
    """Look up a city by its short code."""
    return _BY_CODE[code]
