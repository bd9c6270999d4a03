"""Transportation corridors: the rights-of-way of the physical Internet.

The paper compares conduit geography against the NationalAtlas roadway and
railway layers (Figures 2 and 3) and notes that the remaining conduits
follow other rights-of-way such as refined-product and NGL pipelines
(Figure 5, §3).  This module encodes the macro-structure of those layers:
each corridor is an ordered list of city waypoints along a real interstate
highway, principal rail main line, or long-haul pipeline.

The encoding is coarse (city-to-city great-circle legs) but preserves what
matters for the paper's analyses: which city pairs are reachable along
which kind of right-of-way, and roughly how long each route is.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.data.cities import CITIES, city_by_name, city_table

#: Infrastructure kinds (Figure 2 = road, Figure 3 = rail, Figure 5 = pipeline).
#: ``sea`` is the submarine-cable extension: a corridor between two
#: landing-station cities whose "right-of-way" is the cable route itself
#: (map families beyond the US long-haul plant use it; no US corridor does).
KIND_ROAD = "road"
KIND_RAIL = "rail"
KIND_PIPELINE = "pipeline"
KIND_SEA = "sea"
KINDS = (KIND_ROAD, KIND_RAIL, KIND_PIPELINE, KIND_SEA)


#: Corridor grades: primary corridors are interstates / class-1 rail /
#: trunk pipelines; secondary corridors are the dense US-route and state
#: highway grid that regional spurs follow.
GRADE_PRIMARY = "primary"
GRADE_SECONDARY = "secondary"


@dataclass(frozen=True)
class Corridor:
    """One named right-of-way through an ordered list of city waypoints."""

    name: str
    kind: str
    waypoints: Tuple[str, ...]
    grade: str = GRADE_PRIMARY

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown corridor kind: {self.kind}")
        if self.grade not in (GRADE_PRIMARY, GRADE_SECONDARY):
            raise ValueError(f"unknown corridor grade: {self.grade}")
        if len(self.waypoints) < 2:
            raise ValueError(f"corridor {self.name} needs >= 2 waypoints")

    def edges(self) -> List[Tuple[str, str]]:
        """Consecutive waypoint pairs (the ROW graph edges)."""
        return list(zip(self.waypoints, self.waypoints[1:]))


def _c(name: str, kind: str, *waypoints: str) -> Corridor:
    return Corridor(name=name, kind=kind, waypoints=tuple(waypoints))


# ---------------------------------------------------------------------------
# Interstate highways (roadway layer, Figure 2)
# ---------------------------------------------------------------------------
_ROADS: List[Corridor] = [
    _c("I-5", KIND_ROAD,
       "Seattle, WA", "Tacoma, WA", "Olympia, WA", "Vancouver, WA",
       "Portland, OR", "Salem, OR", "Eugene, OR", "Medford, OR",
       "Redding, CA", "Sacramento, CA", "Stockton, CA", "Bakersfield, CA",
       "Los Angeles, CA", "Anaheim, CA", "San Diego, CA"),
    _c("CA-99", KIND_ROAD,
       "Sacramento, CA", "Stockton, CA", "Modesto, CA", "Fresno, CA",
       "Bakersfield, CA"),
    _c("US-101", KIND_ROAD,
       "San Francisco, CA", "Palo Alto, CA", "San Jose, CA", "Salinas, CA",
       "San Luis Obispo, CA", "Santa Maria, CA", "Lompoc, CA",
       "Santa Barbara, CA", "Los Angeles, CA"),
    _c("I-80", KIND_ROAD,
       "San Francisco, CA", "Oakland, CA", "Sacramento, CA", "Truckee, CA",
       "Reno, NV", "Winnemucca, NV", "Elko, NV", "Wells, NV", "Wendover, UT",
       "Salt Lake City, UT", "Evanston, WY", "Rock Springs, WY",
       "Rawlins, WY", "Laramie, WY", "Cheyenne, WY", "North Platte, NE",
       "Grand Island, NE", "Lincoln, NE", "Omaha, NE", "Des Moines, IA",
       "Iowa City, IA", "Davenport, IA", "Chicago, IL", "South Bend, IN",
       "Toledo, OH", "Cleveland, OH", "Youngstown, OH", "Scranton, PA",
       "Newark, NJ", "New York, NY"),
    _c("I-90", KIND_ROAD,
       "Seattle, WA", "Ellensburg, WA", "Ritzville, WA", "Spokane, WA",
       "Coeur d'Alene, ID", "Missoula, MT", "Butte, MT", "Bozeman, MT",
       "Billings, MT", "Sheridan, WY", "Rapid City, SD", "Sioux Falls, SD",
       "Rochester, MN", "La Crosse, WI", "Madison, WI", "Rockford, IL",
       "Chicago, IL"),
    _c("I-90-East", KIND_ROAD,
       "Chicago, IL", "South Bend, IN", "Toledo, OH", "Cleveland, OH",
       "Erie, PA", "Buffalo, NY", "Rochester, NY", "Syracuse, NY",
       "Utica, NY", "Albany, NY", "Springfield, MA", "Worcester, MA",
       "Boston, MA"),
    _c("I-10", KIND_ROAD,
       "Los Angeles, CA", "San Bernardino, CA", "Palm Springs, CA",
       "Blythe, CA", "Phoenix, AZ", "Tucson, AZ", "Las Cruces, NM",
       "El Paso, TX", "San Angelo, TX", "San Antonio, TX", "Houston, TX",
       "Beaumont, TX", "Lake Charles, LA", "Lafayette, LA",
       "Baton Rouge, LA", "New Orleans, LA", "Gulfport, MS", "Mobile, AL",
       "Pensacola, FL", "Tallahassee, FL", "Jacksonville, FL"),
    _c("I-40", KIND_ROAD,
       "Barstow, CA", "Needles, CA", "Kingman, AZ", "Flagstaff, AZ",
       "Gallup, NM", "Albuquerque, NM", "Tucumcari, NM", "Amarillo, TX",
       "Oklahoma City, OK", "Fort Smith, AR", "Little Rock, AR",
       "Memphis, TN", "Jackson, TN", "Nashville, TN", "Knoxville, TN",
       "Asheville, NC", "Winston-Salem, NC", "Greensboro, NC",
       "Durham, NC", "Raleigh, NC", "Wilmington, NC"),
    _c("I-70", KIND_ROAD,
       "Provo, UT", "Green River, UT", "Grand Junction, CO",
       "Glenwood Springs, CO", "Denver, CO", "Limon, CO", "Hays, KS",
       "Salina, KS", "Topeka, KS", "Kansas City, MO", "Columbia, MO",
       "St. Louis, MO", "Effingham, IL", "Terre Haute, IN",
       "Indianapolis, IN", "Dayton, OH", "Columbus, OH", "Pittsburgh, PA",
       "Frederick, MD", "Baltimore, MD"),
    _c("I-15", KIND_ROAD,
       "San Diego, CA", "Riverside, CA", "San Bernardino, CA",
       "Barstow, CA", "Las Vegas, NV", "St. George, UT", "Provo, UT",
       "Salt Lake City, UT", "Ogden, UT", "Pocatello, ID",
       "Idaho Falls, ID", "Butte, MT", "Helena, MT", "Great Falls, MT"),
    _c("I-25", KIND_ROAD,
       "Las Cruces, NM", "Albuquerque, NM", "Santa Fe, NM", "Pueblo, CO",
       "Colorado Springs, CO", "Denver, CO", "Fort Collins, CO",
       "Cheyenne, WY", "Casper, WY", "Sheridan, WY", "Billings, MT"),
    _c("I-35", KIND_ROAD,
       "Laredo, TX", "San Antonio, TX", "Austin, TX", "Waco, TX",
       "Fort Worth, TX", "Dallas, TX", "Oklahoma City, OK", "Wichita, KS",
       "Topeka, KS", "Kansas City, MO", "Des Moines, IA",
       "Minneapolis, MN", "Duluth, MN"),
    _c("I-95", KIND_ROAD,
       "Miami, FL", "Fort Lauderdale, FL", "Boca Raton, FL",
       "West Palm Beach, FL", "Daytona Beach, FL", "Jacksonville, FL",
       "Savannah, GA", "Raleigh, NC", "Richmond, VA", "Washington, DC",
       "Baltimore, MD", "Towson, MD", "Wilmington, DE",
       "Philadelphia, PA", "Trenton, NJ", "Edison, NJ", "Newark, NJ",
       "New York, NY", "Stamford, CT", "Bridgeport, CT", "New Haven, CT",
       "Providence, RI", "Boston, MA", "Portland, ME"),
    _c("I-20", KIND_ROAD,
       "Midland, TX", "Abilene, TX", "Fort Worth, TX", "Dallas, TX",
       "Tyler, TX", "Shreveport, LA", "Monroe, LA", "Jackson, MS",
       "Meridian, MS", "Birmingham, AL", "Atlanta, GA", "Augusta, GA",
       "Columbia, SC"),
    _c("I-75", KIND_ROAD,
       "Fort Myers, FL", "Sarasota, FL", "Tampa, FL", "Ocala, FL",
       "Gainesville, FL", "Valdosta, GA", "Macon, GA", "Atlanta, GA",
       "Chattanooga, TN", "Knoxville, TN", "Lexington, KY",
       "Cincinnati, OH", "Dayton, OH", "Toledo, OH", "Detroit, MI",
       "Flint, MI", "Saginaw, MI"),
    _c("I-4", KIND_ROAD,
       "Tampa, FL", "Orlando, FL", "Daytona Beach, FL"),
    _c("FL-Turnpike", KIND_ROAD,
       "Ocala, FL", "Orlando, FL", "West Palm Beach, FL", "Miami, FL"),
    _c("I-85", KIND_ROAD,
       "Montgomery, AL", "Columbus, GA", "Atlanta, GA", "Greenville, SC",
       "Charlotte, NC", "Greensboro, NC", "Durham, NC", "Richmond, VA"),
    _c("I-77", KIND_ROAD,
       "Columbia, SC", "Charlotte, NC", "Charleston, WV", "Akron, OH",
       "Cleveland, OH"),
    _c("I-26", KIND_ROAD,
       "Charleston, SC", "Columbia, SC", "Greenville, SC", "Asheville, NC"),
    _c("I-81", KIND_ROAD,
       "Knoxville, TN", "Bristol, VA", "Roanoke, VA", "Harrisburg, PA",
       "Scranton, PA", "Binghamton, NY", "Syracuse, NY"),
    _c("I-84-West", KIND_ROAD,
       "Portland, OR", "Pendleton, OR", "Ontario, OR", "Boise, ID",
       "Twin Falls, ID", "Pocatello, ID", "Ogden, UT",
       "Salt Lake City, UT"),
    _c("I-84-East", KIND_ROAD,
       "Scranton, PA", "White Plains, NY", "Hartford, CT"),
    _c("I-91", KIND_ROAD,
       "New Haven, CT", "Hartford, CT", "Springfield, MA",
       "Burlington, VT"),
    _c("I-93", KIND_ROAD,
       "Boston, MA", "Manchester, NH"),
    _c("I-94", KIND_ROAD,
       "Billings, MT", "Miles City, MT", "Bismarck, ND", "Fargo, ND",
       "St. Cloud, MN", "Minneapolis, MN", "Eau Claire, WI",
       "Madison, WI", "Milwaukee, WI", "Chicago, IL", "Gary, IN",
       "Kalamazoo, MI", "Battle Creek, MI", "Ann Arbor, MI",
       "Detroit, MI"),
    _c("I-69", KIND_ROAD,
       "Indianapolis, IN", "Fort Wayne, IN", "Lansing, MI", "Flint, MI"),
    _c("I-96", KIND_ROAD,
       "Detroit, MI", "Livonia, MI", "Lansing, MI", "Grand Rapids, MI"),
    _c("I-196", KIND_ROAD,
       "Battle Creek, MI", "Lansing, MI"),
    _c("M-10", KIND_ROAD,
       "Detroit, MI", "Southfield, MI", "Livonia, MI"),
    _c("I-44", KIND_ROAD,
       "Wichita Falls, TX", "Lawton, OK", "Oklahoma City, OK",
       "Tulsa, OK", "Joplin, MO", "Springfield, MO", "St. Louis, MO"),
    _c("I-45", KIND_ROAD,
       "Galveston, TX", "Houston, TX", "Dallas, TX"),
    _c("TX-6", KIND_ROAD,
       "Houston, TX", "Bryan, TX", "Waco, TX"),
    _c("US-287", KIND_ROAD,
       "Fort Worth, TX", "Wichita Falls, TX", "Amarillo, TX"),
    _c("I-27", KIND_ROAD,
       "Lubbock, TX", "Amarillo, TX"),
    _c("US-87", KIND_ROAD,
       "San Angelo, TX", "Lubbock, TX"),
    _c("I-37", KIND_ROAD,
       "San Antonio, TX", "Corpus Christi, TX"),
    _c("US-77", KIND_ROAD,
       "Corpus Christi, TX", "McAllen, TX"),
    _c("I-55", KIND_ROAD,
       "New Orleans, LA", "Jackson, MS", "Memphis, TN", "St. Louis, MO",
       "Springfield, IL", "Bloomington, IL", "Chicago, IL"),
    _c("I-57", KIND_ROAD,
       "Chicago, IL", "Champaign, IL", "Effingham, IL"),
    _c("I-74", KIND_ROAD,
       "Davenport, IA", "Peoria, IL", "Bloomington, IL", "Champaign, IL",
       "Urbana, IL", "Indianapolis, IN", "Cincinnati, OH"),
    _c("I-65", KIND_ROAD,
       "Mobile, AL", "Montgomery, AL", "Birmingham, AL", "Huntsville, AL",
       "Nashville, TN", "Bowling Green, KY", "Louisville, KY",
       "Indianapolis, IN", "Gary, IN", "Chicago, IL"),
    _c("I-71", KIND_ROAD,
       "Louisville, KY", "Cincinnati, OH", "Columbus, OH",
       "Cleveland, OH"),
    _c("I-64", KIND_ROAD,
       "St. Louis, MO", "Evansville, IN", "Louisville, KY",
       "Lexington, KY", "Charleston, WV", "Richmond, VA", "Norfolk, VA"),
    _c("I-76-West", KIND_ROAD,
       "Denver, CO", "North Platte, NE"),
    _c("I-76-East", KIND_ROAD,
       "Philadelphia, PA", "Allentown, PA", "Harrisburg, PA",
       "Pittsburgh, PA", "Youngstown, OH", "Akron, OH"),
    _c("I-78", KIND_ROAD,
       "New York, NY", "Newark, NJ", "Allentown, PA", "Harrisburg, PA"),
    _c("I-17", KIND_ROAD,
       "Phoenix, AZ", "Camp Verde, AZ", "Flagstaff, AZ"),
    _c("AZ-89A", KIND_ROAD,
       "Camp Verde, AZ", "Sedona, AZ", "Flagstaff, AZ"),
    _c("I-8", KIND_ROAD,
       "San Diego, CA", "Yuma, AZ", "Phoenix, AZ"),
    _c("I-29", KIND_ROAD,
       "Kansas City, MO", "Council Bluffs, IA", "Omaha, NE",
       "Sioux Falls, SD", "Fargo, ND", "Grand Forks, ND"),
    _c("US-95", KIND_ROAD,
       "Las Vegas, NV", "Tonopah, NV", "Reno, NV"),
    _c("US-93", KIND_ROAD,
       "Las Vegas, NV", "Kingman, AZ", "Phoenix, AZ"),
    _c("US-6", KIND_ROAD,
       "Las Vegas, NV", "St. George, UT", "Green River, UT"),
    _c("US-285", KIND_ROAD,
       "El Paso, TX", "Roswell, NM", "Santa Fe, NM"),
    _c("US-87-North", KIND_ROAD,
       "Lubbock, TX", "Roswell, NM"),
    _c("US-83", KIND_ROAD,
       "Laredo, TX", "McAllen, TX"),
    _c("I-59", KIND_ROAD,
       "New Orleans, LA", "Gulfport, MS", "Hattiesburg, MS", "Laurel, MS",
       "Meridian, MS", "Birmingham, AL", "Chattanooga, TN"),
    _c("US-90", KIND_ROAD,
       "Jacksonville, FL", "Tallahassee, FL", "Pensacola, FL"),
    _c("I-16", KIND_ROAD,
       "Macon, GA", "Savannah, GA"),
    _c("I-24", KIND_ROAD,
       "Nashville, TN", "Chattanooga, TN"),
    _c("I-30", KIND_ROAD,
       "Dallas, TX", "Texarkana, TX", "Little Rock, AR"),
    _c("US-59", KIND_ROAD,
       "Houston, TX", "Tyler, TX", "Texarkana, TX"),
    _c("I-39", KIND_ROAD,
       "Rockford, IL", "Madison, WI", "Wausau, WI"),
    _c("US-51", KIND_ROAD,
       "Wausau, WI", "Eau Claire, WI", "Duluth, MN"),
    _c("US-2", KIND_ROAD,
       "Duluth, MN", "Grand Forks, ND"),
    _c("I-43", KIND_ROAD,
       "Milwaukee, WI", "Green Bay, WI"),
    _c("US-41", KIND_ROAD,
       "Green Bay, WI", "Wausau, WI"),
    _c("I-94-West", KIND_ROAD,
       "Minneapolis, MN", "St. Paul, MN", "Eau Claire, WI"),
    _c("US-52", KIND_ROAD,
       "Minneapolis, MN", "Rochester, MN", "La Crosse, WI"),
    _c("I-35W", KIND_ROAD,
       "Minneapolis, MN", "St. Paul, MN"),
    _c("US-12", KIND_ROAD,
       "Miles City, MT", "Rapid City, SD", "Pierre, SD",
       "Sioux Falls, SD"),
    _c("US-20", KIND_ROAD,
       "Boise, ID", "Idaho Falls, ID"),
    _c("US-26", KIND_ROAD,
       "Idaho Falls, ID", "Casper, WY"),
    _c("US-30", KIND_ROAD,
       "Pocatello, ID", "Twin Falls, ID"),
    _c("US-191", KIND_ROAD,
       "Bozeman, MT", "Idaho Falls, ID"),
    _c("I-86", KIND_ROAD,
       "Binghamton, NY", "Erie, PA"),
    _c("US-219", KIND_ROAD,
       "Buffalo, NY", "Pittsburgh, PA"),
    _c("US-15", KIND_ROAD,
       "Harrisburg, PA", "Frederick, MD", "Washington, DC"),
    _c("US-29", KIND_ROAD,
       "Washington, DC", "Ashburn, VA", "Charlottesville, VA",
       "Lynchburg, VA", "Greensboro, NC"),
    _c("I-66", KIND_ROAD,
       "Washington, DC", "Ashburn, VA"),
    _c("I-64-VA", KIND_ROAD,
       "Richmond, VA", "Charlottesville, VA"),
    _c("US-460", KIND_ROAD,
       "Lynchburg, VA", "Roanoke, VA"),
    _c("US-58", KIND_ROAD,
       "Norfolk, VA", "Raleigh, NC"),
    _c("I-40-OKC-AMA", KIND_ROAD,
       "Oklahoma City, OK", "Amarillo, TX"),
    _c("US-54", KIND_ROAD,
       "Wichita, KS", "Dodge City, KS", "Tucumcari, NM"),
    _c("US-50", KIND_ROAD,
       "Salina, KS", "Hays, KS", "Pueblo, CO"),
    _c("US-400", KIND_ROAD,
       "Wichita, KS", "Salina, KS"),
    _c("US-412", KIND_ROAD,
       "Tulsa, OK", "Fort Smith, AR"),
    _c("I-49", KIND_ROAD,
       "Texarkana, TX", "Shreveport, LA", "Lafayette, LA"),
    _c("US-61", KIND_ROAD,
       "New Orleans, LA", "Baton Rouge, LA", "Jackson, MS"),
    _c("US-165", KIND_ROAD,
       "Monroe, LA", "Baton Rouge, LA"),
    _c("US-49", KIND_ROAD,
       "Jackson, MS", "Hattiesburg, MS", "Gulfport, MS"),
    _c("I-22", KIND_ROAD,
       "Memphis, TN", "Birmingham, AL"),
    _c("I-20-W-Texas", KIND_ROAD,
       "El Paso, TX", "Midland, TX"),
    _c("US-82", KIND_ROAD,
       "Lubbock, TX", "Wichita Falls, TX"),
    _c("I-35-Duluth", KIND_ROAD,
       "St. Paul, MN", "Duluth, MN"),
    _c("US-101-North", KIND_ROAD,
       "San Francisco, CA", "Eureka, CA"),
    _c("I-580", KIND_ROAD,
       "Oakland, CA", "Stockton, CA"),
    _c("I-680", KIND_ROAD,
       "San Jose, CA", "Oakland, CA"),
    _c("US-50-NV", KIND_ROAD,
       "Sacramento, CA", "Reno, NV"),
    _c("CA-152", KIND_ROAD,
       "San Jose, CA", "Fresno, CA"),
    _c("CA-58", KIND_ROAD,
       "Bakersfield, CA", "Barstow, CA"),
    _c("CA-14", KIND_ROAD,
       "Los Angeles, CA", "Bakersfield, CA"),
    _c("CA-1", KIND_ROAD,
       "Santa Cruz, CA", "Salinas, CA"),
    _c("CA-17", KIND_ROAD,
       "San Jose, CA", "Santa Cruz, CA"),
    _c("US-97", KIND_ROAD,
       "Bend, OR", "Yakima, WA", "Ellensburg, WA"),
    _c("US-97-South", KIND_ROAD,
       "Medford, OR", "Bend, OR"),
    _c("OR-22", KIND_ROAD,
       "Salem, OR", "Bend, OR"),
    _c("I-82", KIND_ROAD,
       "Ellensburg, WA", "Yakima, WA", "Kennewick, WA", "Pendleton, OR"),
    _c("US-395", KIND_ROAD,
       "Kennewick, WA", "Ritzville, WA", "Spokane, WA"),
    _c("I-5-North", KIND_ROAD,
       "Seattle, WA", "Bellingham, WA"),
    _c("US-2-West", KIND_ROAD,
       "Spokane, WA", "Great Falls, MT"),
    _c("MT-200", KIND_ROAD,
       "Great Falls, MT", "Billings, MT"),
    _c("I-90-ID", KIND_ROAD,
       "Coeur d'Alene, ID", "Missoula, MT"),
    _c("US-93-MT", KIND_ROAD,
       "Missoula, MT", "Helena, MT"),
    _c("I-15-MT", KIND_ROAD,
       "Helena, MT", "Great Falls, MT"),
    _c("US-287-MT", KIND_ROAD,
       "Bozeman, MT", "Helena, MT"),
]

# ---------------------------------------------------------------------------
# Principal rail main lines (railway layer, Figure 3)
# ---------------------------------------------------------------------------
_RAILS: List[Corridor] = [
    _c("BNSF-Transcon", KIND_RAIL,
       "Los Angeles, CA", "Barstow, CA", "Needles, CA", "Kingman, AZ",
       "Flagstaff, AZ", "Gallup, NM", "Albuquerque, NM", "Amarillo, TX",
       "Wichita, KS", "Kansas City, MO", "Chicago, IL"),
    _c("UP-Overland", KIND_RAIL,
       "Oakland, CA", "Sacramento, CA", "Truckee, CA", "Reno, NV",
       "Winnemucca, NV", "Elko, NV", "Wells, NV", "Ogden, UT",
       "Evanston, WY", "Rock Springs, WY", "Rawlins, WY", "Laramie, WY",
       "Cheyenne, WY", "North Platte, NE", "Grand Island, NE",
       "Omaha, NE", "Cedar Rapids, IA", "Davenport, IA", "Chicago, IL"),
    _c("UP-Sunset", KIND_RAIL,
       "Los Angeles, CA", "Palm Springs, CA", "Yuma, AZ", "Tucson, AZ",
       "Las Cruces, NM", "El Paso, TX", "San Antonio, TX", "Houston, TX",
       "Beaumont, TX", "Lafayette, LA", "New Orleans, LA"),
    _c("BNSF-Northern", KIND_RAIL,
       "Seattle, WA", "Yakima, WA", "Kennewick, WA", "Spokane, WA",
       "Missoula, MT", "Helena, MT", "Bozeman, MT", "Billings, MT",
       "Miles City, MT", "Bismarck, ND", "Fargo, ND", "St. Cloud, MN",
       "Minneapolis, MN"),
    _c("CSX-Atlantic", KIND_RAIL,
       "New York, NY", "Philadelphia, PA", "Baltimore, MD",
       "Washington, DC", "Richmond, VA", "Savannah, GA",
       "Jacksonville, FL", "Orlando, FL", "West Palm Beach, FL",
       "Miami, FL"),
    _c("NS-Crescent", KIND_RAIL,
       "Washington, DC", "Charlottesville, VA", "Lynchburg, VA",
       "Greensboro, NC", "Charlotte, NC", "Atlanta, GA",
       "Birmingham, AL", "Meridian, MS", "Laurel, MS",
       "Hattiesburg, MS", "New Orleans, LA"),
    _c("NYC-WaterLevel", KIND_RAIL,
       "New York, NY", "Albany, NY", "Utica, NY", "Syracuse, NY",
       "Rochester, NY", "Buffalo, NY", "Erie, PA", "Cleveland, OH",
       "Toledo, OH", "Chicago, IL"),
    _c("PRR-Mainline", KIND_RAIL,
       "Philadelphia, PA", "Harrisburg, PA", "Pittsburgh, PA",
       "Fort Wayne, IN", "Chicago, IL"),
    _c("DRGW-Central", KIND_RAIL,
       "Denver, CO", "Glenwood Springs, CO", "Grand Junction, CO",
       "Green River, UT", "Provo, UT", "Salt Lake City, UT"),
    _c("WP-Feather", KIND_RAIL,
       "Oakland, CA", "Sacramento, CA", "Chico, CA", "Winnemucca, NV",
       "Elko, NV", "Wendover, UT", "Salt Lake City, UT"),
    _c("KCS-Mainline", KIND_RAIL,
       "Kansas City, MO", "Joplin, MO", "Texarkana, TX",
       "Shreveport, LA", "Baton Rouge, LA", "New Orleans, LA"),
    _c("UP-Cascade", KIND_RAIL,
       "Seattle, WA", "Tacoma, WA", "Portland, OR", "Salem, OR",
       "Eugene, OR", "Chico, CA", "Sacramento, CA"),
    _c("CN-IllinoisCentral", KIND_RAIL,
       "Chicago, IL", "Champaign, IL", "Memphis, TN", "Jackson, MS",
       "New Orleans, LA"),
    _c("UP-GoldenState", KIND_RAIL,
       "St. Louis, MO", "Little Rock, AR", "Texarkana, TX", "Dallas, TX",
       "El Paso, TX"),
    _c("BNSF-Midcon", KIND_RAIL,
       "Fort Worth, TX", "Wichita Falls, TX", "Amarillo, TX",
       "Tucumcari, NM", "Albuquerque, NM"),
    _c("UP-KP", KIND_RAIL,
       "Kansas City, MO", "Topeka, KS", "Salina, KS", "Hays, KS",
       "Limon, CO", "Denver, CO"),
    _c("BNSF-Brush", KIND_RAIL,
       "Denver, CO", "North Platte, NE", "Lincoln, NE", "Omaha, NE"),
    _c("UP-LA-SLC", KIND_RAIL,
       "Los Angeles, CA", "San Bernardino, CA", "Barstow, CA",
       "Las Vegas, NV", "St. George, UT", "Provo, UT",
       "Salt Lake City, UT"),
    _c("MRL-Montana", KIND_RAIL,
       "Spokane, WA", "Missoula, MT", "Butte, MT", "Bozeman, MT",
       "Billings, MT"),
    _c("UP-OR-Line", KIND_RAIL,
       "Portland, OR", "Pendleton, OR", "Ontario, OR", "Boise, ID",
       "Pocatello, ID", "Ogden, UT"),
    _c("NS-Southern", KIND_RAIL,
       "Atlanta, GA", "Chattanooga, TN", "Nashville, TN",
       "Louisville, KY", "Cincinnati, OH", "Dayton, OH", "Toledo, OH",
       "Detroit, MI"),
    _c("CSX-Southeastern", KIND_RAIL,
       "Nashville, TN", "Memphis, TN", "Jackson, TN"),
    _c("FEC-Florida", KIND_RAIL,
       "Jacksonville, FL", "Daytona Beach, FL", "West Palm Beach, FL",
       "Boca Raton, FL", "Fort Lauderdale, FL", "Miami, FL"),
    _c("CSX-Florida", KIND_RAIL,
       "Jacksonville, FL", "Gainesville, FL", "Ocala, FL", "Tampa, FL"),
    _c("NS-Midwest", KIND_RAIL,
       "Chicago, IL", "Gary, IN", "South Bend, IN", "Fort Wayne, IN",
       "Columbus, OH", "Pittsburgh, PA", "Harrisburg, PA",
       "Allentown, PA", "New York, NY"),
    _c("Amtrak-Michigan", KIND_RAIL,
       "Chicago, IL", "Kalamazoo, MI", "Battle Creek, MI",
       "Lansing, MI", "Flint, MI"),
    _c("CN-Michigan", KIND_RAIL,
       "Battle Creek, MI", "Lansing, MI", "Flint, MI"),
    _c("UP-StL-Chi", KIND_RAIL,
       "St. Louis, MO", "Springfield, IL", "Bloomington, IL",
       "Chicago, IL"),
    _c("BNSF-TwinCities", KIND_RAIL,
       "Chicago, IL", "Milwaukee, WI", "La Crosse, WI",
       "Minneapolis, MN"),
    _c("UP-Spine", KIND_RAIL,
       "Minneapolis, MN", "Des Moines, IA", "Kansas City, MO",
       "Tulsa, OK", "Dallas, TX"),
    _c("UP-Austin", KIND_RAIL,
       "Dallas, TX", "Waco, TX", "Austin, TX", "San Antonio, TX",
       "Laredo, TX"),
    _c("UP-Houston", KIND_RAIL,
       "Dallas, TX", "Houston, TX", "Galveston, TX"),
]

# ---------------------------------------------------------------------------
# Long-haul pipelines (the paper's Figure 5 / "other rights-of-way" [56])
# ---------------------------------------------------------------------------
_PIPELINES: List[Corridor] = [
    # CalNev refined-products pipeline: explains the Anaheim–Las Vegas link.
    _c("CalNev-Products", KIND_PIPELINE,
       "Anaheim, CA", "San Bernardino, CA", "Barstow, CA",
       "Las Vegas, NV"),
    # Dixie NGL pipeline: explains the Houston–Atlanta link and the
    # Laurel, MS right-of-way of Figure 5.
    _c("Dixie-NGL", KIND_PIPELINE,
       "Houston, TX", "Baton Rouge, LA", "Hattiesburg, MS", "Laurel, MS",
       "Meridian, MS", "Birmingham, AL", "Atlanta, GA"),
    # Rockies Express (REX) natural-gas pipeline.
    _c("REX-Gas", KIND_PIPELINE,
       "Cheyenne, WY", "North Platte, NE", "Lincoln, NE",
       "St. Louis, MO", "Indianapolis, IN", "Dayton, OH"),
    # Colonial products pipeline along the southeast seaboard.
    _c("Colonial-Products", KIND_PIPELINE,
       "Houston, TX", "Lake Charles, LA", "Baton Rouge, LA",
       "Birmingham, AL", "Atlanta, GA", "Charlotte, NC",
       "Greensboro, NC", "Richmond, VA", "Washington, DC"),
    # Transcontinental gas pipeline spur into west Texas.
    _c("Permian-Gas", KIND_PIPELINE,
       "El Paso, TX", "Midland, TX", "San Angelo, TX", "Houston, TX"),
]

#: All corridors in one tuple.
CORRIDORS: Tuple[Corridor, ...] = tuple(_ROADS + _RAILS + _PIPELINES)

# Validate every waypoint against the city dataset at import time.
for _corridor in CORRIDORS:
    for _key in _corridor.waypoints:
        city_by_name(_key)

_names = [c.name for c in CORRIDORS]
if len(set(_names)) != len(_names):
    raise RuntimeError("duplicate corridor names")


@functools.lru_cache(maxsize=None)
def secondary_road_corridors(
    max_km: float = 230.0,
    probability: float = 0.5,
) -> Tuple[Corridor, ...]:
    """The dense US-route / state-highway grid, generated deterministically.

    The NationalAtlas roadway layer (Figure 2) is far denser than the
    interstate system; regional fiber spurs routinely follow US routes
    and state highways.  For every city pair closer than *max_km* with no
    primary corridor between them, a secondary road corridor exists with
    the given *probability*, decided by a stable hash of the pair (so the
    grid is identical across runs and independent of call order).

    A pure function of constants, built once per process: the distance
    test reads the compiled city table, and only pairs within *max_km*
    are hashed.
    """
    primary_edges = set()
    for corridor in CORRIDORS:
        for a, b in corridor.edges():
            primary_edges.add(frozenset((a, b)))

    def pair_unit(a_key: str, b_key: str) -> float:
        token = f"secondary|{min(a_key, b_key)}|{max(a_key, b_key)}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    result: List[Corridor] = []
    cities = sorted(CITIES, key=lambda c: c.key)
    distances = city_table().submatrix([c.key for c in cities])
    # Row-major over the upper triangle: the (i < j) pair order.
    near_i, near_j = np.nonzero(np.triu(distances <= max_km, k=1))
    for i, j in zip(near_i.tolist(), near_j.tolist()):
        a, b = cities[i], cities[j]
        if frozenset((a.key, b.key)) in primary_edges:
            continue
        if pair_unit(a.key, b.key) >= probability:
            continue
        name = f"SR:{a.code}-{b.code}"
        result.append(
            Corridor(
                name=name,
                kind=KIND_ROAD,
                waypoints=(a.key, b.key),
                grade=GRADE_SECONDARY,
            )
        )
    return tuple(result)
