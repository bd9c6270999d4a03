"""Published provider maps: what the world gets to see.

§2 distinguishes two kinds of published maps:

* **step-1 maps** (9 providers, Table 1) "include the precise geographic
  locations of all the long-haul routes" — modeled as links with full
  city paths and route geometry.  "Due to varying accuracy of the
  sources, some maps required manual annotation, georeferencing and
  validation" — modeled as a small fraction of links published at
  *coarse* quality (endpoints and straight-line geometry only), which
  step 2 of the pipeline must align to rights-of-way.
* **step-3 maps** (11 providers) "do not contain explicit geocoded
  information ... list only POP-level connectivity" — modeled as links
  with endpoints only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fibermap.elements import FiberMap, Link
from repro.fibermap.synthesis import GroundTruth
from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline
from repro.transport.network import EdgeKey

#: Fraction of a step-1 provider's links published without detailed
#: geometry (scanned raster maps, marketing PDFs, ...).
COARSE_FRACTION = 0.06

#: Link quality levels.
QUALITY_DETAILED = "detailed"
QUALITY_COARSE = "coarse"
QUALITY_ENDPOINTS = "endpoints"


@dataclass(frozen=True)
class PublishedLink:
    """One link as it appears in a provider's published map."""

    isp: str
    endpoints: EdgeKey
    quality: str
    #: Full waypoint city path; only present at detailed quality.
    city_path: Optional[Tuple[str, ...]]
    #: Route geometry; detailed quality only.
    geometry: Optional[Polyline]

    def __post_init__(self) -> None:
        if self.quality not in (QUALITY_DETAILED, QUALITY_COARSE, QUALITY_ENDPOINTS):
            raise ValueError(f"unknown quality: {self.quality}")
        if self.quality == QUALITY_DETAILED and (
            self.city_path is None or self.geometry is None
        ):
            raise ValueError("detailed links need city_path and geometry")


@dataclass(frozen=True)
class ProviderMap:
    """A provider's published long-haul map artifact."""

    isp: str
    step: int
    nodes: Tuple[str, ...]
    links: Tuple[PublishedLink, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)


def _link_geometry(fiber_map: FiberMap, link: Link) -> Polyline:
    """Concatenated conduit geometry along a ground-truth link, built as
    one polyline over the legs' joined points."""
    points: List[GeoPoint] = []
    for (a, b), cid in zip(
        zip(link.city_path, link.city_path[1:]), link.conduit_ids
    ):
        conduit = fiber_map.conduit(cid)
        leg = conduit.geometry.points
        if a != conduit.edge[0]:
            leg = leg[::-1]
        if points and leg[0] != points[-1]:
            raise ValueError("polylines are not contiguous")
        points.extend(leg[1:] if points else leg)
    return Polyline(points)


def publish_provider_maps(
    ground_truth: GroundTruth, seed: int = 7
) -> Dict[str, ProviderMap]:
    """Derive every provider's published map from the ground truth.

    Deterministic given *seed* (which drives only the choice of which
    step-1 links are published coarsely).
    """
    rng = random.Random(seed)
    fiber_map = ground_truth.fiber_map
    result: Dict[str, ProviderMap] = {}
    for profile in ground_truth.profiles:
        links = []
        node_set = set()
        for link in fiber_map.links_of(profile.name):
            node_set.update(link.endpoints)
            if profile.step == 1:
                coarse = rng.random() < COARSE_FRACTION
                if coarse:
                    links.append(
                        PublishedLink(
                            isp=profile.name,
                            endpoints=link.endpoints,
                            quality=QUALITY_COARSE,
                            city_path=None,
                            geometry=None,
                        )
                    )
                else:
                    links.append(
                        PublishedLink(
                            isp=profile.name,
                            endpoints=link.endpoints,
                            quality=QUALITY_DETAILED,
                            city_path=link.city_path,
                            geometry=_link_geometry(fiber_map, link),
                        )
                    )
            else:
                links.append(
                    PublishedLink(
                        isp=profile.name,
                        endpoints=link.endpoints,
                        quality=QUALITY_ENDPOINTS,
                        city_path=None,
                        geometry=None,
                    )
                )
        result[profile.name] = ProviderMap(
            isp=profile.name,
            step=profile.step,
            nodes=tuple(sorted(node_set)),
            links=tuple(links),
        )
    return result
