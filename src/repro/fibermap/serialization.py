"""(De)serialization of fiber maps: JSON for exchange, GeoJSON for GIS.

The paper released its map and datasets through a public portal; these
formats are the equivalent artifact for this reproduction.  JSON
round-trips losslessly; GeoJSON exports conduits as LineString features
suitable for any GIS viewer.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.fibermap.elements import FiberMap
from repro.geo.coords import GeoPoint
from repro.geo.polyline import Polyline

FORMAT_VERSION = 1


def fiber_map_to_dict(fiber_map: FiberMap) -> Dict[str, Any]:
    """Lossless dictionary form of a fiber map."""
    return {
        "version": FORMAT_VERSION,
        "conduits": [
            {
                "id": c.conduit_id,
                "edge": list(c.edge),
                "row_id": c.row_id,
                "tenants": sorted(c.tenants),
                "geometry": [[p.lat, p.lon] for p in c.geometry.points],
            }
            for _, c in sorted(fiber_map.conduits.items())
        ],
        "links": [
            {
                "id": l.link_id,
                "isp": l.isp,
                "city_path": list(l.city_path),
                "conduit_ids": list(l.conduit_ids),
            }
            for _, l in sorted(fiber_map.links.items())
        ],
    }


def fiber_map_from_dict(data: Dict[str, Any]) -> FiberMap:
    """Rebuild a fiber map from :func:`fiber_map_to_dict` output."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported fiber map format version: {version}")
    fiber_map = FiberMap()
    extra_tenants: Dict[str, set] = {}
    for cd in data["conduits"]:
        geometry = Polyline(GeoPoint(lat, lon) for lat, lon in cd["geometry"])
        fiber_map.add_conduit(
            cd["edge"][0],
            cd["edge"][1],
            cd["row_id"],
            geometry,
            conduit_id=cd["id"],
        )
        extra_tenants[cd["id"]] = set(cd["tenants"])
    for ld in data["links"]:
        fiber_map.add_link(
            ld["isp"], ld["city_path"], ld["conduit_ids"], link_id=ld["id"]
        )
    # Tenancies that came from records rather than links.
    for conduit_id, tenants in extra_tenants.items():
        for isp in sorted(tenants):
            if isp not in fiber_map.conduit(conduit_id).tenants:
                fiber_map.add_tenant(conduit_id, isp)
    return fiber_map


def fiber_map_to_geojson(
    fiber_map: FiberMap,
    simplify_tolerance_km: float = None,
) -> Dict[str, Any]:
    """GeoJSON FeatureCollection of conduits (LineStrings) and nodes.

    With ``simplify_tolerance_km``, conduit geometry is Douglas-Peucker
    simplified (endpoints preserved) — typically a 3-5x smaller file at
    no visible cost.
    """
    from repro.geo.simplify import simplify_polyline

    features = []
    for _, conduit in sorted(fiber_map.conduits.items()):
        geometry = conduit.geometry
        if simplify_tolerance_km is not None:
            geometry = simplify_polyline(geometry, simplify_tolerance_km)
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    # GeoJSON is lon,lat ordered.
                    "coordinates": [
                        [p.lon, p.lat] for p in geometry.points
                    ],
                },
                "properties": {
                    "conduit_id": conduit.conduit_id,
                    "endpoints": list(conduit.edge),
                    "row_id": conduit.row_id,
                    "tenants": sorted(conduit.tenants),
                    "num_tenants": conduit.num_tenants,
                    "length_km": round(conduit.length_km, 1),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}
