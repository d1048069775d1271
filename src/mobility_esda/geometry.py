"""Region polygon geometry and GeoJSON loading."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DataError, GeometryError

Point = tuple[float, float]
Ring = list[Point]


@dataclass
class RegionGeometry:
    region_id: str
    rings: list[Ring]  # all rings of all polygons, each closed
    # (min x, min y, max x, max y) over every ring point, set once on construction
    bbox: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rings:
            raise GeometryError(f"{self.region_id}: geometry has no rings")
        for ring in self.rings:
            if len(ring) < 4:
                raise GeometryError(
                    f"{self.region_id}: ring with {len(ring)} points (need >= 4)"
                )
            if ring[0] != ring[-1]:
                raise GeometryError(f"{self.region_id}: ring not closed")
        xs = [p[0] for ring in self.rings for p in ring]
        ys = [p[1] for ring in self.rings for p in ring]
        self.bbox = (min(xs), min(ys), max(xs), max(ys))

    def centroid(self) -> Point:
        """Area-weighted centroid over all rings (shoelace formula);
        falls back to the vertex mean for zero-area rings."""
        a_total = cx = cy = 0.0
        for ring in self.rings:
            a = x = y = 0.0
            for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
                cross = x0 * y1 - x1 * y0
                a += cross
                x += (x0 + x1) * cross
                y += (y0 + y1) * cross
            a_total += a / 2
            cx += x / 6
            cy += y / 6
        if a_total == 0:
            pts = [p for ring in self.rings for p in ring[:-1]]
            return (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))
        return (cx / a_total, cy / a_total)


# the types json gives a number; a string or a boolean is no coordinate
_NUMBER = {int, float}


def _point(position) -> Point:
    """x and y of a GeoJSON position; a third number, the altitude, is dropped."""
    if not isinstance(position, (list, tuple)) or len(position) < 2:
        raise TypeError(position)
    x, y = position[0], position[1]
    if type(x) not in _NUMBER or type(y) not in _NUMBER:
        raise TypeError(position)
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(position)
    return x, y


def _rings_from_geometry(rid: str, geom: dict) -> list[Ring]:
    gtype = geom.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        raise GeometryError(f"unsupported geometry type {gtype!r}")
    if "coordinates" not in geom:
        raise GeometryError(f"{rid}: {gtype} has no coordinates")
    polys = [geom["coordinates"]] if gtype == "Polygon" else geom["coordinates"]
    try:
        return [[_point(p) for p in ring] for poly in polys for ring in poly]
    except (TypeError, ValueError, OverflowError):
        raise GeometryError(f"{rid}: malformed coordinates (each position needs finite numeric x, y)") from None


def load_geojson(doc: dict, id_property: str = "region_id") -> list[RegionGeometry]:
    """Polygon features of a parsed GeoJSON FeatureCollection.

    ``id_property`` names the feature property carrying the region id.
    """
    kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
    if kind != "FeatureCollection":
        raise DataError(f"expected FeatureCollection, got {kind!r}")
    features = doc.get("features", [])
    if not isinstance(features, list) or not all(isinstance(f, dict) for f in features):
        raise DataError("features must be a list of feature objects")
    geoms = []
    seen = set()
    for feature in features:
        props = feature.get("properties")
        if props is not None and not isinstance(props, dict):
            raise DataError(f"feature properties must be an object, got {type(props).__name__!r}")
        rid = (props or {}).get(id_property)
        if rid is None:
            raise DataError(f"feature missing id property {id_property!r}")
        rid = str(rid)
        if rid in seen:
            raise DataError(f"duplicate region id {rid!r}")
        seen.add(rid)
        geom = feature.get("geometry")
        if not isinstance(geom, dict):
            raise GeometryError(f"{rid}: feature has no geometry")
        geoms.append(RegionGeometry(rid, _rings_from_geometry(rid, geom)))
    return geoms

