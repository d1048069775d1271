"""Static SVG figures and CSV/GeoJSON exports.

All renderers are pure functions of their inputs: the same inputs always
produce byte-identical SVG, which keeps golden-file and hash-based
regression tests simple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .geometry import RegionGeometry
from .indicator import RadarConfig, radar_radii
from .ingest import csv_field
from .moran import LisaResult

# conventional LISA palettes
CLUSTER_COLORS = {
    "HH": "#d7191c",
    "LL": "#2c7bb6",
    "LH": "#abd9e9",
    "HL": "#fdae61",
    "ns": "#d9d9d9",
}
SIGNIFICANCE_COLORS = {0.05: "#a1d99b", 0.01: "#41ab5d", 0.001: "#00441b", None: "#d9d9d9"}
SERIES_PALETTE = ["#2c7bb6", "#d7191c", "#1a9641", "#fdae61", "#7b3294", "#d01c8b", "#636363"]
BAND_COLOR = "#abd9e9"


@dataclass
class ColorScale:
    stops: list[tuple[float, str]]
    missing_color: str = "#cccccc"

    def __post_init__(self):
        values = [v for v, _ in self.stops]
        if values != sorted(values) or len(set(values)) != len(values):
            raise ParameterError("stops must be strictly increasing in value")
        self._rgb = [_parse_hex(c) for _, c in self.stops]  # parsed once, not per value
        _parse_hex(self.missing_color)

    def color(self, value: float | None) -> str:
        if value is None:
            return self.missing_color
        stops = self.stops
        if value <= stops[0][0]:
            return stops[0][1]
        if value >= stops[-1][0]:
            return stops[-1][1]
        for (v0, _), (v1, _), a, b in zip(stops, stops[1:], self._rgb, self._rgb[1:]):
            if v0 <= value <= v1:
                t = (value - v0) / (v1 - v0)
                return "#%02x%02x%02x" % tuple(round(x + (y - x) * t) for x, y in zip(a, b))
        raise AssertionError("unreachable")


def _parse_hex(c: str) -> tuple[int, int, int]:
    if not (len(c) == 7 and c[0] == "#"):
        raise ParameterError(f"invalid color {c!r}")
    try:
        return int(c[1:3], 16), int(c[3:5], 16), int(c[5:7], 16)
    except ValueError:
        raise ParameterError(f"invalid color {c!r}") from None


@dataclass
class FigureSpec:
    width: int = 640
    height: int = 480
    title: str = ""
    margin: int = 40

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ParameterError("figure dimensions must be positive")


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _svg_open(spec: FigureSpec) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{spec.width // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(spec.title)}</text>'
        )
    return parts


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _legend(spec: FigureSpec, entries: list[tuple[str, str]]) -> list[str]:
    parts = []
    x = spec.width - spec.margin - 110
    y = spec.margin
    for k, (label, color) in enumerate(entries):
        yy = y + 18 * k
        parts.append(f'<rect x="{x}" y="{yy}" width="12" height="12" fill="{color}" stroke="#000000"/>')
        parts.append(
            f'<text x="{x + 18}" y="{yy + 10}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    return parts


def map_paths(geoms: list[RegionGeometry], spec: FigureSpec = FigureSpec()) -> dict[str, str]:
    """SVG path data by region id, in id order, in one projection fitting all
    regions into ``spec``'s frame; every map of that frame reuses it."""
    if not geoms:
        raise DataError("no geometry to draw")
    x0s, y0s, x1s, y1s = zip(*(g.bbox() for g in geoms))
    xs0, ys0 = min(x0s), min(y0s)
    dw = max(max(x1s) - xs0, 1e-12)
    dh = max(max(y1s) - ys0, 1e-12)
    m = spec.margin
    scale = min((spec.width - 2 * m) / dw, (spec.height - 2 * m) / dh)
    return {
        g.region_id: " ".join(
            "M" + " L".join(
                f"{_fmt(m + (x - xs0) * scale)},{_fmt(spec.height - m - (y - ys0) * scale)}"
                for x, y in ring[:-1]
            ) + " Z"
            for ring in g.rings
        )
        for g in sorted(geoms, key=lambda g: g.region_id)
    }


def _map_svg(paths: dict[str, str], fills: dict[str, str], spec: FigureSpec, legend, note=()) -> str:
    parts = _svg_open(spec)
    parts.extend(note)
    for rid, d in paths.items():
        parts.append(f'<path d="{d}" fill="{fills[rid]}" stroke="#333333" stroke-width="0.5"/>')
    parts.extend(_legend(spec, legend))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_choropleth(
    paths: dict[str, str],
    values: dict[str, float | None],
    scale: ColorScale,
    spec: FigureSpec = FigureSpec(),
) -> str:
    """One filled path per region of ``paths`` (:func:`map_paths` in the frame
    of ``spec``), colored via the scale; missing regions get the scale's
    missing color and are listed in a warnings comment."""
    warnings = [rid for rid in values if rid not in paths]
    note = [f"<!-- warning: no geometry for {', '.join(sorted(warnings))} -->"] if warnings else []
    present = [v for v in values.values() if v is not None]
    legend = []
    if present:
        lo, hi = min(present), max(present)
        legend = [(f"min {_fmt(lo)}", scale.color(lo)), (f"max {_fmt(hi)}", scale.color(hi))]
    return _map_svg(paths, {rid: scale.color(values.get(rid)) for rid in paths}, spec, legend, note)


def render_lisa_maps(
    paths: dict[str, str],
    lisa: LisaResult,
    spec: FigureSpec = FigureSpec(),
) -> tuple[str, str]:
    """Cluster map (HH/LL/LH/HL/ns) and significance-tier map of ``paths``
    (:func:`map_paths` in the frame of ``spec``)."""
    by_id = dict(zip(lisa.ids, lisa.labels))
    tiers = dict(zip(lisa.ids, lisa.tiers))
    missing = [rid for rid in paths if rid not in by_id]
    if missing:
        raise DataError(f"no classification for regions: {missing}")
    cluster = {rid: CLUSTER_COLORS[by_id[rid]] for rid in paths}
    signif = {rid: SIGNIFICANCE_COLORS[tiers[rid]] for rid in paths}
    tier_legend = [(f"p <= {t:g}" if t else "ns", c) for t, c in SIGNIFICANCE_COLORS.items()]
    return (
        _map_svg(paths, cluster, spec, list(CLUSTER_COLORS.items())),
        _map_svg(paths, signif, spec, tier_legend),
    )


def render_moran_scatter(scatter: LisaResult, spec: FigureSpec = FigureSpec()) -> str:
    """Moran scatter of (z, lag) with axes through the origin and the
    origin-regression line whose slope is the global index."""
    if len(scatter.z) < 2:
        raise ParameterError("need at least 2 points")
    m = spec.margin
    extent = max(
        1e-9,
        float(np.max(np.abs(scatter.z))),
        float(np.max(np.abs(scatter.lag))),
    ) * 1.1
    half_w = (spec.width - 2 * m) / 2
    half_h = (spec.height - 2 * m) / 2
    cx, cy = m + half_w, m + half_h

    def project(zx, zy):
        return cx + zx / extent * half_w, cy - zy / extent * half_h

    parts = _svg_open(spec)
    parts.append(
        f'<line x1="{_fmt(m)}" y1="{_fmt(cy)}" x2="{_fmt(spec.width - m)}" y2="{_fmt(cy)}" stroke="#000000"/>'
    )
    parts.append(
        f'<line x1="{_fmt(cx)}" y1="{_fmt(m)}" x2="{_fmt(cx)}" y2="{_fmt(spec.height - m)}" stroke="#000000"/>'
    )
    x0, y0 = project(-extent, -extent * scatter.slope)
    x1, y1 = project(extent, extent * scatter.slope)
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        f'stroke="#d7191c" stroke-width="1.5"/>'
    )
    for zi, li in zip(scatter.z, scatter.lag):
        x, y = project(zi, li)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#2c7bb6"/>')
    for label, (qx, qy) in (("Q1", (1, 1)), ("Q2", (-1, -1)), ("Q3", (-1, 1)), ("Q4", (1, -1))):
        x, y = project(qx * extent * 0.85, qy * extent * 0.85)
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# (cos, sin) of each radar spoke, clockwise from the top
_SPOKES = [(math.cos(t), math.sin(t)) for t in (math.radians(90 - 60 * k) for k in range(6))]


def render_radar(
    values: dict[str, float] | np.ndarray,
    config: RadarConfig = RadarConfig(),
    spec: FigureSpec = FigureSpec(width=480, height=480),
) -> str:
    """Hexagonal radar chart of ``values`` (as :func:`radar_radii` takes them):
    axis spokes, the value polygon, and a reference hexagon at the baseline
    (0 percent) radius."""
    radii = radar_radii(values, config)
    baseline_r = -config.center
    max_r = max(baseline_r, float(max(radii)))
    m = spec.margin
    cx, cy = spec.width / 2, spec.height / 2
    plot_r = min(spec.width, spec.height) / 2 - m

    def vertex(k: int, r: float):
        cos, sin = _SPOKES[k]
        return cx + r / max_r * plot_r * cos, cy - r / max_r * plot_r * sin

    parts = _svg_open(spec)
    for k, cat in enumerate(config.axis_order):
        x, y = vertex(k, max_r)
        parts.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(x)}" y2="{_fmt(y)}" stroke="#999999"/>'
        )
        lx, ly = vertex(k, max_r * 1.06)
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_escape(cat)}</text>'
        )
    base_pts = " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in (vertex(k, baseline_r) for k in range(6))
    )
    parts.append(f'<polygon points="{base_pts}" fill="none" stroke="#777777" stroke-dasharray="4 3"/>')
    val_pts = " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in (vertex(k, radii[k]) for k in range(6))
    )
    parts.append(
        f'<polygon points="{val_pts}" fill="#2c7bb6" fill-opacity="0.35" stroke="#2c7bb6"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def quantile_band(values: np.ndarray) -> np.ndarray:
    """The 10 %, 50 % and 90 % quantiles of each column of ``values`` (two or
    more rows), as ``np.quantile``'s ``linear`` method computes them but
    without its ``np.unique`` call, whose first use imports ``numpy.ma``.
    Bit for bit equal to ``np.quantile(values, [0.1, 0.5, 0.9], axis=0)``
    unless a column holds both -0.0 and 0.0: the sort and numpy's partition
    may then put a different zero at the same rank."""
    ranked = np.sort(values, axis=0)
    at = (len(ranked) - 1) * np.array([0.1, 0.5, 0.9])
    k = np.floor(at).astype(np.intp)
    a, b = ranked[k], ranked[k + 1]
    t = (at - k)[:, None]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def render_series(names: list[str], values, spec: FigureSpec = FigureSpec()) -> str:
    """Line plot of a (series, points) panel, one row of ``values`` per name,
    e.g. the daily circulation indicator of several regions. More series than
    ``SERIES_PALETTE`` has colors are drawn as their pointwise median inside
    the band between their 10 % and 90 % quantiles."""
    if not len(names):
        raise ParameterError("no series to plot")
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    m = spec.margin
    span = max(values.shape[1] - 1, 1)
    iw, ih = spec.width - 2 * m, spec.height - 2 * m

    def points(indexed) -> str:
        return " ".join(
            f"{_fmt(m + (i / span) * iw)},{_fmt(spec.height - m - (v - lo) / (hi - lo) * ih)}"
            for i, v in indexed
        )

    parts = _svg_open(spec)
    band_legend = []
    if len(names) > len(SERIES_PALETTE):  # too many lines to tell apart
        low, median, high = quantile_band(values)
        band = [*enumerate(high), *reversed(list(enumerate(low)))]
        parts.append(f'<polygon points="{points(band)}" fill="{BAND_COLOR}" stroke="none"/>')
        band_legend = [("10-90 % band", BAND_COLOR)]
        names, values = [f"median of {len(names)}"], [median]
    legend = []
    for k, color in zip(sorted(range(len(names)), key=names.__getitem__), SERIES_PALETTE):
        pts = points(enumerate(values[k]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        legend.append((names[k], color))
    parts.extend(_legend(spec, legend + band_legend))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def lisa_to_csv(lisa: LisaResult) -> str:
    """Stable-column CSV: region_id, local_i, lag, pseudo_p, quadrant, tier."""
    lines = ["region_id,local_i,lag,pseudo_p,quadrant,tier"]
    columns = (lisa.local_i.tolist(), lisa.lag.tolist(), lisa.pseudo_p.tolist(), lisa.labels, lisa.tiers)
    for rid, local_i, lag, p, label, tier in zip(lisa.ids, *columns):
        tier = "" if tier is None else f"{tier:g}"
        cells = (csv_field(rid), local_i, lag, p, csv_field(label), tier)
        lines.append("%s,%.15g,%.15g,%.15g,%s,%s" % cells)
    return "\n".join(lines) + "\n"


def join_geojson(doc: dict, properties: dict[str, dict], id_property: str = "region_id") -> str:
    """Merge per-region result properties into a GeoJSON document.

    Every key in ``properties`` must match a feature id; unjoinable ids
    are an error so silent mismatches cannot slip through.
    """
    feature_ids = {
        str((f.get("properties") or {}).get(id_property)) for f in doc.get("features", [])
    }
    unjoinable = sorted(set(properties) - feature_ids)
    if unjoinable:
        raise DataError(f"unjoinable region ids: {unjoinable}")
    # shallow copies, and a new properties dict per joined feature, leave doc unchanged
    out = {**doc, "features": [dict(f) for f in doc.get("features", [])]}
    for f in out["features"]:
        rid = str((f.get("properties") or {}).get(id_property))
        if rid in properties:
            f["properties"] = {**f["properties"], **properties[rid]}
    return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"
