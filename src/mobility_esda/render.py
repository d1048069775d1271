"""Static SVG figures and CSV/GeoJSON exports.

All renderers are pure functions of their inputs: the same inputs always
produce byte-identical SVG, which keeps golden-file and hash-based
regression tests simple.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import DataError, ParameterError
from .geometry import RegionGeometry
from .indicator import RadarConfig, radar_radii
from .ingest import csv_field
from .moran import SIGNIFICANCE_TIERS, LisaResult

# conventional LISA palettes
CLUSTER_COLORS = {
    "HH": "#d7191c",
    "LL": "#2c7bb6",
    "LH": "#abd9e9",
    "HL": "#fdae61",
    "ns": "#d9d9d9",
}
# a colour per tier of moran.SIGNIFICANCE_TIERS, then one for ns
SIGNIFICANCE_COLORS = dict(zip((*SIGNIFICANCE_TIERS, None), ("#a1d99b", "#41ab5d", "#00441b", "#d9d9d9"),
                               strict=True))
SERIES_PALETTE = ["#2c7bb6", "#d7191c", "#1a9641", "#fdae61", "#7b3294", "#d01c8b", "#636363"]
BAND_COLOR = "#abd9e9"
# the choropleth's blue ramp: dark at the lowest value, light at the highest
RAMP_LOW, RAMP_HIGH = (0x08, 0x30, 0x6B), (0xDE, 0xEB, 0xF7)  # #08306b, #deebf7
MISSING_COLOR = "#cccccc"
# every figure's frame: maps, the Moran scatter and the series plot are
# WIDTH x HEIGHT, the radar is RADAR_SIZE square; all keep MARGIN clear
WIDTH, HEIGHT = 640, 480
RADAR_SIZE = 480
MARGIN = 40


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _svg(title: str, body: list[str], width: int = WIDTH, height: int = HEIGHT) -> str:
    """The whole document: a white ``width`` x ``height`` frame, ``title``
    centred at its top (if any), then ``body``."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        head.append(
            f'<text x="{width // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _hex(char: re.Match) -> str:
    return f"\\u{ord(char[0]):04x}"


def _escape(text: str) -> str:
    """``text`` as SVG element text: ``&``, ``<`` and ``>`` as entities, and
    each character XML does not allow but a lone surrogate written as its
    ``\\uhhhh`` escape; a lone surrogate is left for the write to refuse
    as not UTF-8."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return re.sub(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", _hex, text)


def _comment(text: str) -> str:
    """An XML comment of ``text``, with each backslash, each ``-`` right after
    a ``-`` and each character XML does not allow written as its ``\\uhhhh``
    escape, so that no text can close or break the comment."""
    unsafe = r"\\|(?<=-)-|[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
    return "<!-- %s -->" % re.sub(unsafe, _hex, text)


def _legend(entries: list[tuple[str, str]]) -> list[str]:
    parts = []
    x = WIDTH - MARGIN - 110
    y = MARGIN
    for k, (label, color) in enumerate(entries):
        yy = y + 18 * k
        parts.append(f'<rect x="{x}" y="{yy}" width="12" height="12" fill="{color}" stroke="#000000"/>')
        parts.append(
            f'<text x="{x + 18}" y="{yy + 10}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    return parts


def map_paths(geoms: list[RegionGeometry]) -> dict[str, str]:
    """SVG path data by region id, in id order, in one projection fitting all
    regions into the map frame; every map reuses it."""
    if not geoms:
        raise DataError("no geometry to draw")
    x0s, y0s, x1s, y1s = zip(*(g.bbox for g in geoms))
    xs0, ys0 = min(x0s), min(y0s)
    dw = max(max(x1s) - xs0, 1e-12)
    dh = max(max(y1s) - ys0, 1e-12)
    m = MARGIN
    scale = min((WIDTH - 2 * m) / dw, (HEIGHT - 2 * m) / dh)
    return {
        g.region_id: " ".join(
            "M" + " L".join(
                f"{_fmt(m + (x - xs0) * scale)},{_fmt(HEIGHT - m - (y - ys0) * scale)}"
                for x, y in ring[:-1]
            ) + " Z"
            for ring in g.rings
        )
        for g in sorted(geoms, key=lambda g: g.region_id)
    }


def _map_svg(paths: dict[str, str], fills: dict[str, str], title: str, legend, note=()) -> str:
    parts = list(note)
    for rid, d in paths.items():
        parts.append(f'<path d="{d}" fill="{fills[rid]}" stroke="#333333" stroke-width="0.5"/>')
    return _svg(title, parts + _legend(legend))


def render_choropleth(
    paths: dict[str, str],
    values: dict[str, float | None],
    title: str = "",
) -> str:
    """One filled path per region of ``paths`` (from :func:`map_paths`), on a
    blue ramp from ``#08306b`` at the lowest value to ``#deebf7`` at the
    highest (all light for a constant field); regions without a value get
    ``MISSING_COLOR`` and value ids without geometry are listed in a warnings
    comment. Values whose spread overflows are a ``DataError``."""
    warnings = [rid for rid in values if rid not in paths]
    note = [_comment(f"warning: no geometry for {', '.join(sorted(warnings))}")] if warnings else []
    present = [v for v in values.values() if v is not None]
    lo, hi = min(present, default=0.0), max(present, default=0.0)
    if not math.isfinite(hi - lo):
        raise DataError("values too large: their spread overflows; no colour ramp spans them")

    def color(v: float | None) -> str:
        if v is None:
            return MISSING_COLOR
        t = (v - lo) / (hi - lo) if lo < hi else 1.0
        return "#%02x%02x%02x" % tuple(round(x + (y - x) * t) for x, y in zip(RAMP_LOW, RAMP_HIGH))

    legend = [(f"min {_fmt(lo)}", color(lo)), (f"max {_fmt(hi)}", color(hi))] if present else []
    return _map_svg(paths, {rid: color(values.get(rid)) for rid in paths}, title, legend, note)


def render_lisa_maps(
    paths: dict[str, str],
    lisa: LisaResult,
    titles: tuple[str, str] = ("", ""),
) -> tuple[str, str]:
    """Cluster map (HH/LL/LH/HL/ns) and significance-tier map of ``paths``
    (from :func:`map_paths`), titled ``titles[0]`` and ``titles[1]``."""
    by_id = dict(zip(lisa.ids, lisa.labels))
    tiers = dict(zip(lisa.ids, lisa.tiers))
    missing = [rid for rid in paths if rid not in by_id]
    if missing:
        raise DataError(f"no classification for regions: {missing}")
    cluster = {rid: CLUSTER_COLORS[by_id[rid]] for rid in paths}
    signif = {rid: SIGNIFICANCE_COLORS[tiers[rid]] for rid in paths}
    tier_legend = [(f"p <= {t:g}" if t else "ns", c) for t, c in SIGNIFICANCE_COLORS.items()]
    return (
        _map_svg(paths, cluster, titles[0], list(CLUSTER_COLORS.items())),
        _map_svg(paths, signif, titles[1], tier_legend),
    )


def render_moran_scatter(scatter: LisaResult, title: str = "") -> str:
    """Moran scatter of (z, lag) with axes through the origin and the
    origin-regression line whose slope is the global index."""
    if len(scatter.z) < 2:
        raise ParameterError("need at least 2 points")
    m = MARGIN
    extent = max(
        1e-9,
        float(np.max(np.abs(scatter.z))),
        float(np.max(np.abs(scatter.lag))),
    ) * 1.1
    half_w = (WIDTH - 2 * m) / 2
    half_h = (HEIGHT - 2 * m) / 2
    cx, cy = m + half_w, m + half_h

    def project(zx, zy):
        return cx + zx / extent * half_w, cy - zy / extent * half_h

    x0, y0 = project(-extent, -extent * scatter.slope)
    x1, y1 = project(extent, extent * scatter.slope)
    parts = [
        f'<line x1="{_fmt(m)}" y1="{_fmt(cy)}" x2="{_fmt(WIDTH - m)}" y2="{_fmt(cy)}" stroke="#000000"/>',
        f'<line x1="{_fmt(cx)}" y1="{_fmt(m)}" x2="{_fmt(cx)}" y2="{_fmt(HEIGHT - m)}" stroke="#000000"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        f'stroke="#d7191c" stroke-width="1.5"/>',
    ]
    for zi, li in zip(scatter.z, scatter.lag):
        x, y = project(zi, li)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#2c7bb6"/>')
    for label, (qx, qy) in (("Q1", (1, 1)), ("Q2", (-1, -1)), ("Q3", (-1, 1)), ("Q4", (1, -1))):
        x, y = project(qx * extent * 0.85, qy * extent * 0.85)
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="12">{label}</text>'
        )
    return _svg(title, parts)


# (cos, sin) of each radar spoke, clockwise from the top
_SPOKES = [(math.cos(t), math.sin(t)) for t in (math.radians(90 - 60 * k) for k in range(6))]


def render_radar(
    values: dict[str, float] | np.ndarray,
    config: RadarConfig = RadarConfig(),
    title: str = "",
) -> str:
    """Hexagonal radar chart of ``values`` (as :func:`radar_radii` takes them):
    axis spokes, the value polygon, and a reference hexagon at the baseline
    (0 percent) radius."""
    radii = radar_radii(values, config)
    baseline_r = -config.center
    max_r = max(baseline_r, float(max(radii)))
    cx = cy = RADAR_SIZE / 2
    plot_r = RADAR_SIZE / 2 - MARGIN

    def vertex(k: int, r: float):
        cos, sin = _SPOKES[k]
        return cx + r / max_r * plot_r * cos, cy - r / max_r * plot_r * sin

    parts = []
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
    return _svg(title, parts, RADAR_SIZE, RADAR_SIZE)


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


def render_series(names: list[str], values, title: str = "") -> str:
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
    m = MARGIN
    span = max(values.shape[1] - 1, 1)
    iw, ih = WIDTH - 2 * m, HEIGHT - 2 * m

    def points(indexed) -> str:
        return " ".join(
            f"{_fmt(m + (i / span) * iw)},{_fmt(HEIGHT - m - (v - lo) / (hi - lo) * ih)}"
            for i, v in indexed
        )

    parts = []
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
    return _svg(title, parts + _legend(legend + band_legend))


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
