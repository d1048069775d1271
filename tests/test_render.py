import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobility_esda.errors import DataError, ParameterError
from mobility_esda.geometry import RegionGeometry
from mobility_esda.indicator import RadarConfig
from mobility_esda.ingest import CATEGORIES
from mobility_esda.moran import LisaResult
from mobility_esda.render import (
    HEIGHT,
    MISSING_COLOR,
    join_geojson,
    lisa_to_csv,
    map_paths,
    quantile_band,
    render_choropleth,
    render_lisa_maps,
    render_moran_scatter,
    render_radar,
    render_series,
)

from conftest import grid_geojson, grid_geometries, square

DARK, LIGHT = "#08306b", "#deebf7"  # the ramp's lowest and highest colours


def fills(svg):
    return re.findall(r'<path [^>]*fill="(#\w{6})"', svg)


def ramp_fills(values):
    """The fill of each region of a 1 x len(values) row of squares, left to
    right, with its value."""
    ids = [f"r{i:02d}" for i in range(len(values))]
    geoms = [RegionGeometry(rid, square(i, 0)) for i, rid in enumerate(ids)]
    return fills(render_choropleth(map_paths(geoms), dict(zip(ids, values))))


class TestColorScale:
    """The choropleth's blue ramp, spanning the values it draws."""

    def test_endpoints(self):
        assert ramp_fills([0.0, 1.0]) == [DARK, LIGHT]
        assert ramp_fills([-1e300, 1e300]) == [DARK, LIGHT]

    def test_midpoint_componentwise(self):
        # (0x08 + 0xde) / 2 = 0x73, (0x30 + 0xeb) / 2 = 0x8d.8 -> 0x8e, (0x6b + 0xf7) / 2 = 0xb1
        assert ramp_fills([0.0, 0.5, 1.0]) == [DARK, "#738eb1", LIGHT]
        assert ramp_fills([-3.0, -1.5, 0.0]) == [DARK, "#738eb1", LIGHT]

    def test_clamping(self):
        # the ramp spans the values: the extremes take its end colours whatever their scale
        assert ramp_fills([5.0, -5.0, 0.0]) == [LIGHT, DARK, "#738eb1"]
        assert ramp_fills([7.0, 7.0]) == [LIGHT, LIGHT]  # a constant field is all light

    def test_missing(self):
        assert ramp_fills([0.0, None, 1.0]) == [DARK, MISSING_COLOR, LIGHT]
        assert MISSING_COLOR == "#cccccc"

    def test_overflowing_spread_refused(self):
        with pytest.raises(DataError, match="spread overflows"):
            ramp_fills([1.7e308, -1.7e308, 0.0])


class TestChoropleth:
    def test_endpoint_fills(self):
        geoms = [RegionGeometry("left", square(0, 0)), RegionGeometry("right", square(1, 0))]
        svg = render_choropleth(map_paths(geoms), {"left": 0.0, "right": 1.0})
        assert fills(svg) == [DARK, LIGHT]
        legend = re.findall(r'<rect [^>]*fill="(#\w{6})" stroke="#000000"/>\n<text [^>]*>([^<]*)</text>', svg)
        assert legend == [(DARK, "min 0"), (LIGHT, "max 1")]

    def test_missing_region_gets_missing_color(self):
        geoms = [RegionGeometry("a", square(0, 0)), RegionGeometry("b", square(1, 0))]
        svg = render_choropleth(map_paths(geoms), {"a": 0.5})
        assert fills(svg) == [LIGHT, MISSING_COLOR]

    def test_unknown_value_id_warned(self):
        geoms = [RegionGeometry("a", square(0, 0)), RegionGeometry("b", square(1, 0))]
        svg = render_choropleth(map_paths(geoms), {"a": 0.5, "ghost": 1.0})
        assert "warning" in svg and "ghost" in svg

    @pytest.mark.parametrize("stray", ["a--b", "x --><script>alert(1)</script><!-- y"])
    def test_stray_id_cannot_break_the_warning(self, stray):
        # the id stays inside one well-formed comment, which the parse drops
        svg = render_choropleth(map_paths(grid_geometries(2, 2)), {"cell0_0": 0.5, stray: 1.0})
        assert {el.tag for el in ET.fromstring(svg).iter()} == {
            f"{{http://www.w3.org/2000/svg}}{tag}" for tag in ("svg", "rect", "path", "text")
        }
        assert svg.count("<!--") == svg.count("-->") == 1

    def test_deterministic(self):
        geoms = grid_geometries(3, 3)
        values = {g.region_id: i / 8 for i, g in enumerate(geoms)}
        h1 = hashlib.sha256(render_choropleth(map_paths(geoms), values).encode()).hexdigest()
        h2 = hashlib.sha256(render_choropleth(map_paths(geoms), values).encode()).hexdigest()
        assert h1 == h2

    def test_every_region_drawn_once(self):
        geoms = grid_geometries(3, 3)
        values = {g.region_id: 0.5 for g in geoms}
        svg = render_choropleth(map_paths(geoms), values)
        assert svg.count("<path ") == 9


def simple_lisa(ids, labels, tiers, p=None, z=None, lag=None):
    n = len(ids)
    return LisaResult(
        ids=list(ids),
        z=np.zeros(n) if z is None else np.asarray(z, float),
        lag=np.zeros(n) if lag is None else np.asarray(lag, float),
        pseudo_p=np.ones(n) if p is None else np.asarray(p, float),
        labels=list(labels),
        tiers=list(tiers),
    )


class TestLisaMaps:
    def test_all_ns_grey(self):
        geoms = grid_geometries(2, 2)
        ids = [g.region_id for g in geoms]
        cluster, signif = render_lisa_maps(map_paths(geoms), simple_lisa(ids, ["ns"] * 4, [None] * 4))
        for svg in (cluster, signif):
            fills = re.findall(r'<path [^>]*fill="(#\w{6})"', svg)
            assert fills == ["#d9d9d9"] * 4

    def test_checkerboard_outlier_palette(self):
        geoms = grid_geometries(2, 2)
        ids = [g.region_id for g in geoms]
        labels = ["HL", "LH", "LH", "HL"]
        cluster, _ = render_lisa_maps(map_paths(geoms), simple_lisa(ids, labels, [0.001] * 4))
        fills = re.findall(r'<path [^>]*fill="(#\w{6})"', cluster)
        assert fills.count("#fdae61") == 2  # HL light red
        assert fills.count("#abd9e9") == 2  # LH light blue

    def test_tier_colors_distinct_and_legended(self):
        geoms = grid_geometries(1, 2)
        ids = [g.region_id for g in geoms]
        _, signif = render_lisa_maps(map_paths(geoms), simple_lisa(ids, ["HH", "HH"], [0.05, 0.001]))
        assert 'fill="#a1d99b"' in signif
        assert 'fill="#00441b"' in signif
        assert "p &lt;= 0.05" in signif and "p &lt;= 0.001" in signif

    def test_unclassified_region_is_error(self):
        geoms = grid_geometries(1, 3)
        ids = [g.region_id for g in geoms[:2]]
        with pytest.raises(DataError, match="cell0_2"):
            render_lisa_maps(map_paths(geoms), simple_lisa(ids, ["ns", "ns"], [None, None]))


class TestMapPaths:
    # sha256 of the lisa maps as drawn before the projection was shared, when
    # each renderer took the geometries and projected them itself, and when
    # one title served both maps; the choropleth's as drawn when the frame
    # was a setting, in its default 640 x 480 one
    CHOROPLETH_SHA = "68a39b6ba19d06e45a6ff0b482ee3a153eeef855f7c3e692246451bf9663bc79"
    CLUSTER_SHA = "26d6558dcab8471d48dfbdac1ebfadba93d6b7561f2bd910366bc6914b2210cc"
    SIGNIFICANCE_SHA = "38902709689b0f7cc5f45b953545383f23eacf1c824faa397fda49cbe138ec99"

    @staticmethod
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_choropleth_bytes(self):
        geoms = grid_geometries(2, 3)
        values = {"cell0_0": -12.5, "cell0_1": 3.25, "cell0_2": None, "cell1_0": 0.0,
                  "cell1_1": 7.125, "ghost": 1.0}
        svg = render_choropleth(map_paths(geoms), values, "Mean <variation> & more")
        assert self.sha(svg) == self.CHOROPLETH_SHA

    def test_lisa_map_bytes(self):
        geoms = grid_geometries(2, 3)
        ids = ["cell1_2", "cell1_1", "cell1_0", "cell0_2", "cell0_1", "cell0_0"]
        lisa = simple_lisa(ids, ["HH", "LL", "LH", "HL", "ns", "HH"],
                           [0.05, 0.01, 0.001, None, None, 0.05], p=[0.5] * 6)
        titles = ("LISA clusters: parks", "LISA clusters: parks")
        cluster, signif = render_lisa_maps(map_paths(geoms), lisa, titles)
        assert (self.sha(cluster), self.sha(signif)) == (self.CLUSTER_SHA, self.SIGNIFICANCE_SHA)

    def test_sorted_ids_in_map_frame(self):
        # 2 x 1 units fill the 560 px between the margins: 280 px a unit
        geoms = [RegionGeometry("b", square(1, 0)), RegionGeometry("a", square(0, 0))]
        assert list(map_paths(geoms).items()) == [("a", "M40,440 L320,440 L320,160 L40,160 Z"),
                                                  ("b", "M320,440 L600,440 L600,160 L320,160 Z")]

    def test_every_ring_in_one_path(self):
        g = RegionGeometry("two", square(0, 0) + square(2, 0))
        assert map_paths([g])["two"].count("M") == 2

    def test_no_geometry_is_error(self):
        with pytest.raises(DataError, match="no geometry to draw"):
            map_paths([])


class TestScatterFigure:
    def test_pair_line_and_points(self):
        s = simple_lisa(["a", "b"], ["HL", "LH"], [None, None], z=[1.0, -1.0], lag=[-1.0, 1.0])
        assert s.slope == -1.0
        svg = render_moran_scatter(s)
        assert svg.count("<circle ") == 2
        assert "Q1" in svg and "Q4" in svg

    def test_zero_slope_horizontal_line(self):
        s = simple_lisa(["a", "b"], ["HL", "LH"], [None, None], z=[1.0, -1.0], lag=[0.0, 0.0])
        assert s.slope == 0.0
        svg = render_moran_scatter(s)
        lines = re.findall(r'<line [^>]*stroke="#d7191c"[^>]*/>', svg)
        assert len(lines) == 1
        y1 = re.search(r'y1="([\d.]+)"', lines[0]).group(1)
        y2 = re.search(r'y2="([\d.]+)"', lines[0]).group(1)
        assert y1 == y2

    def test_determinism(self):
        rng = np.random.default_rng(1)
        z = rng.normal(0, 1, 20)
        lag = rng.normal(0, 1, 20)
        s = simple_lisa([f"r{i}" for i in range(20)], ["HH"] * 20, [None] * 20, z=z, lag=lag)
        assert render_moran_scatter(s) == render_moran_scatter(s)


class TestRadarFigure:
    def test_baseline_coincides_at_zero_percent(self):
        values = {c: 0.0 for c in CATEGORIES}
        svg = render_radar(values)
        polys = re.findall(r'<polygon points="([^"]+)"', svg)
        assert len(polys) == 2
        assert polys[0] == polys[1]  # value polygon == baseline hexagon

    def test_floor_degenerates_to_center(self):
        values = {c: -100.0 for c in CATEGORIES}
        svg = render_radar(values)
        polys = re.findall(r'<polygon points="([^"]+)"', svg)
        pts = {tuple(p.split(",")) for p in polys[1].split()}
        assert len(pts) == 1  # all six vertices collapse to the center

    def test_vertex_coordinates(self):
        values = dict(zip(CATEGORIES, [-30.0, -10, -80, -60, -40, 10]))
        svg = render_radar(values, RadarConfig())
        polys = re.findall(r'<polygon points="([^"]+)"', svg)
        got = [tuple(map(float, p.split(","))) for p in polys[1].split()]
        radii = [values[c] + 100 for c in CATEGORIES]
        max_r = max(110.0, 100.0)
        plot_r = 480 / 2 - 40
        for k, (gx, gy) in enumerate(got):
            theta = math.radians(90 - 60 * k)
            ex = 240 + radii[k] / max_r * plot_r * math.cos(theta)
            ey = 240 - radii[k] / max_r * plot_r * math.sin(theta)
            assert gx == pytest.approx(ex, abs=2e-3)
            assert gy == pytest.approx(ey, abs=2e-3)


class TestSeriesFigure:
    def test_multiple_series_drawn(self):
        svg = render_series(["a", "b"], [np.linspace(0, 1, 5), np.linspace(1, 0, 5)])
        assert svg.count("<polyline ") == 2

    def test_few_series_keep_one_line_each(self):
        # the bytes of the one-line-per-series plot, legend sorted by name
        svg = render_series(["b", "a"], [np.linspace(1, 0, 5), np.linspace(0, 1, 5) ** 2], "two")
        digest = hashlib.sha256(svg.encode()).hexdigest()
        assert digest == "61e005517c94ec35cc057c4b2bb65f5c64974060c56402fdfcde2899a72b0775"

    def test_many_series_drawn_as_median_and_band(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(27, 92)).cumsum(axis=1)
        svg = render_series([f"r{k}" for k in range(27)], values)
        assert svg.count("<polyline ") == 1
        assert svg.count("<polygon ") == 1
        legend_ys = [float(y) for y in re.findall(r'<rect x="[^"]+" y="([^"]+)"', svg)]
        assert len(legend_ys) == 2
        assert all(0 <= y and y + 12 <= HEIGHT for y in legend_ys)
        assert "median of 27" in svg
        # the median line's first point sits at the first column's median
        fraction = (np.median(values[:, 0]) - values.min()) / (values.max() - values.min())
        first_y = float(re.search(r'<polyline points="40,([^ ]+) ', svg).group(1))
        assert first_y == pytest.approx(440 - fraction * 400, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            render_series([], np.empty((0, 5)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(8, 60).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(-1e6, 1e6).map(lambda v: v + 0.0), min_size=n, max_size=n),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_band_equals_numpy_quantile(self, days):
        # v + 0.0 turns -0.0 into 0.0: the one case where the two may differ
        values = np.array(days).T
        expected = np.quantile(values, [0.1, 0.5, 0.9], axis=0)
        assert quantile_band(values).tobytes() == expected.tobytes()


class TestExports:
    def test_lisa_csv_columns(self):
        res = simple_lisa(["r1", "r2", "r3", "r4"], ["HH", "ns", "LL", "HL"], [0.01, None, 0.05, 0.001])
        text = lisa_to_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "region_id,local_i,lag,pseudo_p,quadrant,tier"
        assert len(lines) == 5
        assert lines[1].startswith("r1,") and lines[1].endswith("HH,0.01")

    def test_geojson_join(self):
        doc = grid_geojson(1, 2)
        out = join_geojson(doc, {"cell0_0": {"value": 1.5}, "cell0_1": {"value": -2.0}})
        parsed = json.loads(out)
        props = {f["properties"]["region_id"]: f["properties"] for f in parsed["features"]}
        assert props["cell0_0"]["value"] == 1.5

    def test_geojson_join_is_one_compact_line(self):
        text = join_geojson(grid_geojson(1, 1), {"cell0_0": {"value": 1.5}})
        # the document that the earlier indented mean-variation.geojson held
        assert json.loads(text) == {
            "features": [
                {
                    "geometry": {
                        "coordinates": [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]],
                        "type": "Polygon",
                    },
                    "properties": {"region_id": "cell0_0", "value": 1.5},
                    "type": "Feature",
                }
            ],
            "type": "FeatureCollection",
        }
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    def test_geojson_join_leaves_doc_unchanged(self):
        doc = grid_geojson(1, 2)
        before = json.dumps(doc, sort_keys=True)
        join_geojson(doc, {"cell0_0": {"value": 1.5}})
        assert json.dumps(doc, sort_keys=True) == before

    def test_geojson_join_missing_id_error(self):
        doc = grid_geojson(1, 2)
        with pytest.raises(DataError, match="ghost"):
            join_geojson(doc, {"ghost": {"value": 1.0}})

    def test_export_idempotence(self):
        # ids holding a comma, a quote, a lone CR and an LF
        ids = ["r1", "Foo, Bar", 'say "hi"', "x\ry", "a\nb"]
        res = simple_lisa(
            ids,
            ["HH", "LL", "HL", "LH", "ns"],
            [0.01, 0.05, 0.001, 0.05, None],
            p=[0.004, 0.041, 0.001, 0.02, 0.5],
            z=[1.5, -0.25, 2.0, -1.0, 0.75],
            lag=[0.5, -2.0, -0.5, 0.25, 4.0],
        )
        text = lisa_to_csv(res)
        # parse back and re-export
        import csv
        import io

        header, *cells = csv.reader(io.StringIO(text, newline=""))
        assert [len(row) for row in cells] == [len(header)] * len(ids)
        assert [row[0] for row in cells] == ids
        rows = [dict(zip(header, row)) for row in cells]
        res2 = simple_lisa(
            [r["region_id"] for r in rows],
            [r["quadrant"] for r in rows],
            [float(r["tier"]) if r["tier"] else None for r in rows],
            p=[float(r["pseudo_p"]) for r in rows],
            lag=[float(r["lag"]) for r in rows],
        )
        # z back from local_i = z * lag; exact for these values
        res2.z = np.array([float(r["local_i"]) for r in rows]) / res2.lag
        assert lisa_to_csv(res2) == text
