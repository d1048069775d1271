import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobility_esda import weights
from mobility_esda.errors import DataError, GeometryError, ParameterError
from mobility_esda.geometry import RegionGeometry, load_geojson
from mobility_esda.weights import (
    SpatialWeights,
    connect_islands_knn,
    queen_adjacency,
    rook_adjacency,
    row_standardize,
    to_json,
    to_text,
)

from conftest import grid_geojson, grid_geometries, queen_oracle, square


def neighbor_ids(W, rid):
    i = W.ids.index(rid)
    return [W.ids[j] for j in W.neighbors(i)]


def assert_same_weights(W, expected):
    assert W.ids == expected.ids
    assert W.indptr.tolist() == expected.indptr.tolist()
    assert W.indices.tolist() == expected.indices.tolist()
    assert W.data.tolist() == expected.data.tolist()


@st.composite
def layouts(draw):
    """Regions made of boxes and right triangles on a half-unit lattice:
    they touch exactly, share left sides, meet in T-junctions (a corner on a
    triangle's hypotenuse or mid-side of a larger box) or stand apart as
    islands. Each shape is moved by -tol, 0 or tol, and each coordinate
    then by -1, 0 or 1 ulp, so gaps come out at tol and one ulp either
    side; far from the origin a coordinate's ulp exceeds tol."""
    tol = draw(st.sampled_from([1e-7, 1e-3, 0.25]))
    origin = draw(st.sampled_from([0.0, -7.25, 1e10]))

    def coord(k, shift):
        v = origin + k / 2 + shift
        ulps = draw(st.integers(-1, 1))
        return math.nextafter(v, math.copysign(math.inf, ulps)) if ulps else v

    geoms = []
    for r in range(draw(st.integers(2, 10))):
        rings = []
        for _ in range(draw(st.integers(1, 2))):
            kx, ky = draw(st.integers(0, 6)), draw(st.integers(0, 6))
            kw, kh = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            dx, dy = draw(st.sampled_from([-tol, 0.0, tol])), draw(st.sampled_from([-tol, 0.0, tol]))
            x0, x1 = coord(kx, dx), coord(kx + kw, dx)
            y0, y1 = coord(ky, dy), coord(ky + kh, dy)
            if draw(st.booleans()):
                rings.append([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])
            else:
                rings.append([(x0, y0), (x1, y0), (x0, y1), (x0, y0)])
        geoms.append(RegionGeometry(f"r{r}", rings))
    return geoms, tol


class TestQueen:
    def test_3x3_degrees(self):
        W = queen_adjacency(grid_geometries(3, 3))
        degrees = [W.degree(i) for i in range(9)]
        assert degrees == [3, 5, 3, 5, 8, 5, 3, 5, 3]

    def test_corner_touch_is_adjacent(self):
        a = RegionGeometry("a", square(0, 0))
        b = RegionGeometry("b", square(1, 1))
        W = queen_adjacency([a, b])
        assert neighbor_ids(W, "a") == ["b"]

    def test_gap_beyond_tolerance_not_adjacent(self):
        tol = 1e-7
        a = RegionGeometry("a", square(0, 0))
        b = RegionGeometry("b", square(1 + 2 * tol, 0))
        W = queen_adjacency([a, b], snap_tol=tol)
        assert neighbor_ids(W, "a") == []

    def test_gap_within_tolerance_adjacent(self):
        tol = 1e-7
        a = RegionGeometry("a", square(0, 0))
        b = RegionGeometry("b", square(1 + 0.4 * tol, 0))
        W = queen_adjacency([a, b], snap_tol=tol)
        assert neighbor_ids(W, "a") == ["b"]

    def test_vertex_on_segment_counts(self):
        # T-junction: the small square's corner sits mid-edge of the big one
        big = RegionGeometry("big", square(0, 0, 2))
        small = RegionGeometry("small", square(2, 0.5, 1))
        W = queen_adjacency([big, small])
        assert neighbor_ids(W, "big") == ["small"]

    @given(layout=layouts(), block=st.sampled_from([1, 2, 3, weights.PAIR_BLOCK]))
    @settings(max_examples=300, deadline=None)
    def test_sweep_equals_all_pairs(self, layout, block):
        geoms, tol = layout
        with mock.patch.object(weights, "PAIR_BLOCK", block):
            W = queen_adjacency(geoms, snap_tol=tol)
        assert_same_weights(W, queen_oracle(geoms, snap_tol=tol))

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_block_smaller_than_a_candidate_run(self, block):
        # in a 6x6 grid every region but the last column's has its column's
        # later regions and the next column as candidates: 6 to 11 of them
        geoms = grid_geometries(6, 6) + [
            RegionGeometry("t", square(6, 0.25, 0.5)),  # T-junction on cell0_5's right side
            RegionGeometry("island", square(20, 20)),
        ]
        expected = queen_oracle(geoms)
        assert_same_weights(queen_adjacency(geoms), expected)
        with mock.patch.object(weights, "PAIR_BLOCK", block):
            assert_same_weights(queen_adjacency(geoms), expected)
        assert neighbor_ids(expected, "t") == ["cell0_5"]

    def test_s0_counts_directed_pairs(self):
        W = queen_adjacency(grid_geometries(2, 2))
        # 4 rook pairs + 2 diagonal pairs, each counted both ways
        assert W.s0 == 12

    def test_duplicate_ids_rejected(self):
        a = RegionGeometry("a", square(0, 0))
        b = RegionGeometry("a", square(1, 0))
        with pytest.raises(DataError, match="duplicate"):
            queen_adjacency([a, b])

    def test_single_geometry_rejected(self):
        with pytest.raises(ParameterError):
            queen_adjacency([RegionGeometry("a", square(0, 0))])

    def test_degenerate_ring_rejected(self):
        g = RegionGeometry("a", [[(0, 0), (1e-9, 0), (0, 1e-9), (0, 0)]])
        with pytest.raises(GeometryError, match="degenerate"):
            queen_adjacency([g, RegionGeometry("b", square(5, 5))])

    @pytest.mark.parametrize("build", [queen_adjacency, rook_adjacency])
    def test_degenerate_only_when_every_ring_collapses(self, build):
        def speck(x):  # a ring that snaps to one point
            return [(x, 0), (x + 1e-9, 0), (x, 1e-9), (x, 0)]

        other = RegionGeometry("b", square(5, 5))
        build([RegionGeometry("a", square(0, 0) + [speck(3)]), other])
        with pytest.raises(GeometryError, match="a: ring degenerate"):
            build([RegionGeometry("a", [speck(0), speck(3)]), other])


@pytest.mark.parametrize("build", [queen_adjacency, rook_adjacency])
@pytest.mark.parametrize("tol", [0.0, -1e-7, float("nan"), float("inf")])
def test_snap_tol_must_be_finite_and_positive(build, tol):
    with pytest.raises(ParameterError, match="snap_tol must be finite and > 0"):
        build(grid_geometries(2, 2), snap_tol=tol)


class TestRook:
    def test_3x3_degrees(self):
        W = rook_adjacency(grid_geometries(3, 3))
        assert [W.degree(i) for i in range(9)] == [2, 3, 2, 3, 4, 3, 2, 3, 2]

    def test_corner_touch_not_adjacent(self):
        a = RegionGeometry("a", square(0, 0))
        b = RegionGeometry("b", square(1, 1))
        W = rook_adjacency([a, b])
        assert neighbor_ids(W, "a") == []

    def test_2x2_rook_vs_queen(self):
        geoms = grid_geometries(2, 2)
        rook = rook_adjacency(geoms)
        queen = queen_adjacency(geoms)
        assert all(rook.degree(i) == 2 for i in range(4))
        assert all(queen.degree(i) == 3 for i in range(4))

    def test_queen_superset_of_rook(self):
        for shape in ((3, 3), (2, 4), (4, 4)):
            geoms = grid_geometries(*shape)
            rook = rook_adjacency(geoms)
            queen = queen_adjacency(geoms)
            for i in range(rook.n):
                assert set(rook.neighbors(i)) <= set(queen.neighbors(i))


class TestRowStandardize:
    def test_four_neighbors_quarter_each(self):
        W = row_standardize(rook_adjacency(grid_geometries(3, 3)))
        center = W.ids.index("cell1_1")
        assert W.weights(center).tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_island_flagged_with_zero_row(self):
        a = RegionGeometry("a", square(0, 0))
        b = RegionGeometry("b", square(1, 0))
        c = RegionGeometry("isle", square(10, 10))
        W = row_standardize(queen_adjacency([a, b, c]))
        assert W.islands == [2]
        assert W.weights(2).tolist() == []

    def test_2x2_rook_half_weights(self):
        W = row_standardize(rook_adjacency(grid_geometries(2, 2)))
        assert all(W.weights(i).tolist() == [0.5, 0.5] for i in range(W.n))
        assert W.s0 == pytest.approx(4.0)

    def test_s0_equals_non_island_count(self):
        a = RegionGeometry("a", square(0, 0))
        b = RegionGeometry("b", square(1, 0))
        c = RegionGeometry("isle", square(10, 10))
        W = row_standardize(queen_adjacency([a, b, c]))
        assert W.s0 == pytest.approx(2.0)

    def test_requires_binary(self):
        W = row_standardize(rook_adjacency(grid_geometries(2, 2)))
        with pytest.raises(ParameterError, match="binary"):
            row_standardize(W)


class TestIslandKnn:
    def offshore(self):
        return [
            RegionGeometry("a", square(0, 0)),
            RegionGeometry("b", square(1, 0)),
            RegionGeometry("c", square(2, 0)),
            RegionGeometry("isle", square(4, 0)),
        ]

    def test_island_linked_to_nearest(self):
        geoms = self.offshore()
        W = connect_islands_knn(queen_adjacency(geoms), geoms, 1)
        assert neighbor_ids(W, "isle") == ["c"]
        assert W.islands == []
        assert "isle" in neighbor_ids(W, "c")  # link is symmetric

    def test_k2_takes_two_nearest(self):
        geoms = self.offshore()
        W = connect_islands_knn(queen_adjacency(geoms), geoms, 2)
        assert neighbor_ids(W, "isle") == ["b", "c"]

    def test_non_islands_untouched(self):
        geoms = self.offshore()
        before = queen_adjacency(geoms)
        after = connect_islands_knn(before, geoms, 1)
        for rid in ("a", "b"):
            assert neighbor_ids(after, rid) == neighbor_ids(before, rid)

    def test_no_islands_is_identity(self):
        geoms = grid_geometries(2, 2)
        before = queen_adjacency(geoms)
        after = connect_islands_knn(before, geoms, 2)
        assert np.array_equal(after.indptr, before.indptr)
        assert np.array_equal(after.indices, before.indices)

    def test_bad_k_rejected(self):
        geoms = self.offshore()
        W = queen_adjacency(geoms)
        with pytest.raises(ParameterError):
            connect_islands_knn(W, geoms, 0)
        with pytest.raises(ParameterError):
            connect_islands_knn(W, geoms, 4)


class TestSerialization:
    def test_text_round_trip(self):
        # each region's line: its id, then its neighbours' ids in stored order
        W = queen_adjacency(grid_geometries(3, 3))
        lines = [line.split("\t") for line in to_text(W).splitlines()]
        assert [line[0] for line in lines] == W.ids
        assert [line[1:] for line in lines] == [neighbor_ids(W, rid) for rid in W.ids]

    def test_text_round_trip_with_spaced_ids(self):
        # Parana lies apart: an island's line is its id alone
        places = {"Sao Paulo": 0, "Minas Gerais": 1, "Rio de Janeiro": 2, "Parana": 5}
        W = queen_adjacency([RegionGeometry(name, square(x, 0)) for name, x in places.items()])
        text = to_text(W)
        assert text.splitlines() == [
            "Sao Paulo\tMinas Gerais",
            "Minas Gerais\tSao Paulo\tRio de Janeiro",
            "Rio de Janeiro\tMinas Gerais",
            "Parana",
        ]
        assert text.endswith("Parana\n")

    @pytest.mark.parametrize("name", ["a\tb", "a\nb"])
    def test_text_refuses_tab_or_newline_in_id(self, name):
        W = queen_adjacency([RegionGeometry(name, square(0, 0)), RegionGeometry("c", square(1, 0))])
        with pytest.raises(DataError, match="tab or line break"):
            to_text(W)

    def test_json_round_trip_preserves_weights(self):
        # every stored weight, bit for bit, beside its neighbour's id
        W = row_standardize(queen_adjacency(grid_geometries(3, 3)))
        doc = json.loads(to_json(W))
        assert doc["mode"] == "row_standardized"
        assert [r["id"] for r in doc["regions"]] == W.ids
        assert [r["neighbors"] for r in doc["regions"]] == [neighbor_ids(W, rid) for rid in W.ids]
        assert [w for r in doc["regions"] for w in r["weights"]] == W.data.tolist()

    def test_json_is_one_compact_line(self):
        W = row_standardize(queen_adjacency([RegionGeometry(n, square(x, 0)) for x, n in enumerate("abc")]))
        text = to_json(W)
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
        # the document that the earlier indented weights.json held
        assert json.loads(text) == {
            "mode": "row_standardized",
            "regions": [
                {"id": "a", "neighbors": ["b"], "weights": [1.0]},
                {"id": "b", "neighbors": ["a", "c"], "weights": [0.5, 0.5]},
                {"id": "c", "neighbors": ["b"], "weights": [1.0]},
            ],
        }

    def test_asymmetric_graph_rejected(self):
        with pytest.raises(DataError, match="asymmetric"):
            SpatialWeights(["a", "b"], [0, 1, 1], [1], [1.0])

    def test_asymmetric_graph_names_first_lonely_pair(self):
        # unsorted rows and a stored pair twice; c -> d and d -> b lack their mirror
        with pytest.raises(DataError, match="asymmetric neighbor graph: c -> d$"):
            SpatialWeights(["a", "b", "c", "d"], [0, 3, 4, 6, 7], [2, 1, 1, 0, 3, 0, 1], [1.0] * 7)

    def test_pair_stored_twice_rejected(self):
        # the mirror is stored once: one link that would count twice
        with pytest.raises(DataError, match="neighbor pair stored twice: b -> a$"):
            SpatialWeights.from_rows(["a", "b"], [[1], [0, 0]], [[1.0], [1.0, 1.0]])

    def test_neighbor_index_out_of_range_rejected(self):
        with pytest.raises(DataError, match="out of range"):
            SpatialWeights(["a", "b"], [0, 1, 2], [-1, 0], [1.0, 1.0])

    def test_json_weight_count_must_match_neighbors(self):
        with pytest.raises(DataError, match="one weight per neighbor"):
            SpatialWeights.from_rows(["a", "b"], [[1], [0]], [[1.0, 1.0], [1.0]])


class TestGeoJson:
    def test_load_grid(self):
        geoms = load_geojson(grid_geojson(2, 3))
        assert [g.region_id for g in geoms] == [
            "cell0_0", "cell0_1", "cell0_2", "cell1_0", "cell1_1", "cell1_2",
        ]

    def test_multipolygon_supported(self):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"region_id": "arch"},
                    "geometry": {
                        "type": "MultiPolygon",
                        "coordinates": [
                            [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                            [[[5, 5], [6, 5], [6, 6], [5, 6], [5, 5]]],
                        ],
                    },
                },
                {
                    "type": "Feature",
                    "properties": {"region_id": "main"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[1, 0], [2, 0], [2, 1], [1, 1], [1, 0]]],
                    },
                },
            ],
        }
        geoms = load_geojson(doc)
        W = queen_adjacency(geoms)
        assert neighbor_ids(W, "arch") == ["main"]

    def test_unclosed_ring_rejected(self):
        doc = grid_geojson(1, 2)
        doc["features"][0]["geometry"]["coordinates"][0].pop()
        with pytest.raises(GeometryError, match="not closed"):
            load_geojson(doc)

    @pytest.mark.parametrize("null", [False, True])
    def test_feature_without_geometry_names_region(self, null):
        doc = grid_geojson(1, 2)
        if null:
            doc["features"][1]["geometry"] = None
        else:
            del doc["features"][1]["geometry"]
        with pytest.raises(GeometryError, match="cell0_1: feature has no geometry"):
            load_geojson(doc)

    def test_altitude_dropped(self):
        doc = grid_geojson(1, 2)
        flat = load_geojson(doc)
        for f in doc["features"]:
            geom = f["geometry"]
            geom["coordinates"] = [[[x, y, 5.0] for x, y in ring] for ring in geom["coordinates"]]
        assert load_geojson(doc) == flat

    @pytest.mark.parametrize(
        "coordinates",
        [[[[0, 0], None, [1, 1], [0, 0]]], [[[0, 0], [1], [1, 1], [0, 0]]], [[0, 0, 1, 1]],
         [[[0, 0], [1, 10**400], [1, 1], [0, 0]]], [[[0, 0], [1, float("nan")], [1, 1], [0, 0]]],
         [[[0, 0], [float("inf"), 0], [1, 1], [0, 0]]], [[[0, 0], ["1.5", "2"], [1, 1], [0, 0]]],
         [[[0, 0], [True, False], [1, 1], [0, 0]]]],
        ids=["null position", "short position", "bare numbers", "huge integer", "nan", "inf",
             "numeric string", "boolean"],
    )
    def test_malformed_position_names_region(self, coordinates):
        doc = grid_geojson(1, 2)
        doc["features"][1]["geometry"]["coordinates"] = coordinates
        with pytest.raises(GeometryError, match="cell0_1: malformed coordinates"):
            load_geojson(doc)

    def test_custom_id_property(self):
        doc = grid_geojson(1, 2)
        for f in doc["features"]:
            f["properties"] = {"NAME": f["properties"]["region_id"].upper()}
        geoms = load_geojson(doc, id_property="NAME")
        assert geoms[0].region_id == "CELL0_0"
