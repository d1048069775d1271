import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mobility_esda.errors import DataError, ParameterError, ZeroVarianceError
from mobility_esda.moran import (
    ValueField,
    _block_draws,
    _moran_sims,
    expected_i,
    lisa_classify,
    lisa_permutation,
    moran_global,
    moran_permutation,
    spatial_lag,
)
from mobility_esda import moran
from mobility_esda.weights import SpatialWeights, queen_adjacency, rook_adjacency, row_standardize

from conftest import (
    exhaustive_conditional_p,
    exhaustive_pseudo_p,
    grid_geometries,
    lisa_oracle,
    moran_oracle,
)

CHECKERBOARD = np.array([1.0, -1.0, -1.0, 1.0])  # 2x2 row-major


class TestStandardize:
    def test_antithetic_pair(self):
        f = ValueField([1.0, -1.0])
        assert f.z.tolist() == [1.0, -1.0]

    def test_constant_flags_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            ValueField([4.0, 4.0, 4.0])

    def test_hand_computed(self):
        f = ValueField([2.0, 4.0, 6.0, 8.0])
        assert f.mean == 5.0
        assert f.sigma == pytest.approx(np.sqrt(5))
        assert np.allclose(f.z, np.array([-3, -1, 1, 3]) / np.sqrt(5))

    def test_z_moments(self):
        rng = np.random.default_rng(0)
        f = ValueField(rng.normal(10, 3, 50))
        assert abs(f.z.sum()) < 1e-9
        assert abs((f.z**2).mean() - 1) < 1e-9

    def test_too_few_values(self):
        with pytest.raises(ParameterError):
            ValueField([1.0])

    @pytest.mark.filterwarnings("error")  # refused without a RuntimeWarning
    @pytest.mark.parametrize("x", [[1e200, -1e200], [1.7e308, 1.7e308]], ids=["sigma", "mean"])
    def test_overflowing_spread_is_a_data_error(self, x):
        with pytest.raises(DataError, match="spread overflows"):
            ValueField(x)


class TestLag:
    def test_mutual_pair(self, pair_weights):
        assert spatial_lag(pair_weights, [1.0, -1.0]).tolist() == [-1.0, 1.0]

    def test_island_gets_zero(self):
        from mobility_esda.weights import SpatialWeights, row_standardize

        W = row_standardize(
            SpatialWeights.from_neighbors(["a", "b", "c"], {"a": ["b"], "b": ["a"], "c": []})
        )
        assert spatial_lag(W, [1.0, -1.0, 5.0]).tolist() == [-1.0, 1.0, 0.0]

    def test_2x2_checkerboard(self, rook_2x2_rs):
        assert spatial_lag(rook_2x2_rs, CHECKERBOARD).tolist() == [-1.0, 1.0, 1.0, -1.0]

    def test_dimension_mismatch(self, rook_2x2_rs):
        with pytest.raises(ParameterError):
            spatial_lag(rook_2x2_rs, [1.0, 2.0])


class TestGlobal:
    def test_two_region_antithetic(self, pair_weights):
        f = ValueField([1.0, -1.0])
        assert moran_global(f, pair_weights) == pytest.approx(-1.0, abs=1e-12)

    def test_checkerboard(self, rook_2x2_rs):
        f = ValueField(CHECKERBOARD)
        assert moran_global(f, rook_2x2_rs) == pytest.approx(-1.0, abs=1e-12)

    def test_two_like_columns(self, rook_2x2_rs):
        f = ValueField([1.0, 1.0, -1.0, -1.0])
        assert moran_global(f, rook_2x2_rs) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_on_random_fields(self, queen_6x6_rs):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(0, 1, 36)
            f = ValueField(x)
            assert moran_global(f, queen_6x6_rs) == pytest.approx(
                moran_oracle(x, queen_6x6_rs), rel=1e-12
            )

    def test_zero_variance_refused(self, rook_2x2_rs):
        with pytest.raises(ZeroVarianceError):
            moran_global(ValueField([3.0] * 4), rook_2x2_rs)

    def test_bounds_on_random_fields(self, queen_6x6_rs):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = ValueField(rng.normal(0, 1, 36))
            I = moran_global(f, queen_6x6_rs)
            assert -1 - 1e-9 <= I <= 1 + 1e-9


def all_significant(field, W):
    """The local-Moran result of ``field`` with every p at 0, so each label
    is the region's Moran-scatter quadrant."""
    return lisa_classify(field, W, np.zeros(W.n))


class TestScatter:
    def test_pair_points_and_slope(self, pair_weights):
        s = all_significant(ValueField([1.0, -1.0]), pair_weights)
        assert s.z.tolist() == [1.0, -1.0]
        assert s.lag.tolist() == [-1.0, 1.0]
        assert s.slope == pytest.approx(-1.0)
        assert s.labels == ["HL", "LH"]

    def test_checkerboard_all_dissimilar_quadrants(self, rook_2x2_rs):
        s = all_significant(ValueField(CHECKERBOARD), rook_2x2_rs)
        assert set(s.labels) == {"HL", "LH"}
        assert s.slope == pytest.approx(-1.0)

    def test_slope_equals_global_index(self, queen_6x6_rs):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = ValueField(rng.normal(0, 1, 36))
            s = all_significant(f, queen_6x6_rs)
            assert abs(s.slope - moran_global(f, queen_6x6_rs)) < 1e-12
            assert np.array_equal(s.local_i, f.z * spatial_lag(queen_6x6_rs, f.z))

    def test_path_graph_spike(self):
        from mobility_esda.weights import SpatialWeights, row_standardize

        ids = ["p0", "p1", "p2", "p3"]
        W = row_standardize(
            SpatialWeights.from_neighbors(
                ids, {"p0": ["p1"], "p1": ["p0", "p2"], "p2": ["p1", "p3"], "p3": ["p2"]}
            )
        )
        x = np.array([1.0, 0.0, 0.0, 0.0])
        s = all_significant(ValueField(x), W)
        assert s.slope == pytest.approx(moran_oracle(x, W), rel=1e-12)


class TestLocal:
    def test_checkerboard_all_minus_one(self, rook_2x2_rs):
        f = ValueField(CHECKERBOARD)
        li = f.z * spatial_lag(rook_2x2_rs, f.z)
        assert np.allclose(li, -1.0)
        assert li.mean() == pytest.approx(moran_global(f, rook_2x2_rs), abs=1e-12)

    def test_zero_z_gives_zero(self):
        from mobility_esda.weights import SpatialWeights, row_standardize

        W = row_standardize(
            SpatialWeights.from_neighbors(
                ["a", "b", "c"], {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}
            )
        )
        f = ValueField([1.0, 2.0, 3.0])
        li = f.z * spatial_lag(W, f.z)
        assert li[1] == 0.0  # middle value sits at the mean

    def test_two_region_case(self, pair_weights):
        f = ValueField([1.0, -1.0])
        li = f.z * spatial_lag(pair_weights, f.z)
        assert li.tolist() == [-1.0, -1.0]

    def test_mean_equals_global(self, queen_6x6_rs):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = ValueField(rng.normal(0, 1, 36))
            assert (f.z * spatial_lag(queen_6x6_rs, f.z)).mean() == pytest.approx(
                moran_global(f, queen_6x6_rs), abs=1e-9
            )

    def test_island_mean_excludes_zero_rows(self):
        from mobility_esda.weights import SpatialWeights, row_standardize

        W = row_standardize(
            SpatialWeights.from_neighbors(
                ["a", "b", "c", "isle"],
                {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"], "isle": []},
            )
        )
        f = ValueField([3.0, -1.0, 2.0, -4.0])
        li = f.z * spatial_lag(W, f.z)
        assert li[3] == 0.0


class TestGlobalPermutation:
    def test_extreme_observation_floor(self, queen_6x6_rs):
        # strong row-band gradient: more extreme than every shuffle
        x = np.arange(36.0) // 6
        f = ValueField(x)
        res = moran_permutation(f, queen_6x6_rs, permutations=999, seed=0)
        assert res.pseudo_p == pytest.approx(1 / 1000)

    def test_exhaustive_matches_bruteforce(self):
        geoms = grid_geometries(2, 3)
        W = row_standardize(rook_adjacency(geoms))
        rng = np.random.default_rng(8)
        for _ in range(3):
            x = rng.normal(0, 1, 6)
            f = ValueField(x)
            res = moran_permutation(f, W, exhaustive=True)
            assert res.pseudo_p == pytest.approx(exhaustive_pseudo_p(x, W), abs=1e-12)

    def test_same_seed_identical(self, queen_6x6_rs):
        f = ValueField(np.random.default_rng(9).normal(0, 1, 36))
        a = moran_permutation(f, queen_6x6_rs, permutations=199, seed=42)
        b = moran_permutation(f, queen_6x6_rs, permutations=199, seed=42)
        assert (a.pseudo_p, a.sim_mean, a.sim_sd) == (b.pseudo_p, b.sim_mean, b.sim_sd)

    def test_sidedness_options(self, queen_6x6_rs):
        f = ValueField(np.random.default_rng(10).normal(0, 1, 36))
        for sided in ("greater", "less", "one_sided_folded"):
            res = moran_permutation(f, queen_6x6_rs, permutations=99, seed=1, sided=sided)
            assert 0 < res.pseudo_p <= 1

    def test_expected_value(self):
        assert expected_i(4) == pytest.approx(-1 / 3)

    def test_batched_sims_match_oracle(self, queen_6x6_rs):
        W = queen_6x6_rs
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, 36)
        perms = np.array([rng.permutation(36) for _ in range(50)])
        sims = _moran_sims(x - x.mean(), perms, W)
        expected = [moran_oracle(x[perm], W) for perm in perms]
        assert np.allclose(sims, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, R, seed", [(2, 1, 0), (9, 7, 3), (27, 999, 42), (400, 99, 1)])
    def test_relabelings_equal_one_permutation_call_each(self, n, R, seed, monkeypatch):
        seen = []

        def record(z, perms, W):
            seen.append(perms)
            return _moran_sims(z, perms, W)

        monkeypatch.setattr(moran, "_moran_sims", record)
        W = SpatialWeights.from_rows(
            [f"r{i}" for i in range(n)], [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
        )
        f = ValueField(np.random.default_rng(seed).normal(0, 1, n))
        moran_permutation(f, W, permutations=R, seed=seed)
        rng = np.random.default_rng(seed)
        assert np.array_equal(seen[-1], np.array([rng.permutation(n) for _ in range(R)]))


def chi2_upper_quantile(df: int, z: float = 3.09) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile at normal
    deviate z (3.09: the 0.999 quantile)."""
    c = 2 / (9 * df)
    return df * (1 - c + z * math.sqrt(c)) ** 3


class TestOrderedDraws:
    @pytest.mark.parametrize("m, k", [(4, 2), (5, 3), (4, 4), (6, 1)])
    def test_uniform_over_ordered_tuples(self, m, k):
        tuples = list(itertools.permutations(range(m), k))
        size = 200 * len(tuples)
        rows = _block_draws([np.random.default_rng(0)], m, k, size)[0]
        assert rows.shape == (size, k)
        assert all(len(set(row)) == k for row in rows.tolist())
        index = {t: c for c, t in enumerate(tuples)}
        counts = np.bincount([index[tuple(row)] for row in rows.tolist()], minlength=len(tuples))
        expected = size / len(tuples)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < chi2_upper_quantile(len(tuples) - 1)


class TestLisaPermutation:
    def test_zero_z_region_p_one(self):
        from mobility_esda.weights import SpatialWeights, row_standardize

        W = row_standardize(
            SpatialWeights.from_neighbors(
                ["a", "b", "c"], {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}
            )
        )
        f = ValueField([1.0, 2.0, 3.0])
        p = lisa_permutation(f, W, permutations=99, seed=0)
        assert p[1] == 1.0

    def test_exhaustive_matches_conditional_oracle(self, star_5):
        rng = np.random.default_rng(12)
        z_inputs = [rng.normal(0, 1, 5) for _ in range(3)]
        for x in z_inputs:
            f = ValueField(x)
            p = lisa_permutation(f, star_5, exhaustive=True)
            expected = [exhaustive_conditional_p(f.z, star_5, i) for i in range(5)]
            assert np.allclose(p, expected, atol=1e-12)

    def test_same_seed_identical_vector(self, queen_6x6_rs):
        f = ValueField(np.random.default_rng(13).normal(0, 1, 36))
        a = lisa_permutation(f, queen_6x6_rs, permutations=99, seed=5)
        b = lisa_permutation(f, queen_6x6_rs, permutations=99, seed=5)
        assert np.array_equal(a, b)

    def test_seeded_p_values_pinned(self):
        # the integer-seed stream default_rng((seed, i)) fixes every p-value
        W = row_standardize(queen_adjacency(grid_geometries(3, 3)))
        f = ValueField(np.random.default_rng(8).normal(0, 1, 9))
        p = lisa_permutation(f, W, permutations=99, seed=7)
        assert np.array_equal(p, np.array([11, 8, 15, 16, 100, 39, 44, 12, 20]) / 100)

    def test_seed_none_draws_fresh_stream(self, queen_6x6_rs):
        f = ValueField(np.random.default_rng(14).normal(0, 1, 36))
        p = lisa_permutation(f, queen_6x6_rs, permutations=49, seed=None)
        assert p.shape == (36,)
        assert np.all((p >= 1 / 50) & (p <= 1))

    def test_island_p_is_one(self):
        from mobility_esda.weights import SpatialWeights, row_standardize

        W = row_standardize(
            SpatialWeights.from_neighbors(
                ["a", "b", "isle"], {"a": ["b"], "b": ["a"], "isle": []}
            )
        )
        f = ValueField([1.0, -1.0, 0.0])
        p = lisa_permutation(f, W, permutations=99, seed=0)
        assert p[2] == 1.0

    @pytest.mark.parametrize("sided", ["greater", "less"])
    def test_calibration_under_null(self, sided):
        # one tail has nominal level 0.05; the folded p tests the tail the
        # observation falls on, so its rate at 0.05 is about 0.10
        W = row_standardize(rook_adjacency(grid_geometries(5, 5)))
        rng = np.random.default_rng(2020)
        rejected = [
            lisa_permutation(
                ValueField(rng.normal(0, 1, 25)), W, permutations=199, seed=t, sided=sided
            ) <= 0.05
            for t in range(40)
        ]
        assert 0.01 <= np.mean(rejected) <= 0.10

    def test_no_permutations_refused(self, queen_6x6_rs):
        f = ValueField(np.random.default_rng(14).normal(0, 1, 36))
        with pytest.raises(ParameterError):
            lisa_permutation(f, queen_6x6_rs, permutations=0)


def _island_weights():
    # a 6-region graph whose last region has no neighbours (k = 0)
    from mobility_esda.weights import SpatialWeights

    return row_standardize(
        SpatialWeights.from_neighbors(
            list("abcdef"),
            {"a": ["b", "c"], "b": ["a", "d"], "c": ["a", "d", "e"],
             "d": ["b", "c", "e"], "e": ["c", "d"], "f": []},
        )
    )


class TestSharedDraws:
    """Several fields in one call are tested against one set of draws, so
    each field's result equals a call on that field alone, bit for bit."""

    @staticmethod
    def fields(n, count, seed):
        rng = np.random.default_rng(seed)
        return [ValueField(rng.normal(0, 1 + f, n)) for f in range(count)]

    @pytest.mark.parametrize(
        "weights, kwargs",
        [
            ("queen_6x6_rs", {"permutations": 99, "seed": 3}),
            ("star_5", {"exhaustive": True}),
            ("island", {"permutations": 49, "seed": 8}),
            ("island", {"exhaustive": True}),
        ],
    )
    def test_group_equals_one_call_per_field(self, weights, kwargs, request):
        W = _island_weights() if weights == "island" else request.getfixturevalue(weights)
        group = self.fields(W.n, 4, seed=W.n)
        results = moran_permutation(group, W, **kwargs)
        p_group = lisa_permutation(group, W, **kwargs)
        assert len(results) == len(p_group) == len(group)
        for field, res, p in zip(group, results, p_group):
            alone = moran_permutation(field, W, **kwargs)
            assert (res.I, res.sim_mean, res.sim_sd, res.pseudo_p) == (
                alone.I, alone.sim_mean, alone.sim_sd, alone.pseudo_p
            )
            assert res.permutations == alone.permutations
            assert np.array_equal(p, lisa_permutation(field, W, **kwargs))
        if weights == "island":
            assert all(p[5] == 1.0 for p in p_group)

    def test_one_element_group(self, queen_6x6_rs):
        (field,) = self.fields(36, 1, seed=30)
        [res] = moran_permutation([field], queen_6x6_rs, permutations=49, seed=2)
        [p] = lisa_permutation([field], queen_6x6_rs, permutations=49, seed=2)
        assert res == moran_permutation(field, queen_6x6_rs, permutations=49, seed=2)
        assert np.array_equal(p, lisa_permutation(field, queen_6x6_rs, permutations=49, seed=2))

    def test_constant_member_refused(self):
        # a constant field is refused when it is built, so no group holds one
        with pytest.raises(ZeroVarianceError, match="constant"):
            moran.ValueField(np.ones(36))


@st.composite
def lisa_cases(draw):
    """A random symmetric graph (islands and mixed degrees; binary,
    row-standardized or unequal positive weights), 1-3 fields on it and the
    keyword arguments of one ``lisa_permutation`` call; exhaustive only for
    n <= 7."""
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    links = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    neighbors = [[] for _ in range(n)]
    for (i, j), linked in zip(pairs, links):
        if linked:
            neighbors[i].append(j)
            neighbors[j].append(i)
    ids = [f"r{i}" for i in range(n)]
    kind = draw(st.sampled_from(["binary", "row-standardized", "unequal"]))
    if kind == "unequal":  # the order of a region's draws then matters to its lag
        weight = st.floats(0.1, 10)
        W = SpatialWeights.from_rows(ids, neighbors, [[draw(weight) for _ in nbrs] for nbrs in neighbors])
    else:
        W = SpatialWeights.from_rows(ids, neighbors)
    if kind == "row-standardized":
        W = row_standardize(W)
    # small integers give ties between draws and the observation
    values = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e3, 1e3, allow_nan=False))
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        try:
            fields.append(ValueField(draw(st.lists(values, min_size=n, max_size=n))))
        except ZeroVarianceError:
            assume(False)
    if n <= 7 and draw(st.booleans()):
        kwargs = {"exhaustive": True}
    else:
        kwargs = {"permutations": draw(st.sampled_from([1, 2, 7, 99])), "seed": draw(st.integers(0, 2**32))}
    kwargs["sided"] = draw(st.sampled_from(["greater", "less", "one_sided_folded"]))
    return fields, W, kwargs


class TestLisaOracle:
    """Blocked evaluation gives the p-values of the one-region-at-a-time
    loop bit for bit."""

    @given(lisa_cases())
    @settings(max_examples=200, deadline=None)
    def test_equals_per_region_loop(self, case):
        fields, W, kwargs = case
        got = lisa_permutation(fields, W, **kwargs)
        for p, expected in zip(got, lisa_oracle(fields, W, **kwargs), strict=True):
            assert np.array_equal(p, expected)

    # graphs and integer values where a region's observation equals its
    # reference but for rounding, so the sign of a deviation of about 1e-16
    # decides the folded tail: I_i needs one BLAS dot per region and field,
    # the reference libm pow for z_i ** 2
    TIED = [
        ([1, 1, 0, 0, 1, 1, 0],
         [[2, 4, 5], [2, 6], [0, 1, 3, 4, 5, 6], [2, 4, 5], [0, 2, 3, 6], [0, 2, 3], [1, 2, 4]]),
        ([3, 1, 0, 3, 3, 0],
         [[1, 2, 3, 4, 5], [0, 2, 3, 4, 5], [0, 1], [0, 1, 4, 5], [0, 1, 3], [0, 1, 3]]),
        ([4, 0, 3, 2, 4, 0, 2],
         [[4], [2, 3, 4, 6], [1, 5, 6], [1], [0, 1, 6], [2, 6], [1, 2, 4, 5]]),
        ([0, 0, 0, 1, 1, 1, 0],
         [[1, 2, 3, 6], [0, 4], [0], [0, 4, 5], [1, 3, 5, 6], [3, 4], [0, 4]]),
        ([1, 0, 0, 1, 3, 0],
         [[1, 2, 3, 4, 5], [0, 2, 3, 5], [0, 1, 3, 4, 5], [0, 1, 2, 4], [0, 2, 3, 5], [0, 1, 2, 4]]),
    ]

    @pytest.mark.parametrize("x, neighbors", TIED)
    @pytest.mark.parametrize("kwargs", [{"permutations": 99, "seed": 0}, {"exhaustive": True}])
    def test_observation_at_its_reference(self, x, neighbors, kwargs):
        W = row_standardize(SpatialWeights.from_rows([f"r{i}" for i in range(len(x))], neighbors))
        fields = [ValueField(x), ValueField(x[::-1])]
        got = lisa_permutation(fields, W, **kwargs)
        for p, expected in zip(got, lisa_oracle(fields, W, **kwargs), strict=True):
            assert np.array_equal(p, expected)

    @pytest.mark.parametrize("permutations", [99, 999])
    def test_many_blocks_per_degree(self, permutations):
        # 12x12 queen: 100 regions of degree 8 go in blocks of 10 at R=99, of 1 at R=999
        W = row_standardize(queen_adjacency(grid_geometries(12, 12)))
        rng = np.random.default_rng(40)
        fields = [ValueField(rng.normal(0, 1, W.n)) for _ in range(2)]
        got = lisa_permutation(fields, W, permutations=permutations, seed=11)
        for p, expected in zip(got, lisa_oracle(fields, W, permutations=permutations, seed=11), strict=True):
            assert np.array_equal(p, expected)


class TestDegenerateInputs:
    @staticmethod
    def all_islands():
        return SpatialWeights.from_neighbors(list("abc"), {})

    def test_global_without_links_refused(self):
        f = ValueField([1.0, 2.0, 4.0])
        with pytest.raises(DataError, match="link no two regions"):
            moran_global(f, self.all_islands())
        with pytest.raises(DataError, match="link no two regions"):
            moran_permutation(f, self.all_islands(), permutations=9)

    def test_local_without_links_gives_p_one(self):
        f = ValueField([1.0, 2.0, 4.0])
        assert lisa_permutation(f, self.all_islands(), permutations=9).tolist() == [1.0] * 3

    @pytest.mark.parametrize("test", [moran_permutation, lisa_permutation])
    @pytest.mark.parametrize("islands", [False, True])
    def test_unknown_sidedness_refused(self, test, islands, queen_6x6_rs):
        W = self.all_islands() if islands else queen_6x6_rs
        f = ValueField(np.random.default_rng(41).normal(0, 1, W.n))
        with pytest.raises(ParameterError, match="unknown sidedness 'bogus'"):
            test(f, W, permutations=9, sided="bogus")


class TestClassify:
    def test_all_insignificant(self, rook_2x2_rs):
        f = ValueField(CHECKERBOARD)
        res = lisa_classify(f, rook_2x2_rs, np.ones(4))
        assert res.labels == ["ns"] * 4
        assert res.tiers == [None] * 4

    def test_checkerboard_outlier_labels(self, rook_2x2_rs):
        f = ValueField(CHECKERBOARD)
        res = lisa_classify(f, rook_2x2_rs, np.full(4, 0.001))
        assert res.labels == ["HL", "LH", "LH", "HL"]
        assert res.tiers == [0.001] * 4

    def test_tier_assignment(self, pair_weights):
        f = ValueField([1.0, -1.0])
        res = lisa_classify(f, pair_weights, np.array([0.004, 0.2]))
        assert res.labels == ["HL", "ns"]
        assert res.tiers == [0.01, None]

    def test_alpha_above_finest_tier(self, pair_weights):
        # p in (0.05, alpha] is significant but meets no tier
        f = ValueField([1.0, -1.0])
        res = lisa_classify(f, pair_weights, np.array([0.08, 0.2]), alpha=0.1)
        assert res.labels == ["HL", "ns"]
        assert res.tiers == [None, None]

    def test_hh_label(self):
        from mobility_esda.weights import SpatialWeights, row_standardize

        W = row_standardize(
            SpatialWeights.from_neighbors(
                ["a", "b", "c", "d"],
                {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]},
            )
        )
        f = ValueField([5.0, 4.0, -5.0, -4.0])
        res = lisa_classify(f, W, np.full(4, 0.004))
        assert res.labels == ["HH", "HH", "LL", "LL"]
        assert res.tiers == [0.01] * 4

    def test_bad_alpha(self, pair_weights):
        f = ValueField([1.0, -1.0])
        with pytest.raises(ParameterError):
            lisa_classify(f, pair_weights, np.ones(2), alpha=1.5)


class TestAffineInvariance:
    @given(
        a=st.floats(min_value=0.1, max_value=50, allow_nan=False),
        b=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_positive_scaling_and_shift(self, a, b):
        W = row_standardize(queen_adjacency(grid_geometries(4, 4)))
        x = np.random.default_rng(20).normal(0, 10, 16)
        f1 = ValueField(x)
        f2 = ValueField(a * x + b)
        assert moran_global(f2, W) == pytest.approx(moran_global(f1, W), abs=1e-9)
        assert np.allclose(f2.z * spatial_lag(W, f2.z), f1.z * spatial_lag(W, f1.z), atol=1e-9)
        p1 = lisa_permutation(f1, W, permutations=49, seed=3)
        p2 = lisa_permutation(f2, W, permutations=49, seed=3)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_negation_swaps_cluster_labels(self):
        W = row_standardize(queen_adjacency(grid_geometries(4, 4)))
        x = np.random.default_rng(21).normal(0, 10, 16)
        f1 = ValueField(x)
        f2 = ValueField(-x)
        assert moran_global(f2, W) == pytest.approx(moran_global(f1, W), abs=1e-12)
        p1 = lisa_permutation(f1, W, permutations=99, seed=4)
        p2 = lisa_permutation(f2, W, permutations=99, seed=4)
        assert np.allclose(p1, p2, atol=1e-12)
        swap = {"HH": "LL", "LL": "HH", "LH": "HL", "HL": "LH", "ns": "ns"}
        r1 = lisa_classify(f1, W, p1)
        r2 = lisa_classify(f2, W, p2)
        assert r2.labels == [swap[lbl] for lbl in r1.labels]
