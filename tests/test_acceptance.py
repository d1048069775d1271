"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them all).
"""

import datetime as dt
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mobility_esda.cli import main
from mobility_esda.geometry import RegionGeometry
from mobility_esda.indicator import (
    RadarConfig,
    baseline_area,
    circulation_indicator,
    radar_area,
    radar_radii,
)
from mobility_esda.ingest import CATEGORIES, impute_missing, region_key
from mobility_esda.moran import (
    ValueField,
    lisa_classify,
    lisa_permutation,
    moran_global,
    moran_permutation,
    spatial_lag,
)
from mobility_esda.timeseries import stl_decompose
from mobility_esda.weights import (
    SpatialWeights,
    queen_adjacency,
    rook_adjacency,
    row_standardize,
)

from conftest import (
    exhaustive_conditional_p,
    exhaustive_pseudo_p,
    flat_values,
    grid_geometries,
    make_table,
    moran_oracle,
    square,
)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num:2d} FAIL  {desc}")
                raise
            print(f"\ncriterion {num:2d} PASS  {desc}")

        return wrapper

    return deco


def days(start, n):
    d0 = dt.date.fromisoformat(start)
    return [d0 + dt.timedelta(days=i) for i in range(n)]


@criterion(1, "global index exact on antithetic pair, checkerboard and like columns")
def test_01_moran_exactness():
    pair = row_standardize(SpatialWeights.from_rows(["a", "b"], [[1], [0]]))
    assert moran_global(ValueField([3.0, -3.0]), pair) == pytest.approx(-1.0, abs=1e-12)

    rook22 = row_standardize(rook_adjacency(grid_geometries(2, 2)))
    checker = [10.0, -10.0, -10.0, 10.0]  # row-major 2x2 checkerboard
    assert moran_global(ValueField(checker), rook22) == pytest.approx(-1.0, abs=1e-12)

    columns = [10.0, -10.0, 10.0, -10.0]  # two like columns
    assert moran_global(ValueField(columns), rook22) == pytest.approx(0.0, abs=1e-12)


@criterion(2, "mean of local indices equals the global index (50 random fields)")
def test_02_local_global_consistency(queen_6x6_rs):
    rng = np.random.default_rng(42)
    for _ in range(50):
        field = ValueField(rng.normal(0, 3, 36))
        local = field.z * spatial_lag(queen_6x6_rs, field.z)
        assert local.mean() == pytest.approx(moran_global(field, queen_6x6_rs), abs=1e-9)


@criterion(3, "exhaustive pseudo-p matches brute-force enumeration")
def test_03_permutation_oracle(star_5):
    rng = np.random.default_rng(5)
    W = row_standardize(rook_adjacency(grid_geometries(2, 3)))
    for _ in range(3):
        x = rng.normal(0, 1, 6)
        [result] = moran_permutation([ValueField(x)], W, exhaustive=True)
        assert result.pseudo_p == exhaustive_pseudo_p(x, W)
        assert result.permutations == 720

    x = rng.normal(0, 1, 5)
    field = ValueField(x)
    [p] = lisa_permutation([field], star_5, exhaustive=True)
    for i in range(5):
        assert p[i] == exhaustive_conditional_p(field.z, star_5, i)


@criterion(4, "pseudo-p rejection rate under the null lies in [0.01, 0.10]")
def test_04_calibration():
    W = row_standardize(rook_adjacency(grid_geometries(5, 5)))
    rng = np.random.default_rng(2020)
    rejections = 0
    trials = 200
    for t in range(trials):
        field = ValueField(rng.normal(0, 1, 25))
        [result] = moran_permutation([field], W, permutations=199, seed=t)
        if result.pseudo_p <= 0.05:
            rejections += 1
    assert 0.01 <= rejections / trials <= 0.10


@criterion(5, "queen and rook contiguity degree sequences on the unit grid")
def test_05_contiguity():
    geoms = grid_geometries(3, 3)
    queen = queen_adjacency(geoms)
    rook = rook_adjacency(geoms)
    assert [queen.degree(i) for i in range(9)] == [3, 5, 3, 5, 8, 5, 3, 5, 3]
    assert [rook.degree(i) for i in range(9)] == [2, 3, 2, 3, 4, 3, 2, 3, 2]
    for shape in ((2, 2), (3, 3), (2, 4), (4, 4), (5, 3)):
        gs = grid_geometries(*shape)
        q = queen_adjacency(gs)
        r = rook_adjacency(gs)
        for i in range(q.n):
            assert set(r.neighbors(i)) <= set(q.neighbors(i))


@criterion(6, "indicator closed forms and axis-rotation invariance")
def test_06_indicator_closed_forms():
    def indicator_at(level):
        window = days("2020-03-01", 3)
        table = make_table([("XX", "", d.isoformat(), flat_values(level)) for d in window])
        series = circulation_indicator(table, [region_key("XX", "")], RadarConfig(), (window[0], window[-1]))
        return series.indicators[0]

    assert indicator_at(0.0) == pytest.approx(np.ones(3))
    assert indicator_at(-100.0) == pytest.approx(np.zeros(3))
    assert indicator_at(-50.0) == pytest.approx(np.full(3, 0.25))

    assert baseline_area() == pytest.approx(25980.76211353316, rel=1e-6)
    # closed form: 6 * (1/2) * 100^2 * sin 60
    assert baseline_area() == pytest.approx(6 * 0.5 * 100**2 * np.sqrt(3) / 2, rel=1e-12)

    values = dict(zip(CATEGORIES, [-30.0, -10.0, -80.0, -55.0, -40.0, 5.0]))
    base = radar_area(radar_radii(values))
    for shift in range(1, 6):
        order = CATEGORIES[shift:] + CATEGORIES[:shift]
        rotated = radar_area(radar_radii(values, RadarConfig(axis_order=order)))
        assert rotated == pytest.approx(base, rel=1e-12)


@criterion(7, "season-trend decomposition identity and weekly recovery")
def test_07_stl():
    rng = np.random.default_rng(3)
    n = 70
    pattern = np.array([4.0, 2.0, -1.0, -3.0, -2.0, 1.0, -1.0])
    pattern -= pattern.mean()

    noisy = 20 + 0.3 * np.arange(n) + np.tile(pattern, 10) + rng.normal(0, 1, n)
    dec = stl_decompose(noisy)
    identity_err = np.max(np.abs(noisy - (dec.trend + dec.seasonal + dec.residual)))
    assert identity_err <= 1e-9 * np.max(np.abs(noisy))

    clean = -35.0 + np.tile(pattern, 10)
    dec = stl_decompose(clean)
    assert np.max(np.abs(dec.seasonal - np.tile(pattern, 10))) < 1e-6

    const = np.full(n, -12.5)
    dec = stl_decompose(const)
    assert np.max(np.abs(dec.seasonal)) < 1e-9


@criterion(8, "mean imputation properties and fixture missing rate 18.28%")
def test_08_imputation():
    rng = np.random.default_rng(8)
    dates = days("2020-03-01", 10)
    rows = []
    for s in range(5):
        for d in dates:
            vals = {c: float(np.round(rng.normal(-40, 15), 2)) for c in CATEGORIES}
            for c in CATEGORIES:
                if rng.random() < 0.15:
                    vals[c] = None
            rows.append(("XX", f"s{s}", d.isoformat(), vals))
    table = make_table(rows)
    filled, report = impute_missing(table)
    # present values preserved
    present = ~np.isnan(table.values)
    assert np.array_equal(filled.values[present], table.values[present])
    # column means preserved
    for c in CATEGORIES:
        before, after = (t.values[:, CATEGORIES.index(c)] for t in (table, filled))
        assert np.mean(after) == pytest.approx(np.mean(before[~np.isnan(before)]))
    # idempotence
    refilled, report2 = impute_missing(filled)
    assert np.array_equal(filled.values, refilled.values)
    assert all(e.missing_count == 0 for e in report2.entries)

    # Colombia-shaped fixture: 457 of 2500 residential cells blank
    rng = np.random.default_rng(12)
    blank = set(rng.choice(2500, size=457, replace=False).tolist())
    rows = []
    k = 0
    for s in range(50):
        for d in days("2020-02-15", 50):
            vals = flat_values(-30.0)
            if k in blank:
                vals = dict(vals)
                vals["residential"] = None
            rows.append(("CO", f"dept{s:02d}", d.isoformat(), vals))
            k += 1
    _, report = impute_missing(make_table(rows))
    entry = report.entry("CO", "residential")
    assert entry.missing_rate == pytest.approx(0.1828, abs=5e-5)


@criterion(9, "same-seed analysis runs are byte-identical")
def test_09_determinism(synthetic_country, tmp_path):
    csv_path, geo_path = synthetic_country

    def run(out):
        code = main(
            [
                "moran",
                "--input", str(csv_path),
                "--geometry", str(geo_path),
                "--country", "SY",
                "--from", "2020-03-01",
                "--to", "2020-03-21",
                "--permutations", "199",
                "--seed", "1234",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    h1 = run(tmp_path / "run1")
    h2 = run(tmp_path / "run2")
    assert h1 == h2
    assert any(name.endswith(".svg") for name in h1)


@criterion(10, "affine invariance of the analysis; negation swaps cluster labels")
def test_10_affine_invariance(queen_6x6_rs):
    W = queen_6x6_rs
    rng = np.random.default_rng(10)
    x = rng.normal(-40, 12, 36)

    base = ValueField(x)
    [p_base] = lisa_permutation([base], W, permutations=199, seed=9)
    res_base = lisa_classify(base, W, p_base)
    i_base = moran_global(base, W)

    for a, b in ((2.5, 0.0), (1.0, 17.0), (0.3, -8.0)):
        aff = ValueField(a * x + b)
        assert moran_global(aff, W) == pytest.approx(i_base, abs=1e-12)
        [p_aff] = lisa_permutation([aff], W, permutations=199, seed=9)
        assert p_aff == pytest.approx(p_base, abs=1e-12)
        res_aff = lisa_classify(aff, W, p_aff)
        assert res_aff.labels == res_base.labels

    neg = ValueField(-x)
    assert moran_global(neg, W) == pytest.approx(i_base, abs=1e-12)
    [p_neg] = lisa_permutation([neg], W, permutations=199, seed=9)
    assert p_neg == pytest.approx(p_base, abs=1e-12)
    res_neg = lisa_classify(neg, W, p_neg)
    swap = {"HH": "LL", "LL": "HH", "LH": "HL", "HL": "LH", "ns": "ns"}
    assert res_neg.labels == [swap[lbl] for lbl in res_base.labels]
