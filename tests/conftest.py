"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own code paths: the
Moran oracle is a plain double loop over the weights, the LOESS oracle
solves each local weighted least-squares problem directly, the STL
oracle runs the decomposition loop with one least-squares fit per
point, the permutation oracles enumerate relabelings by brute force, the
LISA oracle evaluates one region at a time on its own stream, the
parse oracle decodes the whole input and checks it row by row, the
contiguity oracle tests every pair of regions, and the imputation oracle
picks each country's rows by a boolean mask.
"""

from __future__ import annotations

import csv
import datetime as dt
import importlib.util
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mobility_esda.errors import DataError, SchemaError
from mobility_esda.geometry import RegionGeometry, Ring
from mobility_esda.ingest import CATEGORIES, DEFAULT_COLUMNS, FINER_LEVEL_COLUMNS, MobilityTable
from mobility_esda.weights import (
    SpatialWeights,
    _vertex_touches,
    queen_adjacency,
    rook_adjacency,
    row_standardize,
)


# ---------------------------------------------------------------- oracles

def moran_oracle(x, W: SpatialWeights) -> float:
    """Direct double-sum evaluation of the global index."""
    x = list(map(float, x))
    n = len(x)
    mu = sum(x) / n
    num = 0.0
    s0 = 0.0
    for i in range(n):
        for j, w in zip(W.neighbors(i), W.weights(i)):
            num += w * (x[i] - mu) * (x[j] - mu)
            s0 += w
    den = sum((xi - mu) ** 2 for xi in x)
    return (n / s0) * num / den


def loess_oracle_point(xs, ys, window, degree, x0) -> float:
    """Weighted least-squares fit at a single point, solved via the
    normal equations on an explicit polynomial basis."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    d = np.abs(xs - x0)
    idx = np.argsort(d, kind="stable")[:window]
    h = d[idx].max()
    u = d[idx] / h
    w = np.where(u < 1, (1 - u**3) ** 3, 0.0)
    X = np.column_stack([(xs[idx] - x0) ** p for p in range(degree + 1)])
    WX = X * w[:, None]
    beta = np.linalg.solve(WX.T @ X, WX.T @ ys[idx])
    return float(beta[0])


def _loess_eval_oracle(xs, ys, window, degree, eval_xs, rho):
    """Per-point weighted LOESS by least squares, one fit per eval x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.empty(len(eval_xs))
    for k, x0 in enumerate(eval_xs):
        d = np.abs(xs - x0)
        idx = np.argsort(d, kind="stable")[:window]
        h = d[idx].max()
        if h == 0:
            out[k] = ys[idx[0]]
            continue
        u = d[idx] / h
        w = np.clip(1 - u**3, 0, None) ** 3 * rho[idx]
        t = xs[idx] - x0
        A = np.vander(t, degree + 1, increasing=True)
        sw = np.sqrt(w)
        coef, *_ = np.linalg.lstsq(A * sw[:, None], ys[idx] * sw, rcond=None)
        out[k] = coef[0]
    return out


def stl_oracle(y, period=7, seasonal_window=7, inner_iters=2, outer_iters=0, trend_window=None):
    """Season-trend decomposition fitted point by point: the classic loop
    with one weighted least-squares solve per evaluation point and no
    precomputed operators. Returns (trend, seasonal)."""
    y = np.asarray(y, dtype=float)
    n = len(y)

    def odd_at_most(k, m):
        k = min(k, m)
        return k if k % 2 == 1 else k - 1

    def moving_average(values, length):
        return np.convolve(values, np.full(length, 1.0 / length), mode="valid")

    if trend_window is None:
        w = int(np.ceil(1.5 * period / (1 - 1.5 / seasonal_window)))
        trend_window = w + 1 if w % 2 == 0 else w
    trend_window = odd_at_most(trend_window, n)
    lowpass_window = period if period % 2 == 1 else period + 1
    grid = np.arange(n, dtype=float)

    rho = np.ones(n)  # robustness weights
    trend = np.zeros(n)
    seasonal = np.zeros(n)
    for outer in range(outer_iters + 1):
        for _inner in range(inner_iters):
            detrended = y - trend
            C = np.empty(n + 2 * period)
            for k in range(period):
                sub_idx = np.arange(k, n, period)
                sub = detrended[sub_idx]
                m = len(sub)
                win = max(odd_at_most(seasonal_window, m), 1)
                positions = np.arange(m, dtype=float)
                eval_pos = np.arange(-1, m + 1, dtype=float)
                deg = 1 if win >= 2 else 0
                C[k::period][: m + 2] = _loess_eval_oracle(
                    positions, sub, win, deg, eval_pos, rho[sub_idx]
                )
            L = moving_average(C, period)
            L = moving_average(L, period)
            L = moving_average(L, 3)
            L = _loess_eval_oracle(grid, L, odd_at_most(lowpass_window, n), 1, grid, np.ones(n))
            seasonal = C[period : period + n] - L
            trend = _loess_eval_oracle(grid, y - seasonal, trend_window, 1, grid, rho)
        resid = y - trend - seasonal
        if outer < outer_iters:
            s = np.median(np.abs(resid))
            h = 6 * s if s > 0 else 1.0
            rho = np.clip(1 - (np.abs(resid) / h) ** 2, 0, None) ** 2
    return trend, seasonal


def _oracle_pseudo_p(observed: float, sims, reference: float) -> float:
    """(M + 1) / (R + 1), M counting the simulations at least as extreme as
    the observation on its side of the reference; a deviation of at most
    1e-12 is a tie, which counts every simulation."""
    sims = np.asarray(sims, dtype=float)
    R = len(sims)
    dev = observed - reference
    eps = 1e-12
    if abs(dev) <= eps:
        M = R
    elif dev > 0:
        M = int(np.sum(sims >= observed - eps))
    else:
        M = int(np.sum(sims <= observed + eps))
    return (M + 1) / (R + 1)


def exhaustive_pseudo_p(x, W: SpatialWeights) -> float:
    """Brute-force enumeration of all n! relabelings for the global test."""
    x = np.asarray(x, float)
    n = len(x)
    sims = [moran_oracle(x[list(p)], W) for p in itertools.permutations(range(n))]
    return _oracle_pseudo_p(moran_oracle(x, W), sims, -1.0 / (n - 1))


def exhaustive_conditional_p(z, W: SpatialWeights, i: int) -> float:
    """Brute-force conditional enumeration of the local test at region i."""
    z = np.asarray(z, float)
    n = len(z)
    nbrs = W.neighbors(i)
    wts = W.weights(i)
    others = np.delete(z, i)
    observed = z[i] * sum(w * z[j] for j, w in zip(nbrs, wts))
    sims = [
        z[i] * sum(w * others[a] for a, w in zip(arr, wts))
        for arr in itertools.permutations(range(n - 1), len(nbrs))
    ]
    return _oracle_pseudo_p(observed, sims, -(z[i] ** 2) * sum(wts) / (n - 1))


def _oracle_subset_draws(rng: np.random.Generator, m: int, k: int, size: int) -> np.ndarray:
    """One region's block of k-subsets, size x k, read from its stream as
    the package reads it: Floyd's subset algorithm on all rows at once."""
    picks = np.empty((size, k), dtype=np.intp)
    for t, j in enumerate(range(m - k, m)):
        draw = rng.integers(0, j + 1, size=size)
        repeat = (picks[:, :t] == draw[:, None]).any(axis=1)
        picks[:, t] = np.where(repeat, j, draw)
    return picks


def lisa_oracle(fields, W: SpatialWeights, permutations=999, seed=0, exhaustive=False) -> list[np.ndarray]:
    """Conditional-permutation p-values one region at a time: region i's
    draws come from ``default_rng((seed, i))`` (or every arrangement when
    exhaustive) and each field is evaluated on them with ``np.delete``."""
    n = W.n
    p = np.ones((len(fields), n))
    for i in range(n):
        nbrs, wts = W.neighbors(i), W.weights(i)
        k = len(nbrs)
        if k == 0:
            continue  # island: no lag, leave p = 1
        wsum = float(wts.sum())
        if exhaustive:
            draws = np.array(list(itertools.permutations(range(n - 1), k)))
        else:
            draws = _oracle_subset_draws(np.random.default_rng((seed, i)), n - 1, k, permutations)
        for f, field in enumerate(fields):
            z = field.z
            observed = float(z[i] * np.dot(wts, z[nbrs]))
            reference = -(z[i] ** 2) * wsum / (n - 1)
            sims = z[i] * (np.delete(z, i)[draws] @ wts)
            p[f, i] = _oracle_pseudo_p(observed, sims, reference)
    return list(p)


def _oracle_text(data: bytes) -> str:
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, lines ending at LF, CRLF or a lone CR
        line = len(io.StringIO(data[: exc.start].decode() + "?", newline="").readlines())
        raise SchemaError(
            f"line {line}: input is not UTF-8 text: byte {data[exc.start]:#04x}: {exc.reason}"
        ) from None


def parse_oracle(data: bytes, column_map=None, strict=True) -> MobilityTable:
    """Community-mobility CSV parsed row by row, the reference for
    ``parse_cmr_csv``: the whole input is decoded at once and each row's
    cells are checked one at a time. Lines end at LF, CRLF or a lone CR, as
    the ``csv`` module reads a file opened with ``newline=""``."""
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(columns)
        if unknown:
            raise SchemaError(f"unknown column-map keys: {sorted(unknown)}")
        columns.update(column_map)

    reader = csv.reader(io.StringIO(_oracle_text(data), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty input: no header row")
        # a repeated header name refers to its last column
        position = {name: i for i, name in enumerate(header)}
        missing_cols = [v for v in columns.values() if v not in position]
        if missing_cols:
            raise SchemaError(f"missing columns: {missing_cols}")
        wanted = [position[columns[k]] for k in ("country_code", "sub_region", "date", *CATEGORIES)]
        finer = [position[c] for c in FINER_LEVEL_COLUMNS if c in position]
        rows, issues, finer_rows = [], [], 0
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            cells = [row[i].strip() if i < len(row) else "" for i in wanted + finer]
            if any(cells[len(wanted):]):
                finer_rows += 1
                continue
            try:
                rows.append(_oracle_row(cells[: len(wanted)], lineno))
            except DataError as exc:
                if strict:
                    raise
                issues.append(str(exc))
    except csv.Error as exc:
        raise SchemaError(f"line {reader.line_num}: malformed CSV: {exc}") from None
    if finer_rows:
        issues.append(
            f"skipped {finer_rows} rows below the sub_region_1 level "
            f"({'/'.join(FINER_LEVEL_COLUMNS)} set)"
        )
    return table_from_rows(rows, issues)


def _oracle_row(cells: list[str], lineno: int) -> tuple[str, str, int, list[float]]:
    country, sub_region, raw_date, *raw = cells
    try:
        date = dt.date.fromisoformat(raw_date).toordinal()
    except ValueError:
        raise DataError(f"line {lineno}: unparseable date {raw_date!r}") from None
    if not country:
        raise DataError(f"line {lineno}: empty country code")
    if "/" in country:  # it would make region_key ambiguous
        raise DataError(f"line {lineno}: country code {country!r} contains '/'")
    values = []
    for cat, cell in zip(CATEGORIES, raw):
        if cell == "":
            values.append(math.nan)
            continue
        try:
            v = float(cell)
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric {cat} cell {cell!r}") from None
        if not math.isfinite(v):
            raise DataError(f"line {lineno}: non-finite {cat} cell {cell!r}")
        if v < -100:
            raise DataError(f"line {lineno}: {cat} value {v} below -100")
        values.append(v)
    return country, sub_region, date, values


def queen_oracle(geoms: list[RegionGeometry], snap_tol: float = 1e-7) -> SpatialWeights:
    """Queen weights by testing every pair: regions sharing a snapped vertex,
    and pairs whose tol-widened boxes overlap with a vertex of one lying on a
    segment of the other. Boxes are taken from the rings here and compared in
    plain float arithmetic, pair by pair."""
    snapped = [
        {(round(x / snap_tol), round(y / snap_tol)) for ring in g.rings for x, y in ring} for g in geoms
    ]
    boxes = []
    for g in geoms:
        xs = [x for ring in g.rings for x, _ in ring]
        ys = [y for ring in g.rings for _, y in ring]
        boxes.append((min(xs), min(ys), max(xs), max(ys)))
    adjacency = [set() for _ in geoms]
    for i, j in itertools.combinations(range(len(geoms)), 2):
        (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = boxes[i], boxes[j]
        overlap = (
            ax0 - snap_tol <= bx1 and bx0 - snap_tol <= ax1
            and ay0 - snap_tol <= by1 and by0 - snap_tol <= ay1
        )
        if snapped[i] & snapped[j] or overlap and (
            _vertex_touches(geoms[i], geoms[j], snap_tol) or _vertex_touches(geoms[j], geoms[i], snap_tol)
        ):
            adjacency[i].add(j)
            adjacency[j].add(i)
    return SpatialWeights.from_rows([g.region_id for g in geoms], adjacency)


def impute_oracle(table: MobilityTable):
    """Mean imputation with each country's rows picked by a boolean mask over
    the whole table and summed down the rows in table order. Returns the
    filled values, the fills by country in order of first appearance, and
    the report entries as (country, category, missing, total, fill) sorted
    by country and category."""
    row_country = np.array(table.country_codes, dtype=object)[table.region]
    absent = np.isnan(table.values)
    filled = table.values.copy()
    fills, entries = {}, []
    for country in dict.fromkeys(table.country_codes):
        rows = row_country == country
        total = int(rows.sum())
        missing = absent[rows].sum(axis=0)
        sums = np.where(absent[rows], 0.0, table.values[rows]).sum(axis=0)
        fills[country] = []
        for k, cat in enumerate(CATEGORIES):
            present = total - int(missing[k])
            if not present:
                raise DataError(f"cannot impute ({country}, {cat}): every value is missing")
            fills[country].append(float(sums[k]) / present)
            entries.append((country, cat, int(missing[k]), total, fills[country][-1]))
        filled[rows] = np.where(absent[rows], fills[country], table.values[rows])
    return filled, fills, sorted(entries, key=lambda e: e[:2])


# ---------------------------------------------------------------- fixtures

@pytest.fixture
def pair_weights():
    """Two mutually adjacent regions, row-standardized."""
    return row_standardize(SpatialWeights.from_rows(["a", "b"], [[1], [0]]))


@pytest.fixture
def rook_2x2():
    return rook_adjacency(grid_geometries(2, 2))


@pytest.fixture
def rook_2x2_rs(rook_2x2):
    return row_standardize(rook_2x2)


@pytest.fixture
def queen_6x6_rs():
    return row_standardize(queen_adjacency(grid_geometries(6, 6)))


@pytest.fixture(scope="session")
def gen():
    """The benchmark's input generator ``perfbench/gen.py``, whose seeded
    grids the pinned commands run on."""
    spec = importlib.util.spec_from_file_location("gen", Path(__file__).parents[1] / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def star_5():
    """Five regions, hub-and-spoke: s0 touches every leaf."""
    W = SpatialWeights.from_rows(["s0", "s1", "s2", "s3", "s4"], [[1, 2, 3, 4], [0], [0], [0], [0]])
    return row_standardize(W)


def table_from_rows(rows, issues=()) -> MobilityTable:
    """A table from rows of (country_code, sub_region, date ordinal, six values)."""
    rows = list(rows)
    pairs: dict[tuple[str, str], int] = {}
    region = [pairs.setdefault((row[0], row[1]), len(pairs)) for row in rows]
    return MobilityTable.from_columns(
        list(pairs),
        np.array(region, dtype=np.intp),
        np.array([row[2] for row in rows], dtype=np.int64),
        np.array([row[3] for row in rows], dtype=float).reshape(-1, len(CATEGORIES)),
        issues,
    )


def window_mask(table: MobilityTable, region_id: str, window: tuple[dt.date, dt.date]) -> np.ndarray:
    """The rows of one region dated inside the inclusive window, found by
    comparing every row's region and date (no search over sorted keys)."""
    region = table.region_ids.index(region_id) if region_id in table.region_ids else -1
    dates = table.dates
    return (table.region == region) & (dates >= window[0].toordinal()) & (dates <= window[1].toordinal())


def make_table(rows) -> MobilityTable:
    """rows: (country, sub_region, iso_date, {category: value_or_None})."""
    return table_from_rows(
        [
            (country, sub, dt.date.fromisoformat(date).toordinal(),
             [math.nan if values.get(cat) is None else values[cat] for cat in CATEGORIES])
            for country, sub, date, values in rows
        ]
    )


def flat_values(v: float) -> dict[str, float]:
    return {cat: v for cat in CATEGORIES}


def square(x: float, y: float, size: float = 1.0) -> list[Ring]:
    """Unit-square helper for fixtures: lower-left corner at (x, y)."""
    return [[(x, y), (x + size, y), (x + size, y + size), (x, y + size), (x, y)]]


def grid_geometries(
    nrows: int, ncols: int, prefix: str = "cell", size: float = 1.0
) -> list[RegionGeometry]:
    """A nrows x ncols lattice of adjacent squares, row-major ids."""
    geoms = []
    for r in range(nrows):
        for c in range(ncols):
            geoms.append(
                RegionGeometry(f"{prefix}{r}_{c}", square(c * size, -r * size, size))
            )
    return geoms


def grid_geojson(nrows: int, ncols: int) -> dict:
    """FeatureCollection mirroring grid_geometries ids and coordinates."""
    features = []
    for g in grid_geometries(nrows, ncols):
        features.append(
            {
                "type": "Feature",
                "properties": {"region_id": g.region_id},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[list(p) for p in ring] for ring in g.rings],
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def synthetic_country_csv(nrows: int, ncols: int, days: int, seed: int = 7) -> str:
    """Mobility CSV for a synthetic country 'SY' over a square grid.

    Values carry a smooth west-east spatial gradient plus weekday noise;
    a handful of cells are blanked to exercise imputation.
    """
    rng = np.random.default_rng(seed)
    header = (
        "country_region_code,sub_region_1,date,"
        "retail_and_recreation_percent_change_from_baseline,"
        "grocery_and_pharmacy_percent_change_from_baseline,"
        "parks_percent_change_from_baseline,"
        "transit_stations_percent_change_from_baseline,"
        "workplaces_percent_change_from_baseline,"
        "residential_percent_change_from_baseline"
    )
    lines = [header]
    start = dt.date(2020, 3, 1)
    for r in range(nrows):
        for c in range(ncols):
            base = -60 + 8 * c + 3 * r  # spatial gradient
            for d in range(days):
                date = start + dt.timedelta(days=d)
                cells = []
                for k in range(6):
                    v = base + 4 * k + 2 * math.sin(2 * math.pi * d / 7) + rng.normal(0, 1.5)
                    v = max(v, -100.0)
                    if rng.random() < 0.01:
                        cells.append("")
                    else:
                        cells.append(f"{v:.2f}")
                lines.append(f"SY,cell{r}_{c},{date.isoformat()}," + ",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture
def synthetic_country(tmp_path):
    """(csv_path, geojson_path) for a 4x4 synthetic country."""
    csv_path = tmp_path / "sy.csv"
    csv_path.write_text(synthetic_country_csv(4, 4, 21))
    geo_path = tmp_path / "sy.geojson"
    geo_path.write_text(json.dumps(grid_geojson(4, 4), indent=1))
    return csv_path, geo_path
