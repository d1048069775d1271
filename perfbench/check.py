"""Output checks against oracles that share no code with the program.

The reference is recomputed from the generated CSV with the standard
``csv`` module and numpy: mean imputation per category over the whole
country, the radar-area closed form for the indicator, and the global
Moran index as a plain double loop over queen neighbours of the grid.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

WINDOW = ("2020-02-15", "2020-05-16")  # the CLI's default analysis window
TOL = 1e-9


@dataclass
class Reference:
    regions: list[str]  # sub-region names in GeoJSON (row-major) order
    dates: list[str]  # window dates, ascending
    indicator: np.ndarray  # (regions, dates) radar area over baseline area
    window_mean: dict[str, np.ndarray]  # category -> (regions,) imputed window mean
    neighbors: list[list[int]]  # queen neighbours on the grid


def queen_neighbors(rows: int, cols: int) -> list[list[int]]:
    out = []
    for r in range(rows):
        for c in range(cols):
            out.append(
                [
                    rr * cols + cc
                    for rr in range(max(r - 1, 0), min(r + 2, rows))
                    for cc in range(max(c - 1, 0), min(c + 2, cols))
                    if (rr, cc) != (r, c)
                ]
            )
    return out


def reference(csv_path, rows: int, cols: int) -> Reference:
    """Expected outputs for the generated ``rows x cols`` country."""
    cells: dict[str, dict[str, list[float]]] = {}
    column = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        first = header.index(gen.HEADER[-6])
        sub_at, date_at = header.index("sub_region_1"), header.index("date")
        for row in reader:
            values = [float(v) if v else math.nan for v in row[first : first + 6]]
            column.append(values)
            cells.setdefault(row[sub_at], {})[row[date_at]] = values
    fill = np.nanmean(np.array(column), axis=0)  # one mean per category, national rows too

    regions = [gen.region_name(r, c) for r in range(rows) for c in range(cols)]
    dates = sorted(d for d in cells[regions[0]] if WINDOW[0] <= d <= WINDOW[1])
    block = np.array([[cells[name][d] for d in dates] for name in regions])  # (n, days, 6)
    block = np.where(np.isnan(block), fill, block)

    radii = block + 100.0  # chart centre C = -100
    area = np.sum(radii * np.roll(radii, -1, axis=2), axis=2)  # sin 60 / 2 cancels
    indicator = area / (6 * 100.0**2)
    window_mean = {cat: block[:, :, k].mean(axis=1) for k, cat in enumerate(gen.CATEGORIES)}
    return Reference(regions, dates, indicator, window_mean, queen_neighbors(rows, cols))


def moran_oracle(x, neighbors: list[list[int]]) -> float:
    """Global Moran's I with row-standardized weights, as a double loop."""
    x = [float(v) for v in x]
    n = len(x)
    mu = sum(x) / n
    num = s0 = 0.0
    for i in range(n):
        for j in neighbors[i]:
            w = 1.0 / len(neighbors[i])
            num += w * (x[i] - mu) * (x[j] - mu)
            s0 += w
    return (n / s0) * num / sum((v - mu) ** 2 for v in x)


def _p_in_range(p: float, permutations: int) -> bool:
    return 1.0 / (permutations + 1) - 1e-12 <= p <= 1.0


def check_moran(out_dir: Path, ref: Reference, categories, permutations: int) -> list[str]:
    failures = []
    for cat in categories:
        try:
            failures += _check_category(out_dir / cat, ref, cat, permutations)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"{cat}: unreadable or malformed output: {exc!r}")
    return failures


def _check_category(cat_dir: Path, ref: Reference, cat: str, permutations: int) -> list[str]:
    failures = []
    doc = json.loads((cat_dir / "global.json").read_text())
    with open(cat_dir / "lisa.csv", newline="") as fh:
        lisa = list(csv.DictReader(fh))
    expected = moran_oracle(ref.window_mean[cat], ref.neighbors)
    if not abs(doc["I"] - expected) <= TOL:
        failures.append(f"{cat}: I = {doc['I']!r}, double loop gives {expected!r}")
    if not _p_in_range(doc["pseudo_p"], permutations):
        failures.append(f"{cat}: global pseudo-p {doc['pseudo_p']} outside [1/(R+1), 1]")
    if len(lisa) != len(ref.regions) or {r["region_id"] for r in lisa} != set(ref.regions):
        failures.append(f"{cat}: lisa.csv has {len(lisa)} rows for {len(ref.regions)} regions")
    bad = [r["region_id"] for r in lisa if not _p_in_range(float(r["pseudo_p"]), permutations)]
    if bad:
        failures.append(f"{cat}: local pseudo-p outside [1/(R+1), 1] for {bad[:5]}")
    return failures


def check_indicator(out_dir: Path, ref: Reference, deseasonalized: bool) -> list[str]:
    try:
        with open(out_dir / "circulation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        failures = _check_circulation(rows, ref, deseasonalized)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable or malformed circulation.csv: {exc!r}"]
    radars = len(list(out_dir.glob("radar-*.svg")))
    if radars != len(ref.regions):
        failures.append(f"{radars} radar figures for {len(ref.regions)} regions")
    return failures


def _check_circulation(rows: list[dict], ref: Reference, deseasonalized: bool) -> list[str]:
    failures = []
    expected = len(ref.regions) * len(ref.dates)
    if len(rows) != expected:
        failures.append(f"circulation.csv has {len(rows)} rows, expected {expected}")
    region_at = {f"{gen.COUNTRY}/{name}": i for i, name in enumerate(ref.regions)}
    date_at = {d: k for k, d in enumerate(ref.dates)}
    worst = 0.0
    for row in rows:
        i, k = region_at.get(row["region_id"]), date_at.get(row["date"])
        if i is None or k is None:
            failures.append(f"unexpected row {row['region_id']} {row['date']}")
            break
        worst = max(worst, abs(float(row["indicator"]) - ref.indicator[i, k]))
        if deseasonalized and not math.isfinite(float(row["indicator_deseasonalized"])):
            failures.append(f"non-finite deseasonalized value at {row['region_id']} {row['date']}")
            break
    if not worst <= TOL:
        failures.append(f"indicator differs from the radar-area closed form by {worst!r}")
    return failures


def digest(out_dir: Path) -> tuple[str, int]:
    """(sha256 over relative paths and contents, total bytes) of a directory."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total

