"""Seeded synthetic inputs: a Community Mobility Report CSV and its grid GeoJSON.

The country ``SY`` is a ``rows x cols`` lattice of unit squares whose
sub-regions are named ``cell<r>_<c>``. The CSV follows the published
report layout (the nine identifier columns, then the six percent-change
columns) and starts on 2020-02-15, the first day of the paper's window.
One national row per day precedes the sub-regions, as in the real file.

Each cell value is a west-east and north-south gradient (so global and
local Moran are significant), plus a weekday cycle (so the seasonal
decomposition has work), a lockdown-style step, and noise. About one
cell in a hundred is left blank so mean imputation runs.
"""

from __future__ import annotations

import datetime as dt
import json

import numpy as np

COUNTRY = "SY"
START = dt.date(2020, 2, 15)
BLANK_RATE = 0.01

HEADER = (
    "country_region_code",
    "country_region",
    "sub_region_1",
    "sub_region_2",
    "metro_area",
    "iso_3166_2_code",
    "census_fips_code",
    "place_id",
    "date",
    "retail_and_recreation_percent_change_from_baseline",
    "grocery_and_pharmacy_percent_change_from_baseline",
    "parks_percent_change_from_baseline",
    "transit_stations_percent_change_from_baseline",
    "workplaces_percent_change_from_baseline",
    "residential_percent_change_from_baseline",
)

# logical names of the six percent-change columns, in header order
CATEGORIES = (
    "retail_recreation",
    "grocery_pharmacy",
    "parks",
    "transit_stations",
    "workplaces",
    "residential",
)

# per-category level, lockdown step and weekday amplitude; residential
# moves against the other five, as it does in the published reports
_LEVEL = np.array([-10.0, 5.0, -5.0, -15.0, -10.0, 5.0])
_STEP = np.array([-45.0, -20.0, -40.0, -45.0, -35.0, 15.0])
_WEEKLY = np.array([6.0, 4.0, 9.0, 5.0, -12.0, 4.0])


def region_name(r: int, c: int) -> str:
    return f"cell{r}_{c}"


def mobility_values(rows: int, cols: int, days: int, seed: int) -> np.ndarray:
    """(rows*cols, days, 6) values with NaN for blank cells, rounded to 2 dp."""
    rng = np.random.default_rng(seed)
    r = np.repeat(np.arange(rows), cols) / max(rows - 1, 1)
    c = np.tile(np.arange(cols), rows) / max(cols - 1, 1)
    gradient = 30.0 * c + 15.0 * r  # (n,)
    d = np.arange(days)
    weekday = np.sin(2 * np.pi * d / 7)  # (days,)
    lockdown = 1.0 / (1.0 + np.exp(-(d - 30) / 3.0))  # (days,)
    values = (
        _LEVEL
        + gradient[:, None, None] * np.where(_STEP > 0, -0.5, 1.0)
        + lockdown[None, :, None] * _STEP
        + weekday[None, :, None] * _WEEKLY
        + rng.normal(0.0, 3.0, size=(rows * cols, days, 6))
    )
    values = np.round(np.clip(values, -95.0, 95.0), 2)
    values[rng.random(values.shape) < BLANK_RATE] = np.nan
    return values


def _cells(row) -> str:
    return ",".join("" if np.isnan(v) else f"{v:.2f}" for v in row)


def mobility_csv(rows: int, cols: int, days: int, seed: int) -> str:
    """CMR-layout CSV text for the grid country over ``days`` days."""
    values = mobility_values(rows, cols, days, seed)
    national = np.round(np.nanmean(values, axis=0), 2)
    dates = [(START + dt.timedelta(days=k)).isoformat() for k in range(days)]
    lines = [",".join(HEADER)]
    for k, date in enumerate(dates):
        lines.append(f"{COUNTRY},Synthetia,,,,,,SYPLACE0,{date},{_cells(national[k])}")
    for i in range(rows * cols):
        name = region_name(*divmod(i, cols))
        ident = f"{COUNTRY},Synthetia,{name},,,{COUNTRY}-{i + 1},,SYPLACE{i + 1}"
        for k, date in enumerate(dates):
            lines.append(f"{ident},{date},{_cells(values[i, k])}")
    return "\n".join(lines) + "\n"


def grid_geojson(rows: int, cols: int) -> dict:
    """Unit squares with the lower-left corner of cell (r, c) at (c, -r)."""
    features = []
    for r in range(rows):
        for c in range(cols):
            x, y = float(c), float(-r)
            ring = [[x, y], [x + 1, y], [x + 1, y + 1], [x, y + 1], [x, y]]
            features.append(
                {
                    "type": "Feature",
                    "properties": {"region_id": region_name(r, c)},
                    "geometry": {"type": "Polygon", "coordinates": [ring]},
                }
            )
    return {"type": "FeatureCollection", "features": features}


def write_inputs(directory, rows: int, cols: int, days: int, seed: int) -> tuple[str, str]:
    """Write ``mobility.csv`` and ``regions.geojson``; return their paths."""
    csv_path = directory / "mobility.csv"
    geo_path = directory / "regions.geojson"
    csv_path.write_text(mobility_csv(rows, cols, days, seed))
    geo_path.write_text(json.dumps(grid_geojson(rows, cols)) + "\n")
    return str(csv_path), str(geo_path)
