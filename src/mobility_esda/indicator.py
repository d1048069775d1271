"""Radar-area circulation indicator over the six mobility categories.

Each day's six percent changes are drawn as radii of a hexagonal radar
chart anchored at a common minimum value C; the hexagon area (sum of six
triangles, each half the product of adjacent radii times sin 60 degrees)
is compared against the baseline-level area to yield a dimensionless
circulation indicator: 1 means baseline-level circulation, 0 means none.
"""

from __future__ import annotations

import datetime as dt
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .ingest import CATEGORIES, MobilityTable

SIN_60 = math.sqrt(3) / 2


@dataclass(frozen=True)
class RadarConfig:
    center: float = -100.0
    axis_order: tuple[str, ...] = CATEGORIES

    def __post_init__(self):
        if sorted(self.axis_order) != sorted(CATEGORIES):
            raise ParameterError(
                f"axis_order must be a permutation of {CATEGORIES}, got {self.axis_order}"
            )
        if not (math.isfinite(self.center) and self.center <= -100.0):
            raise ParameterError(f"center must be finite and <= -100, got {self.center}")


@dataclass
class CirculationSeries:
    """Radar areas and indicators, (regions, days) over shared ``dates``, and
    the (regions, 6) window-mean category values."""

    region_ids: list[str]
    dates: list[dt.date]
    areas: np.ndarray
    indicators: np.ndarray  # areas over the baseline area
    window_means: np.ndarray


def radar_radii(values, config: RadarConfig = RadarConfig()) -> np.ndarray:
    """Radii in axis order: value minus the chart center C.

    ``values`` maps each category to its value, or is a (..., 6) array with
    the categories in ``CATEGORIES`` order, one row per chart.
    """
    if isinstance(values, dict):
        values = [values[cat] for cat in CATEGORIES]
    ordered = np.asarray(values, dtype=float)[..., [CATEGORIES.index(c) for c in config.axis_order]]
    below = np.argwhere(ordered < config.center)
    if below.size:
        cat, v = config.axis_order[below[0][-1]], float(ordered[tuple(below[0])])
        raise ParameterError(f"{cat} value {v} below center {config.center}")
    return ordered - config.center


def radar_area(radii):
    """Hexagon area: sum over adjacent radius pairs of (1/2) r_k r_{k+1} sin 60.

    Six radii give one area as a float; a (..., 6) array gives an array of
    areas, one per row.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim == 0 or radii.shape[-1] != 6:
        raise ParameterError(f"expected six radii, got shape {radii.shape}")
    if np.any(radii < 0):
        raise ParameterError("radii must be non-negative")
    area = 0.5 * SIN_60 * np.sum(radii * np.roll(radii, -1, axis=-1), axis=-1)
    return float(area) if radii.ndim == 1 else area


def baseline_area(config: RadarConfig = RadarConfig()) -> float:
    """Area when all six categories sit at the baseline level (0 percent)."""
    return radar_area(np.full(6, -config.center))


def circulation_indicator(
    table: MobilityTable,
    region_ids: Sequence[str],
    config: RadarConfig,
    window: tuple[dt.date, dt.date],
) -> CirculationSeries:
    """Daily radar areas and indicators, and window means, of a panel of
    regions, over the values :meth:`MobilityTable.panel` gathers and checks
    in ``window``; an area that overflows is a ``DataError``."""
    ids = list(region_ids)
    dates, block, means = table.panel(ids, window)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
        areas = radar_area(radar_radii(block, config))
        # inf only where every area is inf too: there each radius rounds to at least -C
        baseline = baseline_area(config)
    if not np.isfinite(areas).all():
        k, d = np.argwhere(~np.isfinite(areas))[0]
        raise DataError(f"{ids[k]} {dates[d]}: radar area overflows at center {config.center}")
    return CirculationSeries(ids, dates, areas, areas / baseline, means)
