import datetime as dt
import math

import numpy as np
import pytest

from mobility_esda.errors import DataError, ParameterError
from mobility_esda.indicator import (
    RadarConfig,
    baseline_area,
    circulation_indicator,
    radar_area,
    radar_radii,
)
from mobility_esda.ingest import CATEGORIES

from conftest import flat_values, make_table, window_mask

HEX_AREA_100 = 6 * 0.5 * 100 * 100 * math.sqrt(3) / 2


class TestRadii:
    def test_baseline_level(self):
        radii = radar_radii(flat_values(0.0))
        assert np.allclose(radii, 100.0)

    def test_floor_level(self):
        assert np.allclose(radar_radii(flat_values(-100.0)), 0.0)

    def test_elementwise_subtraction(self):
        values = dict(zip(CATEGORIES, [-30, -10, -80, -60, -40, 10]))
        assert radar_radii(values).tolist() == [70, 90, 20, 40, 60, 110]

    def test_below_center_rejected(self):
        cfg = RadarConfig(center=-120)
        with pytest.raises(ParameterError, match="below center"):
            radar_radii({**flat_values(0), "parks": -130}, cfg)

    def test_axis_order_permutes(self):
        order = tuple(reversed(CATEGORIES))
        values = dict(zip(CATEGORIES, [-30, -10, -80, -60, -40, 10]))
        assert radar_radii(values, RadarConfig(axis_order=order)).tolist() == [
            110, 60, 40, 20, 90, 70,
        ]

    def test_bad_axis_order_rejected(self):
        with pytest.raises(ParameterError, match="permutation"):
            RadarConfig(axis_order=("parks",) * 6)


class TestArea:
    def test_uniform_hexagon_closed_form(self):
        assert radar_area([100] * 6) == pytest.approx(HEX_AREA_100, rel=1e-12)

    def test_all_zero(self):
        assert radar_area([0] * 6) == 0.0

    def test_alternating_zeros_annihilate(self):
        assert radar_area([1, 0, 1, 0, 1, 0]) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            radar_area([1, 1, 1, 1, 1, -0.5])

    def test_cyclic_rotation_invariance(self):
        rng = np.random.default_rng(5)
        radii = rng.uniform(0, 120, 6)
        base = radar_area(radii)
        for shift in range(1, 6):
            assert radar_area(np.roll(radii, shift)) == pytest.approx(base, rel=1e-12)

    def test_reflection_invariance(self):
        rng = np.random.default_rng(6)
        radii = rng.uniform(0, 120, 6)
        assert radar_area(radii[::-1]) == pytest.approx(radar_area(radii), rel=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(7)
        radii = rng.uniform(0, 120, 6)
        for lam in (0.25, 0.5, 2.0):
            assert radar_area(lam * radii) == pytest.approx(lam**2 * radar_area(radii), rel=1e-12)

    def test_rows_of_radii_match_one_chart_at_a_time(self):
        rng = np.random.default_rng(8)
        block = rng.uniform(0, 120, (40, 6))
        areas = radar_area(block)
        assert areas.shape == (40,)
        assert areas.tolist() == [radar_area(radii) for radii in block]
        values = rng.uniform(-100, 50, (40, 6))
        assert np.array_equal(
            radar_radii(values), [radar_radii(dict(zip(CATEGORIES, row))) for row in values]
        )

    def test_wrong_radius_count_rejected(self):
        with pytest.raises(ParameterError, match="six radii"):
            radar_area(np.ones((3, 5)))

    def test_monotone_in_single_radius(self):
        radii = np.array([50.0, 60, 70, 80, 90, 100])
        base = radar_area(radii)
        bumped = radii.copy()
        bumped[2] += 10
        assert radar_area(bumped) >= base


def one_region_table(value, days=5):
    rows = [
        ("SY", "", f"2020-03-{d+1:02d}", flat_values(value))
        for d in range(days)
    ]
    return make_table(rows)


FIVE_DAYS = (dt.date(2020, 3, 1), dt.date(2020, 3, 5))


def national(table, config=RadarConfig(), window=FIVE_DAYS):
    """The indicator of the one region SY/, a one-row panel."""
    return circulation_indicator(table, ["SY/"], config, window)


class TestCirculation:
    def test_baseline_gives_one(self):
        series = national(one_region_table(0.0))
        assert np.allclose(series.indicators, 1.0)
        assert series.indicators.mean(axis=-1) == pytest.approx(1.0)

    def test_half_values_give_quarter(self):
        series = national(one_region_table(-50.0))
        assert np.allclose(series.indicators, 0.25)
        # hand-check one date through the area formula
        assert series.areas[0, 0] == pytest.approx(radar_area([50] * 6))

    def test_floor_gives_zero(self):
        series = national(one_region_table(-100.0))
        assert np.allclose(series.indicators, 0.0)

    def test_missing_cell_instructs_to_impute(self):
        rows = [("SY", "", "2020-03-01", {**flat_values(0), "parks": None})]
        with pytest.raises(DataError, match="impute"):
            national(make_table(rows), window=(dt.date(2020, 3, 1), dt.date(2020, 3, 1)))

    def test_incomplete_window_rejected(self):
        table = one_region_table(0.0, days=3)
        with pytest.raises(DataError, match="covers 3 of 5"):
            national(table)

    def test_center_offset_invariance(self):
        # raw values shifted with C keep radii and hence the indicator
        cfg = RadarConfig(center=-150)
        shifted = one_region_table(-50.0)
        series_default = national(one_region_table(0.0))
        series_shifted = national(shifted, cfg)
        # radii 100 in both cases: (0 - (-100)) and (-50 - (-150))
        assert np.allclose(series_shifted.areas, series_default.areas)

    def test_baseline_area_value(self):
        assert baseline_area() == pytest.approx(HEX_AREA_100, rel=1e-12)


def three_region_table(days=6, skip=()):
    """Regions SY/a, SY/b, SY/c from 2020-03-01 with varying values, but for
    the (sub-region, day) rows in ``skip``."""
    rng = np.random.default_rng(5)
    rows = [
        ("SY", sub, f"2020-03-{d + 1:02d}", dict(zip(CATEGORIES, rng.uniform(-90, 40, 6))))
        for sub in "abc"
        for d in range(days)
        if (sub, d) not in skip
    ]
    return make_table(rows)


class TestPanel:
    def test_panel_rows_equal_single_region_series(self):
        # each row is the series of that region's own rows in the window
        table = three_region_table()
        window = (dt.date(2020, 3, 2), dt.date(2020, 3, 5))
        panel = circulation_indicator(table, ["SY/c", "SY/a", "SY/b"], RadarConfig(), window)
        assert panel.region_ids == ["SY/c", "SY/a", "SY/b"]
        assert panel.areas.shape == panel.indicators.shape == (3, 4)
        assert panel.dates == [dt.date(2020, 3, d) for d in range(2, 6)]
        for k, rid in enumerate(panel.region_ids):
            values = table.values[window_mask(table, rid, window)]
            areas = [radar_area(radar_radii(day)) for day in values]
            assert panel.areas[k].tolist() == areas
            assert panel.indicators[k].tolist() == [a / baseline_area() for a in areas]
            assert panel.window_means[k].tolist() == [column.mean() for column in values.T]
        assert panel.indicators.mean(axis=-1) == pytest.approx(panel.areas.mean(axis=1) / baseline_area())

    def test_every_region_checked_before_any_area(self):
        table = three_region_table(skip=[("c", 2)])
        window = (dt.date(2020, 3, 1), dt.date(2020, 3, 6))
        with pytest.raises(DataError, match="region 'SY/c' covers 5 of 6 days"):
            circulation_indicator(table, ["SY/a", "SY/b", "SY/c"], RadarConfig(), window)
        with pytest.raises(DataError, match="no data for region 'SY/d'"):
            circulation_indicator(table, ["SY/a", "SY/d"], RadarConfig(), window)

    def test_first_missing_cell_reported(self):
        rows = [("SY", sub, "2020-03-01", flat_values(0)) for sub in "ab"]
        rows.append(("SY", "b", "2020-03-02", {**flat_values(0), "parks": None}))
        rows.append(("SY", "a", "2020-03-02", flat_values(0)))
        with pytest.raises(DataError, match=r"SY/b 2020-03-02: missing \['parks'\]"):
            circulation_indicator(make_table(rows), ["SY/a", "SY/b"], RadarConfig(),
                                  (dt.date(2020, 3, 1), dt.date(2020, 3, 2)))
