import numpy as np
import pytest

from mobility_esda import timeseries
from mobility_esda.errors import DataError, ParameterError
from mobility_esda.timeseries import _loess_hat, _stl_bands, stl_decompose

from conftest import _loess_eval_oracle, loess_oracle_point, stl_oracle


WEEK_PATTERN = np.array([3.0, -1.0, 2.0, -2.0, 1.0, -3.0, 0.0])
WEEK_PATTERN -= WEEK_PATTERN.mean()


def dense_hat(xs, window, degree, eval_xs=None):
    """The E x N hat matrix whose rows hold ``_loess_hat``'s band."""
    idx, w = _loess_hat(xs, window, degree, xs if eval_xs is None else eval_xs)
    assert idx.shape == w.shape == (len(idx), window)
    H = np.zeros((len(idx), len(xs)))
    np.put_along_axis(H, idx, w, axis=1)
    return H


class TestLoess:
    def test_constant_reproduced(self):
        xs = np.arange(11.0)
        for degree in (0, 1):
            out = dense_hat(xs, 5, degree) @ np.full(11, 4.2)
            assert np.allclose(out, 4.2, atol=1e-12)

    def test_linear_reproduced_degree1(self):
        xs = np.arange(15.0)
        ys = 3 * xs - 7
        for window in (3, 7, 11, 15):
            out = dense_hat(xs, window, 1) @ ys
            assert np.max(np.abs(out - ys)) < 1e-9

    def test_sine_matches_wls_oracle(self):
        xs = np.arange(13.0)
        ys = np.sin(xs)
        out = dense_hat(xs, 7, 1) @ ys
        expected = [loess_oracle_point(xs, ys, 7, 1, x0) for x0 in xs]
        assert np.max(np.abs(out - expected)) < 1e-9

    @pytest.mark.parametrize("degree, window", [(0, 5), (1, 7)])
    def test_matches_wls_oracle_each_degree(self, degree, window):
        xs = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 4.0, 5.0, 7.0, 8.0, 8.5, 10.0, 12.0, 13.0])
        ys = np.cos(xs) + 0.1 * xs**2
        out = dense_hat(xs, window, degree) @ ys
        expected = [loess_oracle_point(xs, ys, window, degree, x0) for x0 in xs]
        assert np.max(np.abs(out - expected)) < 1e-9

    @pytest.mark.parametrize("window", [2, 3, 4, 5, 6, 13])
    def test_eval_between_and_beyond_points(self, window):
        # the band holds the window nearest points ranked as a full stable
        # sort ranks them, ties (4.5, 8.0) with the lower index first
        xs = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 4.0, 5.0, 7.0, 8.0, 9.0, 10.0, 12.0, 13.0])
        ys = np.cos(xs) + 0.1 * xs**2
        eval_xs = np.array([-4.0, -0.5, 0.25, 4.5, 6.0, 8.0, 12.5, 13.0, 20.0])
        idx, _ = _loess_hat(xs, window, 1, eval_xs)
        ranked = np.argsort(np.abs(eval_xs[:, None] - xs), axis=1, kind="stable")[:, :window]
        assert np.array_equal(idx, ranked)
        if window >= 4:  # smaller windows leave some of these fits singular for the oracle
            out = dense_hat(xs, window, 1, eval_xs) @ ys
            expected = [loess_oracle_point(xs, ys, window, 1, x0) for x0 in eval_xs]
            assert np.max(np.abs(out - expected)) < 1e-9

    def test_lone_weighted_point_gives_minimum_norm_fit(self):
        # window 3 on a unit grid: an interior fit weighs its two outer
        # points 0, so a local line is singular; the minimum-norm fit is the
        # value at the point. A constant fit with no weighted point is 0
        xs = np.arange(9.0)
        ys = np.cos(xs)
        out = dense_hat(xs, 3, 1) @ ys
        assert np.max(np.abs(out[1:-1] - ys[1:-1])) < 1e-12
        assert np.array_equal(dense_hat(xs, 1, 0, np.array([-1.0])), np.zeros((1, 9)))

    def test_near_singular_line_matches_least_squares(self):
        # nearly all weight on one point beyond the eval x: S0 * S2 - S1**2
        # cancels about 40 of 53 bits, and the sums alone would miss by 1e-4
        xs = np.arange(13.0)
        ys = np.cos(xs) + 0.1 * xs**2
        rho = np.full(13, 1e-12)
        rho[0] = 1.0
        eval_xs = np.array([-3.0, 6.0, 14.0])
        idx, w = _loess_hat(xs, 7, 1, eval_xs, rho)
        expected = _loess_eval_oracle(xs, ys, 7, 1, eval_xs, rho)
        assert np.max(np.abs((w * ys[idx]).sum(axis=1) - expected)) < 1e-9


class TestStl:
    def test_constant_series(self):
        dec = stl_decompose(np.full(28, 5.0))
        assert np.allclose(dec.trend, 5.0, atol=1e-9)
        assert np.max(np.abs(dec.seasonal)) < 1e-9
        assert np.max(np.abs(dec.residual)) < 1e-9

    def test_weekly_pattern_plus_offset_recovered(self):
        y = np.tile(WEEK_PATTERN, 6) + 40.0
        dec = stl_decompose(y)
        assert np.max(np.abs(dec.seasonal - np.tile(WEEK_PATTERN, 6))) < 1e-6
        assert np.max(np.abs(dec.trend - 40.0)) < 1e-6

    def test_additive_identity(self):
        rng = np.random.default_rng(3)
        y = 50 + np.cumsum(rng.normal(0, 1, 70)) + np.tile(WEEK_PATTERN, 10)
        dec = stl_decompose(y)
        scale = np.max(np.abs(y))
        assert np.max(np.abs(dec.trend + dec.seasonal + dec.residual - y)) < 1e-9 * scale

    def test_linear_ramp(self):
        y = np.linspace(0, 100, 56)
        dec = stl_decompose(y)
        assert np.max(np.abs(dec.seasonal)) < 1.0  # < 1% of ramp range
        interior = slice(7, -7)
        assert np.max(np.abs(dec.trend[interior] - y[interior])) < 1.0

    def test_seasonal_balances_over_cycles(self):
        y = np.tile(WEEK_PATTERN, 8) + 10.0
        dec = stl_decompose(y)
        for start in range(0, len(y) - 7, 7):
            assert abs(dec.seasonal[start : start + 7].mean()) < 1e-6 * np.ptp(y)

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError, match="length"):
            stl_decompose(np.arange(13.0))

    @pytest.mark.parametrize("seasonal_window", [1, -3])
    def test_seasonal_window_below_three_rejected(self, seasonal_window):
        with pytest.raises(ParameterError, match="seasonal_window"):
            stl_decompose(np.arange(28.0), seasonal_window=seasonal_window)

    @pytest.mark.parametrize(
        "bad, message",
        [(np.inf, "infinite"), (-np.inf, "infinite"), (np.nan, "missing values; impute first")],
    )
    def test_non_finite_value_rejected(self, bad, message):
        y = np.arange(14.0)
        y[5] = bad
        with pytest.raises(DataError, match=message):
            stl_decompose(y)

    def test_negative_outer_iters_rejected(self):
        with pytest.raises(ParameterError, match="outer_iters must be >= 0, got -3"):
            stl_decompose(np.arange(28.0), outer_iters=-3)

    def test_robust_mode_runs(self):
        y = np.tile(WEEK_PATTERN, 6) + 40.0
        y[20] += 50  # outlier
        dec = stl_decompose(y, outer_iters=2)
        assert np.max(np.abs(dec.trend + dec.seasonal + dec.residual - y)) < 1e-9 * np.max(np.abs(y))

    @pytest.mark.parametrize("outer_iters", [0, 1, 2])
    def test_panel_rows_equal_each_series_alone(self, outer_iters, monkeypatch):
        # an all-zero series has a median absolute residual of 0, and the
        # outlier gets a robustness weight of 0
        panel = np.array([_oracle_case(92, 7, seed) for seed in range(5)]
                         + [np.zeros(92), _oracle_case(92, 7, seed=5, outlier=True)])
        # blocks of 1, of 2 and of 5 series, the last one short
        for block_series in (1, 2, 5):
            monkeypatch.setattr(timeseries, "STL_BLOCK", 8 * 92 * block_series)
            dec = stl_decompose(panel, outer_iters=outer_iters)
            for k, y in enumerate(panel):
                one = stl_decompose(y, outer_iters=outer_iters)
                for name in ("trend", "seasonal", "residual"):
                    assert getattr(one, name).shape == (92,)
                    assert np.array_equal(getattr(dec, name)[k], getattr(one, name)), (block_series, k, name)

    def test_bands_built_once_per_block_whatever_its_width(self, monkeypatch):
        loess_hat = timeseries._loess_hat
        calls = []
        monkeypatch.setattr(timeseries, "_loess_hat", lambda *a: calls.append(1) or loess_hat(*a))
        counts = []
        for series in (1, 6):  # one block either way
            calls.clear()
            stl_decompose(np.array([_oracle_case(92, 7, seed) for seed in range(series)]), outer_iters=1)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_batched_robust_bands_equal_each_series_alone(self, monkeypatch):
        rng = np.random.default_rng(4)
        R = np.ones((4, 30))
        R[1] = 0.0
        R[1, ::9] = 1.0  # some cycle-subseries keep one weighted day: a singular local line
        R[2] = rng.uniform(size=30) * (rng.uniform(size=30) > 0.3)
        R[3] = 0.0
        pinv = np.linalg.pinv
        calls = []
        monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(1) or pinv(*a, **k))
        batched = _stl_bands(30, 7, 7, rho=R)
        assert calls
        for k in range(len(R)):
            for (idx, w), (one_idx, one_w) in zip(batched, _stl_bands(30, 7, 7, rho=R[k])):
                assert np.array_equal(idx, one_idx)
                assert np.array_equal(w if w.ndim == 2 else w[k], one_w), k


def _oracle_case(n, period, seed, outlier=False):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    y = 30 + np.cumsum(rng.normal(0, 1, n)) + 3 * np.sin(2 * np.pi * t / period)
    if outlier:
        y[n // 3] += 1e4
    return y


class TestStlOracle:
    """stl_decompose against the point-by-point fit in conftest."""

    @pytest.mark.parametrize("n", [14, 15, 30, 92])
    def test_matches_point_by_point_fit(self, n):
        for period in (4, 5, 7):
            for seasonal_window in (3, 7, 13):
                for outer_iters in (0, 1, 2):
                    y = _oracle_case(n, period, seed=n * 100 + period)
                    dec = stl_decompose(
                        y, period=period, seasonal_window=seasonal_window,
                        outer_iters=outer_iters,
                    )
                    trend, seasonal = stl_oracle(y, period, seasonal_window, 2, outer_iters)
                    scale = np.max(np.abs(y))
                    case = (period, seasonal_window, outer_iters)
                    assert np.max(np.abs(dec.trend - trend)) < 1e-9 * scale, case
                    assert np.max(np.abs(dec.seasonal - seasonal)) < 1e-9 * scale, case

    @pytest.mark.parametrize("outer_iters", [1, 2])
    def test_outlier_with_zero_robustness_weight(self, outer_iters):
        y = _oracle_case(92, 7, seed=5, outlier=True)
        # the outlier lies beyond 6 x the median absolute residual of the
        # first pass, so its bisquare robustness weight is exactly 0
        resid = np.abs(stl_decompose(y).residual)
        assert resid[30] > 6 * np.median(resid)
        dec = stl_decompose(y, outer_iters=outer_iters)
        trend, seasonal = stl_oracle(y, 7, 7, 2, outer_iters)
        scale = np.max(np.abs(y))
        assert np.max(np.abs(dec.trend - trend)) < 1e-9 * scale
        assert np.max(np.abs(dec.seasonal - seasonal)) < 1e-9 * scale

    def test_linear_in_the_series(self):
        a = _oracle_case(35, 7, seed=1)
        b = _oracle_case(35, 7, seed=2)
        dec = stl_decompose(np.array([a, b, 2 * a - 3 * b]))
        again = stl_decompose(a)
        scale = np.max(np.abs(2 * a - 3 * b))
        for name in ("trend", "seasonal", "residual"):
            part = getattr(dec, name)
            assert np.max(np.abs(part[2] - (2 * part[0] - 3 * part[1]))) < 1e-9 * scale, name
            assert np.array_equal(part[0], getattr(again, name)), name

    @pytest.mark.parametrize("outer_iters", [0, 1])
    def test_published_report_length(self, outer_iters):
        # 970 days, the length of the published report
        y = _oracle_case(970, 7, seed=970)
        dec = stl_decompose(y, outer_iters=outer_iters)
        trend, seasonal = stl_oracle(y, 7, 7, 2, outer_iters)
        scale = np.max(np.abs(y))
        assert np.max(np.abs(dec.trend - trend)) < 1e-9 * scale
        assert np.max(np.abs(dec.seasonal - seasonal)) < 1e-9 * scale


def deseasonalize(y):
    return y - stl_decompose(y).seasonal


class TestDeseasonalize:
    def test_constant_unchanged(self):
        out = deseasonalize(np.full(28, 7.0))
        assert np.allclose(out, 7.0, atol=1e-9)

    def test_pattern_plus_offset_becomes_flat(self):
        y = np.tile(WEEK_PATTERN, 6) + 40.0
        out = deseasonalize(y)
        assert np.max(np.abs(out - 40.0)) < 1e-6

    def test_idempotent_within_tolerance(self):
        y = 30 + np.linspace(0, 10, 70) + np.tile(WEEK_PATTERN, 10)
        once = deseasonalize(y)
        twice = deseasonalize(once)
        assert np.max(np.abs(twice - once)) < 1e-6 * np.ptp(y)

    def test_second_pass_much_smaller_than_first(self):
        # with noise the removal is not an exact projection, but the second
        # pass must remove far less than the first
        rng = np.random.default_rng(11)
        y = 30 + np.linspace(0, 10, 70) + np.tile(WEEK_PATTERN, 10) + rng.normal(0, 0.5, 70)
        once = deseasonalize(y)
        twice = deseasonalize(once)
        first_change = np.max(np.abs(once - y))
        second_change = np.max(np.abs(twice - once))
        assert second_change < 0.05 * first_change
