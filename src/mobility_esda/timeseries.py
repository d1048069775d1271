"""Season-trend decomposition with LOESS, for weekly deseasonalization.

Implements a locally weighted regression smoother (tricube weights) and
the classic additive season-trend decomposition loop on top of it:
detrend, smooth each cycle-subseries, low-pass filter, subtract to get
the seasonal component, then re-estimate the trend on the deseasonalized
series. The residual is defined as input - trend - seasonal, so the
additive identity holds exactly.

Every LOESS fit is a hat matrix H with ``fit = H @ ys`` (the smoother
matrix of Hastie & Tibshirani, *Generalized Additive Models*, 1990).
Without robustness weights every step of the loop is linear in the
series, so the whole decomposition is a pair of n x n operators built
once per (length, period, seasonal window) and then applied to each
series by matrix-vector products (Cleveland et al. 1990).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError


INNER_ITERS = 2  # passes of the inner loop per fit


@dataclass
class Decomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray


def _loess_hat(xs, window, degree, eval_xs, rho=None) -> np.ndarray:
    """E x N hat matrix of a local weighted polynomial fit at each eval x.

    Each row fits the `window` nearest data points (stable order on
    ties) with tricube weights w(u) = (1 - |u|^3)^3, u = distance / max
    distance in window, times the robustness weights ``rho`` if given.
    The pseudo-inverse keeps the minimum-norm least-squares fit when
    zero weights leave fewer points than coefficients.
    """
    xs = np.asarray(xs, dtype=float)
    eval_xs = np.asarray(eval_xs, dtype=float)
    d = np.abs(eval_xs[:, None] - xs[None, :])
    idx = np.argsort(d, axis=1, kind="stable")[:, :window]
    dw = np.take_along_axis(d, idx, axis=1)
    h = dw.max(axis=1)
    exact = h == 0
    u = dw / np.where(exact, 1.0, h)[:, None]
    w = np.clip(1 - u**3, 0, None) ** 3
    if rho is not None:
        w = w * rho[idx]
    # centered design matrix keeps the fit well conditioned
    t = xs[idx] - eval_xs[:, None]
    A = t[:, :, None] ** np.arange(degree + 1)
    sw = np.sqrt(w)
    # same singular-value cutoff as np.linalg.lstsq(..., rcond=None)
    rcond = max(window, degree + 1) * np.finfo(float).eps
    rows = np.linalg.pinv(A * sw[:, :, None], rcond=rcond)[:, 0, :] * sw
    rows[exact] = 0.0
    rows[exact, 0] = 1.0
    H = np.zeros(d.shape)
    np.put_along_axis(H, idx, rows, axis=1)
    return H


def _odd_at_most(k: int, n: int) -> int:
    k = min(k, n)
    return k if k % 2 == 1 else k - 1


def _moving_average(values: np.ndarray, length: int) -> np.ndarray:
    """Moving averages of ``length`` consecutive rows (axis 0)."""
    m = len(values) - length + 1
    return sum(values[j : j + m] for j in range(length)) / length


def _stl_pass(y, trend, period, seasonal_window, rho=None):
    """Inner STL loop on the columns of ``y`` (shape (n, ...)), from ``trend``.

    Returns (trend, seasonal) of the same shape as ``y``. ``rho`` are the
    robustness weights of the n points, or None for none.
    """
    n = len(y)
    grid = np.arange(n, dtype=float)
    # cycle-subseries fits, extended one period on each end so the
    # low-pass moving averages return length n
    subseries = []
    for k in range(period):
        sub_idx = np.arange(k, n, period)
        m = len(sub_idx)
        win = _odd_at_most(seasonal_window, m)
        sub_rho = None if rho is None else rho[sub_idx]
        H = _loess_hat(np.arange(m), win, 1 if win >= 2 else 0, np.arange(-1, m + 1), sub_rho)
        subseries.append((sub_idx, H))
    lowpass_window = period if period % 2 == 1 else period + 1
    lowpass = _loess_hat(grid, _odd_at_most(lowpass_window, n), 1, grid)
    # the smallest odd integer >= 1.5 * period / (1 - 1.5 / seasonal_window),
    # at most n; period >= 2, seasonal_window >= 3 and n >= 2 * period keep it >= 3
    trend_window = int(np.ceil(1.5 * period / (1 - 1.5 / seasonal_window)))
    trend_hat = _loess_hat(grid, _odd_at_most(trend_window | 1, n), 1, grid, rho)

    seasonal = np.zeros_like(y)
    C = np.empty((n + 2 * period,) + y.shape[1:])
    for _inner in range(INNER_ITERS):
        detrended = y - trend
        for k, (sub_idx, H) in enumerate(subseries):
            C[k::period] = H @ detrended[sub_idx]
        L = _moving_average(C, period)
        L = _moving_average(L, period)
        L = _moving_average(L, 3)
        seasonal = C[period : period + n] - lowpass @ L
        trend = trend_hat @ (y - seasonal)
    return trend, seasonal


@functools.lru_cache(maxsize=8)
def _stl_operators(n, period, seasonal_window):
    """Read-only n x n operators (T, S): trend = T @ y, seasonal = S @ y."""
    T, S = _stl_pass(np.eye(n), np.zeros((n, n)), period, seasonal_window)
    T.flags.writeable = False
    S.flags.writeable = False
    return T, S


def stl_decompose(values, period: int = 7, seasonal_window: int = 7, outer_iters: int = 0) -> Decomposition:
    """Additive season-trend decomposition of each daily series in ``values``.

    ``values`` is one series of n days or an array (..., n) of them, such
    as a (regions, days) panel; the components have its shape. Without
    robustness iterations the decomposition is linear in the series: a
    pair of n x n operators (trend, seasonal) is built once per (n, period,
    seasonal_window), cached, and applied to each series by matrix-vector
    products. The operator is assembled in a different order of arithmetic
    than a point-by-point fit, so results can differ from earlier versions
    around the 15th significant digit.

    ``outer_iters`` adds robustness iterations that down-weight points
    with large residuals (bisquare weights); each one refits a series
    with weighted smoothers, starting from its previous trend.
    """
    y = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(y)):
        what = "missing values; impute first" if np.any(np.isnan(y)) else "infinite values"
        raise DataError(f"series contains {what}")
    n = y.shape[-1] if y.ndim else 0
    if period < 2:
        raise ParameterError(f"period must be >= 2, got {period}")
    if n < 2 * period:
        raise ParameterError(f"series length {n} < 2 x period {period}")
    if seasonal_window % 2 == 0:
        raise ParameterError(f"seasonal_window must be odd, got {seasonal_window}")
    if seasonal_window < 3:
        raise ParameterError(f"seasonal_window must be >= 3, got {seasonal_window}")

    T, S = _stl_operators(n, period, seasonal_window)
    rows = y.reshape(-1, n)
    trend = np.empty(rows.shape)
    seasonal = np.empty(rows.shape)
    for row, t, s in zip(rows, trend, seasonal):
        t[:], s[:] = T @ row, S @ row
        for _outer in range(outer_iters):
            resid = row - t - s
            # np.median's own arithmetic, without its check that imports numpy.ma
            r = np.sort(np.abs(resid))
            mad = r[(n - 1) // 2 : n // 2 + 1].mean()
            h = 6 * mad if mad > 0 else 1.0
            rho = np.clip(1 - (np.abs(resid) / h) ** 2, 0, None) ** 2
            t[:], s[:] = _stl_pass(row, t, period, seasonal_window, rho)
    trend = trend.reshape(y.shape)
    seasonal = seasonal.reshape(y.shape)
    return Decomposition(trend=trend, seasonal=seasonal, residual=y - trend - seasonal)
