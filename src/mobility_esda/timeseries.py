"""Season-trend decomposition with LOESS, for weekly deseasonalization.

Implements a locally weighted regression smoother (tricube weights) and
the classic additive season-trend decomposition loop on top of it:
detrend, smooth each cycle-subseries, low-pass filter, subtract to get
the seasonal component, then re-estimate the trend on the deseasonalized
series. The residual is defined as input - trend - seasonal, so the
additive identity holds exactly.

Every LOESS fit is a band: each fitted value is a weighted sum of its
``window`` nearest observations, the nonzeros of one row of the smoother
matrix of Hastie & Tibshirani (*Generalized Additive Models*, 1990). For
a local line the weights are explicit in the weighted sums of the
positions. The loop (Cleveland et al. 1990) runs on a (days, series)
panel, a block of series at a time; a robust pass gives each series of
the block its own weights on the same points. The bands are applied by
elementwise products summed one offset after another, so each value is
rounded alike whatever the block, BLAS kernel or numpy SIMD dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError


INNER_ITERS = 2  # passes of the inner loop per fit
STL_BLOCK = 1 << 17  # bytes of one (days, series) block of the panel
MIN_DET_RATIO = 2.0**-20  # below this det / (S0 * S2), a local line has lost 20 of 53 bits and goes to pinv


@dataclass
class Decomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray


def _loess_hat(xs, window, degree, eval_xs, rho=None) -> tuple[np.ndarray, np.ndarray]:
    """Band of a local weighted line (degree 1) or constant (degree 0) at
    each eval x: E x window column indices ``idx`` and weights ``w``, the
    fit at eval x e being sum_k w[e, k] * ys[idx[e, k]].

    Each row fits the `window` nearest of the increasing data points
    ``xs`` (the lower index first on ties) with tricube weights
    w(u) = (1 - |u|^3)^3, u = distance / max distance in window, times
    the robustness weights ``rho`` if given; for ``rho`` (..., len(xs))
    of many series, ``w`` is (..., E, window) and ``idx`` is shared. With
    the sums S0 = sum(w), S1 = sum(w t) and S2 = sum(w t^2) over the
    positions t relative to the eval x, point j gets w_j / S0 for degree 0
    and w_j (S2 - S1 t_j) / (S0 S2 - S1^2) for degree 1. Rows where the
    sums leave the fit singular (fewer than degree + 1 weighted points,
    or S0 S2 - S1^2 so small against S0 S2 that the subtraction cancels
    more than 20 of its 53 bits) take the pseudo-inverse, which keeps the
    minimum-norm least-squares fit.
    """
    xs = np.asarray(xs, dtype=float)
    eval_xs = np.asarray(eval_xs, dtype=float)
    # xs increase, so the window nearest points lie within window places of
    # where the eval x would be inserted: only those 2 * window are ranked
    span = min(2 * window, len(xs))
    lo = np.clip(np.searchsorted(xs, eval_xs) - window, 0, len(xs) - span)
    near = lo[:, None] + np.arange(span)
    d = np.abs(eval_xs[:, None] - xs[near])
    order = np.argsort(d, axis=1, kind="stable")[:, :window]
    idx = np.take_along_axis(near, order, axis=1)
    dw = np.take_along_axis(d, order, axis=1)
    h = dw.max(axis=1)
    exact = h == 0
    u = dw / np.where(exact, 1.0, h)[:, None]
    v = np.clip(1 - u * u * u, 0, None)
    w = v * v * v
    if rho is not None:
        # take, not rho[..., idx]: a C-ordered product sums each row as a lone series does
        w = w * rho.take(idx, axis=-1)
    # centered positions keep the fit well conditioned
    t = xs[idx] - eval_xs[:, None]
    s0 = w.sum(axis=-1)
    singular = np.count_nonzero(w, axis=-1) < degree + 1
    if degree == 0:
        hat = w / np.where(singular, 1.0, s0)[..., None]
    else:
        wt = w * t
        s1 = wt.sum(axis=-1)
        s2 = (wt * t).sum(axis=-1)
        det = s0 * s2 - s1 * s1
        singular |= det <= MIN_DET_RATIO * s0 * s2
        hat = (w * s2[..., None] - wt * s1[..., None]) / np.where(singular, 1.0, det)[..., None]
    singular &= ~exact
    if singular.any():
        A = np.broadcast_to(t, w.shape)[singular][:, :, None] ** np.arange(degree + 1)
        sw = np.sqrt(w[singular])
        # same singular-value cutoff as np.linalg.lstsq(..., rcond=None)
        rcond = max(window, degree + 1) * np.finfo(float).eps
        hat[singular] = np.linalg.pinv(A * sw[:, :, None], rcond=rcond)[:, 0, :] * sw
    hat[..., exact, :] = np.eye(1, window)  # all points at the eval x: the first one's value
    return idx, hat


def _smooth(band, y: np.ndarray) -> np.ndarray:
    """The fits of ``band`` = (idx, w), w shared (E x window) or one per
    column (B x E x window), on each column of ``y``, whose rows are the
    band's data points: sum_k w[:, k] * y[idx[:, k]], k in order."""
    idx, w = band
    w = np.moveaxis(w.reshape(-1, *idx.shape), 0, -1)  # E x window x (1 or B)
    out = w[:, 0] * y[idx[:, 0]]
    for k in range(1, idx.shape[1]):
        out += w[:, k] * y[idx[:, k]]
    return out


def _odd_at_most(k: int, n: int) -> int:
    k = min(k, n)
    return k if k % 2 == 1 else k - 1


def _moving_average(values: np.ndarray, length: int) -> np.ndarray:
    """Moving averages of ``length`` consecutive rows (axis 0)."""
    m = len(values) - length + 1
    return sum(values[j : j + m] for j in range(length)) / length


def _stl_bands(n, period, seasonal_window, rho=None):
    """The bands of the inner STL loop over n days: (cycle, lowpass, trend).

    ``cycle`` fits each cycle-subseries, extended one period on each end so
    the low-pass moving averages return length n; its row k + period * j
    is subseries k at position j - 1 and indexes days. ``rho`` are the
    robustness weights (..., n) of one or more series, or None for none.
    """
    subseries = []
    for k in range(period):
        days = np.arange(k, n, period)
        m = len(days)
        win = _odd_at_most(seasonal_window, m)
        sub_rho = None if rho is None else rho[..., days]
        idx, w = _loess_hat(np.arange(m), win, 1 if win >= 2 else 0, np.arange(-1, m + 1), sub_rho)
        subseries.append((days[idx], w))
    # subseries one day shorter may have a narrower window: pad with zero weights
    width = max(idx.shape[1] for idx, _ in subseries)
    cycle_idx = np.zeros((n + 2 * period, width), dtype=np.intp)
    cycle_w = np.zeros((*np.shape(rho)[:-1], n + 2 * period, width))
    for k, (idx, w) in enumerate(subseries):
        cycle_idx[k::period, : idx.shape[1]] = idx
        cycle_w[..., k::period, : idx.shape[1]] = w
    grid = np.arange(n, dtype=float)
    lowpass_window = period if period % 2 == 1 else period + 1
    lowpass = _loess_hat(grid, _odd_at_most(lowpass_window, n), 1, grid)
    # the smallest odd integer >= 1.5 * period / (1 - 1.5 / seasonal_window),
    # at most n; period >= 2, seasonal_window >= 3 and n >= 2 * period keep it >= 3
    trend_window = int(np.ceil(1.5 * period / (1 - 1.5 / seasonal_window)))
    trend = _loess_hat(grid, _odd_at_most(trend_window | 1, n), 1, grid, rho)
    return (cycle_idx, cycle_w), lowpass, trend


def _stl_pass(y, trend, period, bands):
    """Inner STL loop on the columns of the (n, B) ``y``, from ``trend``,
    with the ``bands`` of ``_stl_bands``. Returns (trend, seasonal), (n, B) each."""
    cycle, lowpass, trend_band = bands
    n = len(y)
    for _inner in range(INNER_ITERS):
        C = _smooth(cycle, y - trend)
        L = _moving_average(C, period)
        L = _moving_average(L, period)
        L = _moving_average(L, 3)
        seasonal = C[period : period + n] - _smooth(lowpass, L)
        trend = _smooth(trend_band, y - seasonal)
    return trend, seasonal


def stl_decompose(values, period: int = 7, seasonal_window: int = 7, outer_iters: int = 0) -> Decomposition:
    """Additive season-trend decomposition of each daily series in ``values``.

    ``values`` is one series of n days or an array (..., n) of them, such
    as a (regions, days) panel; the components have its shape. The loop
    runs on blocks of about ``STL_BLOCK`` bytes of series, with LOESS
    bands built once per call and shared by every series; each series
    gets the same values bit for bit as when decomposed alone.

    ``outer_iters`` adds robustness iterations that down-weight points
    with large residuals (bisquare weights); each one builds the weighted
    bands of a whole block at once and refits it from its previous trend.
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
    if outer_iters < 0:
        raise ParameterError(f"outer_iters must be >= 0, got {outer_iters}")

    rows = y.reshape(-1, n)
    fit = np.empty((2, *rows.shape))  # trend, seasonal
    bands = _stl_bands(n, period, seasonal_window)
    block = max(1, STL_BLOCK // (8 * n))
    for start in range(0, len(rows), block):
        b = slice(start, start + block)
        y_b = np.ascontiguousarray(rows[b].T)
        t, s = _stl_pass(y_b, 0.0, period, bands)
        for _outer in range(outer_iters):
            resid = np.abs(y_b - t - s).T
            # np.median's own arithmetic, without its check that imports numpy.ma
            mad = np.sort(resid)[:, (n - 1) // 2 : n // 2 + 1].mean(axis=1)
            q = resid / np.where(mad > 0, 6 * mad, 1.0)[:, None]
            v = np.clip(1 - q * q, 0, None)
            t, s = _stl_pass(y_b, t, period, _stl_bands(n, period, seasonal_window, rho=v * v))
        fit[0, b], fit[1, b] = t.T, s.T
    trend, seasonal = fit.reshape(2, *y.shape)
    return Decomposition(trend=trend, seasonal=seasonal, residual=y - trend - seasonal)
