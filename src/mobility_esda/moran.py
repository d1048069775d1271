"""Global and local Moran statistics with permutation inference.

The global index for values x over weights W is

    I = (n / S0) * sum_ij w_ij (x_i - mu)(x_j - mu) / sum_i (x_i - mu)^2

and the local index for standardized values z is I_i = z_i * sum_j w_ij z_j.
Significance uses pseudo p-values (M+1)/(R+1) from seeded permutations;
an exhaustive mode enumerates every relabeling for small n so Monte Carlo
results can be checked exactly.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ZeroVarianceError
from .weights import SpatialWeights

QUADRANTS = ("HH", "LL", "LH", "HL")
SIGNIFICANCE_TIERS = (0.05, 0.01, 0.001)


@dataclass
class ValueField:
    x: np.ndarray
    mean: float
    sigma: float  # population standard deviation
    z: np.ndarray
    zero_variance: bool


def standardize_values(x) -> ValueField:
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise ParameterError(f"need at least 2 values, got {len(x)}")
    mu = float(x.mean())
    sigma = float(x.std())  # population sigma, so (1/n) sum z^2 = 1
    if sigma == 0:
        return ValueField(x, mu, 0.0, np.zeros_like(x), zero_variance=True)
    return ValueField(x, mu, sigma, (x - mu) / sigma, zero_variance=False)


def _require_variance(field: ValueField) -> None:
    if field.zero_variance:
        raise ZeroVarianceError("value field is constant; Moran statistic undefined")


def _check_aligned(field: ValueField, W: SpatialWeights) -> None:
    if len(field.x) != W.n:
        raise ParameterError(f"field has {len(field.x)} values but weights cover {W.n} regions")


def spatial_lag(W: SpatialWeights, z) -> np.ndarray:
    """lag_i = sum_j w_ij z_j; islands get 0."""
    z = np.asarray(z, dtype=float)
    if len(z) != W.n:
        raise ParameterError(f"lag input length {len(z)} != {W.n} regions")
    # bincount adds each row's terms in stored (ascending neighbor) order
    return np.bincount(W.rows, weights=W.data * z[W.indices], minlength=W.n)


def expected_i(n: int) -> float:
    return -1.0 / (n - 1)


def _moran_sims(z: np.ndarray, perms: np.ndarray, W: SpatialWeights) -> np.ndarray:
    """The global index of ``z[perm]`` for every row of the R x n ``perms``.

    A relabeling leaves ``z @ z`` unchanged, so the denominator is shared.
    The numerator gathers both ends of every stored weight; relabelings
    go in blocks of R*n // nnz so each gather is no larger than the
    R x n ``z[perms]`` itself.
    """
    rows = W.rows
    block = max(1, perms.size // max(1, len(W.indices)))
    num = np.empty(len(perms))
    for start in range(0, len(perms), block):
        zp = z[perms[start : start + block]]
        num[start : start + block] = (zp[:, rows] * zp[:, W.indices]) @ W.data
    return len(z) / W.s0 * num / (z @ z)


def moran_global(field: ValueField, W: SpatialWeights) -> float:
    _require_variance(field)
    _check_aligned(field, W)
    z = field.x - field.mean
    return float(_moran_sims(z, np.arange(W.n)[None, :], W)[0])


@dataclass
class MoranGlobalResult:
    I: float
    expected: float
    permutations: int
    seed: int | None
    sided: str
    sim_mean: float
    sim_sd: float
    pseudo_p: float
    exhaustive: bool = False


def _pseudo_p(observed: float, sims: np.ndarray, reference: float, sided: str) -> float:
    """(M+1)/(R+1) with M counting simulations at least as extreme as the
    observed value on its side of the reference; a zero deviation counts
    every simulation."""
    R = len(sims)
    dev = observed - reference
    eps = 1e-12  # count float-order ties as "at least as extreme"
    if sided == "greater":
        M = int(np.sum(sims >= observed - eps))
    elif sided == "less":
        M = int(np.sum(sims <= observed + eps))
    elif sided == "one_sided_folded":
        if dev > 0:
            M = int(np.sum(sims >= observed - eps))
        elif dev < 0:
            M = int(np.sum(sims <= observed + eps))
        else:
            M = R
    else:
        raise ParameterError(f"unknown sidedness {sided!r}")
    return (M + 1) / (R + 1)


def _field_group(
    fields: ValueField | Sequence[ValueField], W: SpatialWeights
) -> tuple[list[ValueField], bool]:
    """The fields of a permutation call, each checked against ``W``, and
    whether a single field (not a sequence) was passed."""
    single = isinstance(fields, ValueField)
    group = [fields] if single else list(fields)
    for field in group:
        _require_variance(field)
        _check_aligned(field, W)
    return group, single


def moran_permutation(
    fields: ValueField | Sequence[ValueField],
    W: SpatialWeights,
    permutations: int = 999,
    seed: int | None = 0,
    sided: str = "one_sided_folded",
    exhaustive: bool = False,
) -> MoranGlobalResult | list[MoranGlobalResult]:
    """Permutation test of spatial independence for the global index.

    Values are shuffled across regions uniformly at random. With
    ``exhaustive=True`` every one of the n! relabelings is evaluated
    instead (n <= 9 only) and ``permutations``/``seed`` are ignored.

    ``fields`` is one field, giving one result, or a sequence of fields
    on the same regions, giving one result per field in order. The
    relabelings are drawn once and every field is tested against them,
    so each field's result equals a call on that field alone.
    """
    group, single = _field_group(fields, W)
    n = W.n
    if exhaustive:
        if n > 9:
            raise ParameterError(f"exhaustive mode limited to n <= 9, got {n}")
        perms = np.array(list(itertools.permutations(range(n))))
    else:
        if permutations < 1:
            raise ParameterError(f"permutations must be >= 1, got {permutations}")
        rng = np.random.default_rng(seed)
        perms = np.array([rng.permutation(n) for _ in range(permutations)])
    results = []
    for field in group:
        observed = moran_global(field, W)
        sims = _moran_sims(field.x - field.mean, perms, W)
        results.append(
            MoranGlobalResult(
                I=observed,
                expected=expected_i(n),
                permutations=len(sims),
                seed=None if exhaustive else seed,
                sided=sided,
                sim_mean=float(sims.mean()),
                sim_sd=float(sims.std()),
                pseudo_p=_pseudo_p(observed, sims, expected_i(n), sided),
                exhaustive=exhaustive,
            )
        )
    return results[0] if single else results


def _quadrant(zi: float, lagi: float) -> str:
    if zi > 0:
        return "HH" if lagi > 0 else "HL"
    return "LH" if lagi > 0 else "LL"


@dataclass
class MoranScatter:
    z: np.ndarray
    lag: np.ndarray
    quadrants: list[str]
    slope: float


def moran_scatter(field: ValueField, W: SpatialWeights) -> MoranScatter:
    """(z_i, lag_i) points with the origin-regression slope.

    For row-standardized weights the slope equals the global index.
    """
    _require_variance(field)
    _check_aligned(field, W)
    lag = spatial_lag(W, field.z)
    slope = float((field.z @ lag) / (field.z @ field.z))
    quads = [_quadrant(zi, li) for zi, li in zip(field.z, lag)]
    return MoranScatter(field.z.copy(), lag, quads, slope)


def _local_and_lag(field: ValueField, W: SpatialWeights) -> tuple[np.ndarray, np.ndarray]:
    _require_variance(field)
    _check_aligned(field, W)
    lag = spatial_lag(W, field.z)
    return field.z * lag, lag


def moran_local(field: ValueField, W: SpatialWeights) -> np.ndarray:
    """Local index I_i = z_i * lag_i; islands get 0."""
    return _local_and_lag(field, W)[0]


def _ordered_draws(rng: np.random.Generator, m: int, k: int, size: int) -> np.ndarray:
    """``size`` rows of k distinct indices from range(m), each row uniform
    over the m!/(m-k)! ordered k-tuples.

    Floyd's subset algorithm runs on all rows at once: round j draws from
    range(j + 1) and takes j instead when the draw repeats an earlier pick,
    which leaves a uniform k-subset in k rounds with no redraws. Sorting
    each row by uniform keys then puts the subset in uniform order.
    """
    picks = np.empty((size, k), dtype=np.intp)
    for t, j in enumerate(range(m - k, m)):
        draw = rng.integers(0, j + 1, size=size)
        repeat = (picks[:, :t] == draw[:, None]).any(axis=1)
        picks[:, t] = np.where(repeat, j, draw)
    order = np.argsort(rng.random((size, k)), axis=1)
    return np.take_along_axis(picks, order, axis=1)


def lisa_permutation(
    fields: ValueField | Sequence[ValueField],
    W: SpatialWeights,
    permutations: int = 999,
    seed: int | None = 0,
    sided: str = "one_sided_folded",
    exhaustive: bool = False,
) -> np.ndarray | list[np.ndarray]:
    """Conditional permutation pseudo p-value per region.

    For each region i, z_i is held fixed and its |N(i)| neighbor values
    are drawn without replacement from the other n-1 values (Anselin
    1995, conditional randomization). Region i draws all of its
    ``permutations`` arrangements as one block from the stream
    ``default_rng((seed, i))``, so regions can be evaluated in parallel
    with identical results. The block sampler (``_ordered_draws``) reads
    the stream differently from the earlier one-arrangement-per-call
    sampler, so seeded p-values differ from earlier releases while
    following the same null distribution. ``seed=None`` draws fresh
    entropy once and uses it in place of the integer seed. Exhaustive
    mode enumerates every arrangement of neighbor values.

    ``fields`` is one field, giving one p array, or a sequence of fields
    on the same regions, giving one p array per field in order. Each
    region's block is drawn once and every field is evaluated on it
    before the next region is drawn, so each field's p-values equal a
    call on that field alone.
    """
    group, single = _field_group(fields, W)
    if not exhaustive and permutations < 1:
        raise ParameterError(f"permutations must be >= 1, got {permutations}")
    if seed is None:
        seed = np.random.SeedSequence().entropy
    n = W.n
    p = np.ones((len(group), n))
    for i in range(n):
        nbrs, wts = W.neighbors(i), W.weights(i)
        k = len(nbrs)
        if k == 0:
            continue  # island: no lag, leave p = 1
        wsum = float(wts.sum())
        if exhaustive:
            if math.perm(n - 1, k) > 500_000:
                raise ParameterError(
                    f"exhaustive conditional enumeration too large for region {i}"
                )
            draws = np.array(list(itertools.permutations(range(n - 1), k)))
        else:
            draws = _ordered_draws(np.random.default_rng((seed, i)), n - 1, k, permutations)
        for f, field in enumerate(group):
            z = field.z
            observed = float(z[i] * np.dot(wts, z[nbrs]))
            reference = -(z[i] ** 2) * wsum / (n - 1)
            sims = z[i] * (np.delete(z, i)[draws] @ wts)
            p[f, i] = _pseudo_p(observed, sims, reference, sided)
    return p[0] if single else list(p)


@dataclass
class LisaResult:
    ids: list[str]
    local_i: np.ndarray
    lag: np.ndarray
    pseudo_p: np.ndarray
    labels: list[str]  # HH/LL/LH/HL or ns
    tiers: list[float | None]  # finest tier met, None if ns
    alpha: float


def lisa_classify(
    field: ValueField,
    W: SpatialWeights,
    p: np.ndarray,
    alpha: float = 0.05,
) -> LisaResult:
    """Cluster/outlier labels and significance tiers per region."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    local_i, lag = _local_and_lag(field, W)
    labels = []
    tiers: list[float | None] = []
    for i in range(W.n):
        if p[i] > alpha:
            labels.append("ns")
            tiers.append(None)
            continue
        labels.append(_quadrant(field.z[i], lag[i]))
        # finest tier: smallest threshold still satisfied, None above 0.05
        tiers.append(min((t for t in SIGNIFICANCE_TIERS if p[i] <= t), default=None))
    return LisaResult(list(W.ids), local_i, lag, np.asarray(p, dtype=float), labels, tiers, alpha)
