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

from .errors import DataError, ParameterError, ZeroVarianceError
from .weights import SpatialWeights

SIGNIFICANCE_TIERS = (0.05, 0.01, 0.001)
SIDES = ("greater", "less", "one_sided_folded")
LISA_BLOCK = 8192  # elements of one block's regions x draws x degree arrays
EPS = 1e-12  # a simulation within EPS of the observation counts as at least as extreme


class ValueField:
    """Values ``x`` with their ``mean``, population ``sigma`` and z-scores
    ``z``; building one from a constant field raises ``ZeroVarianceError``,
    and from one whose ``sigma`` overflows a ``DataError``."""

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)
        if len(self.x) < 2:
            raise ParameterError(f"need at least 2 values, got {len(self.x)}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
            self.mean = float(self.x.mean())
            self.sigma = float(self.x.std())  # population sigma, so (1/n) sum z^2 = 1
        if not math.isfinite(self.sigma):
            raise DataError("values too large: their spread overflows; Moran statistic undefined")
        if self.sigma == 0:
            raise ZeroVarianceError("value field is constant; Moran statistic undefined")
        self.z = (self.x - self.mean) / self.sigma


def _check_aligned(field: ValueField, W: SpatialWeights) -> None:
    if len(field.x) != W.n:
        raise ParameterError(f"field has {len(field.x)} values but weights cover {W.n} regions")


def _check_sided(sided: str) -> None:
    if sided not in SIDES:
        raise ParameterError(f"unknown sidedness {sided!r}")


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
    _check_aligned(field, W)
    if W.s0 == 0:
        raise DataError("the weights link no two regions; the global Moran index is undefined")
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


def _tail_sign(dev, sided: str):
    """The tail each test counts, per deviation of the observation from
    its reference: +1 the upper, -1 the lower, 0 (a folded test with zero
    deviation) every simulation.

    A simulation s is at least as extreme as the observation o when
    ``sign * s >= sign * o - EPS``. For sign -1 that is exactly
    ``s <= o + EPS``, as negation is exact, and for sign 0 it always holds.
    """
    if sided == "greater":
        return 1.0
    if sided == "less":
        return -1.0
    return np.sign(dev)


def _pseudo_p(observed: float, sims: np.ndarray, reference: float, sided: str) -> float:
    """(M+1)/(R+1) with M counting simulations at least as extreme as the
    observed value on its side of the reference; a zero deviation counts
    every simulation."""
    sign = _tail_sign(observed - reference, sided)
    M = int(np.count_nonzero(sign * sims >= sign * observed - EPS))
    return (M + 1) / (len(sims) + 1)


def _field_group(
    fields: ValueField | Sequence[ValueField], W: SpatialWeights
) -> tuple[list[ValueField], bool]:
    """The fields of a permutation call, each checked against ``W``, and
    whether a single field (not a sequence) was passed."""
    single = isinstance(fields, ValueField)
    group = [fields] if single else list(fields)
    for field in group:
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
    _check_sided(sided)
    n = W.n
    if exhaustive:
        if n > 9:
            raise ParameterError(f"exhaustive mode limited to n <= 9, got {n}")
        perms = np.array(list(itertools.permutations(range(n))))
    else:
        if permutations < 1:
            raise ParameterError(f"permutations must be >= 1, got {permutations}")
        rng = np.random.default_rng(seed)
        # row by row the same relabelings as one rng.permutation(n) call each
        perms = rng.permuted(np.tile(np.arange(n), (permutations, 1)), axis=1)
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


def _block_draws(rngs: list[np.random.Generator], m: int, k: int, size: int) -> np.ndarray:
    """One block of ``size`` rows of k distinct indices from range(m) per
    generator, G x size x k; each row is uniform over the m!/(m-k)!
    ordered k-tuples.

    Each generator is read on its own, in this order: k rounds of
    ``size`` integers in [0, j] for j = m-k .. m-1, in one ``integers``
    call (it gives the values, and leaves the state, of k calls
    ``integers(0, j + 1, size=size)``), then ``random((size, k))`` sort
    keys. The rest runs on all blocks at once.
    Floyd's subset algorithm: a round's draw that repeats an earlier pick
    of its row becomes j instead, which leaves a uniform k-subset in k
    rounds with no redraws. Sorting each row by its uniform keys then puts
    the subset in uniform order.
    """
    G = len(rngs)
    picks = np.empty((k, G, size), dtype=np.intp)  # round-major: each round is contiguous
    keys = np.empty((G, size, k))
    bounds = np.arange(m - k, m)[:, None] + 1
    for g, rng in enumerate(rngs):
        picks[:, g] = rng.integers(0, bounds, size=(k, size))
        rng.random(out=keys[g])
    for t, j in enumerate(range(m - k, m)):
        np.copyto(picks[t], j, where=(picks[:t] == picks[t]).any(axis=0))
    # row (g, r) in the order of its keys; picks[a, g, r] is flat element a*G*size + g*size + r
    # (in place: at most three G x size x k arrays are live, as in a one-region block)
    order = np.argsort(keys, axis=-1)
    order *= G * size
    order += np.arange(G * size).reshape(G, size, 1)
    return np.take(picks, order)


def _local_tails(
    Z: np.ndarray, regions: np.ndarray, nbrs: np.ndarray, wts: np.ndarray, sided: str
) -> tuple[np.ndarray, np.ndarray]:
    """For each field (row of the F x n ``Z``) and each of G regions of one
    degree k with G x k neighbours ``nbrs`` and weights ``wts``: sign * z_i
    and sign * I_i - EPS, F x G each, with the sign of ``_tail_sign``.

    A draw whose lag is ``lag`` is at least as extreme as the observation
    when ``(sign * z_i) * lag >= sign * I_i - EPS``, which is
    ``sign * (z_i * lag)`` exactly. I_i and its reference
    -z_i**2 * sum(w) / (n - 1) are rounded as the one-region formulas: a
    BLAS dot per region (one field at a time, as a stacked matmul sums in
    another order) and libm ``pow`` for z_i**2 (numpy squares arrays by
    multiplication, which can round differently).
    """
    zi = Z[:, regions]
    lags = [(wts[:, None, :] @ z[nbrs][:, :, None])[:, 0, 0] for z in Z]
    observed = zi * np.reshape(lags, zi.shape)
    zi_pow2 = np.reshape([v**2 for v in zi.ravel().tolist()], zi.shape)
    reference = -zi_pow2 * wts.sum(axis=1) / (Z.shape[1] - 1)
    sign = _tail_sign(observed - reference, sided)
    return sign * zi, sign * observed - EPS


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
    ``permutations`` arrangements from its own stream
    ``default_rng((seed, i))``, read exactly as ``_block_draws`` reads
    it, so its p-value does not depend on which regions are evaluated
    with it. The reads go region by region; everything after them runs
    on blocks of regions of equal degree, of about ``LISA_BLOCK`` draw
    elements each, and gives the same p-values bit for bit as evaluating
    one region at a time: seeded p-values are those of earlier releases
    that use this sampler. ``seed=None`` draws fresh entropy once and
    uses it in place of the integer seed. Exhaustive mode enumerates
    every arrangement of neighbor values, once per degree.

    ``fields`` is one field, giving one p array, or a sequence of fields
    on the same regions, giving one p array per field in order. The draws
    are made once and every field is evaluated on them, one field at a
    time, so each field's p-values equal a call on that field alone.
    Islands get p = 1.
    """
    group, single = _field_group(fields, W)
    _check_sided(sided)
    if not exhaustive and permutations < 1:
        raise ParameterError(f"permutations must be >= 1, got {permutations}")
    if seed is None:
        seed = np.random.SeedSequence().entropy
    n = W.n
    degree = np.diff(W.indptr)
    if exhaustive:
        big = [i for i, k in enumerate(degree.tolist()) if k and math.perm(n - 1, k) > 500_000]
        if big:
            raise ParameterError(f"exhaustive conditional enumeration too large for region {big[0]}")
    Z = np.array([field.z for field in group]).reshape(len(group), n)
    p = np.ones((len(group), n))
    for k in sorted(set(degree.tolist()) - {0}):
        regions = np.flatnonzero(degree == k)
        stored = W.indptr[regions][:, None] + np.arange(k)
        wts = W.data[stored]
        signed_zi, threshold = _local_tails(Z, regions, W.indices[stored], wts, sided)
        if exhaustive:
            enumeration = np.array(list(itertools.permutations(range(n - 1), k)))
        R = len(enumeration) if exhaustive else permutations
        counts = np.empty(signed_zi.shape, dtype=np.intp)
        block = max(1, LISA_BLOCK // (R * k))
        for start in range(0, len(regions), block):
            b = slice(start, start + block)
            # each draw indexes the n - 1 regions other than i: skip i itself
            if exhaustive:
                others = enumeration + (enumeration >= regions[b, None, None])
            else:
                rngs = [np.random.default_rng((seed, i)) for i in regions[b].tolist()]
                others = _block_draws(rngs, n - 1, k, R)
                others += others >= regions[b, None, None]
            for f, z in enumerate(Z):
                lag = (z[others] @ wts[b, :, None])[..., 0]
                counts[f, b] = (signed_zi[f, b, None] * lag >= threshold[f, b, None]).sum(axis=1)
        p[:, regions] = (counts + 1) / (R + 1)
    return p[0] if single else list(p)


@dataclass
class LisaResult:
    """Local Moran per region: the Moran scatter points (z_i, lag_i), whose
    quadrants label the significant regions, and the permutation p-values."""

    ids: list[str]
    z: np.ndarray
    lag: np.ndarray
    pseudo_p: np.ndarray
    labels: list[str]  # HH/LL/LH/HL or ns
    tiers: list[float | None]  # finest tier met, None if ns

    @property
    def local_i(self) -> np.ndarray:
        """I_i = z_i * lag_i; islands get 0."""
        return self.z * self.lag

    @property
    def slope(self) -> float:
        """Origin-regression slope of lag on z: the global index for row-standardized weights."""
        return float((self.z @ self.lag) / (self.z @ self.z))


def lisa_classify(
    field: ValueField,
    W: SpatialWeights,
    p: np.ndarray,
    alpha: float = 0.05,
) -> LisaResult:
    """Cluster/outlier labels and significance tiers per region."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    lag = spatial_lag(W, field.z)
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
    return LisaResult(list(W.ids), field.z, lag, np.asarray(p, dtype=float), labels, tiers)
