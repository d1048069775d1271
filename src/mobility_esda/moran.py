"""Global and local Moran statistics with permutation inference.

The global index for values x over weights W is

    I = (n / S0) * sum_ij w_ij (x_i - mu)(x_j - mu) / sum_i (x_i - mu)^2

and the local index for standardized values z is I_i = z_i * sum_j w_ij z_j.
Significance uses pseudo p-values (M+1)/(R+1) from seeded permutations,
where M counts the simulations at least as extreme as the observation on
the side of its reference that it falls on (folded one-sided), or every
simulation when it ties its reference; an exhaustive mode enumerates
every relabeling for small n so Monte Carlo results can be checked
exactly.
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
PAIR_BLOCK = 1 << 16  # bytes of a block's index array: relabelings x linked pairs, or regions x draws x degree
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


def spatial_lag(W: SpatialWeights, z) -> np.ndarray:
    """lag_i = sum_j w_ij z_j; islands get 0."""
    z = np.asarray(z, dtype=float)
    if len(z) != W.n:
        raise ParameterError(f"lag input length {len(z)} != {W.n} regions")
    # bincount adds each row's terms in stored (ascending neighbor) order
    return np.bincount(W.rows, weights=W.data * z[W.indices], minlength=W.n)


def expected_i(n: int) -> float:
    return -1.0 / (n - 1)


def _linked_pairs(W: SpatialWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each unordered linked pair i <= j once, as indices ``i``, ``j`` and
    weight w_ij + w_ji (w_ii for a link of a region to itself), so that
    sum_ij w_ij z_i z_j = sum over pairs of weight * z_i * z_j. Every stored
    link has its mirror (``SpatialWeights`` refuses others); the links above the
    diagonal are stored in (i, j) order, and sorting those below by (j, i) aligns them.
    """
    rows, cols, n = W.rows, W.indices, W.n
    upper = np.flatnonzero(rows < cols)
    lower = np.flatnonzero(rows > cols)
    lower = lower[np.argsort(cols[lower] * n + rows[lower], kind="stable")]
    loops = np.flatnonzero(rows == cols)
    return (
        np.concatenate((rows[upper], rows[loops])),
        np.concatenate((cols[upper], cols[loops])),
        np.concatenate((W.data[upper] + W.data[lower], W.data[loops])),
    )


def _moran_sims(Z: np.ndarray, perms: np.ndarray, W: SpatialWeights) -> np.ndarray:
    """The global index of ``z[perm]`` for every row z of the F x n ``Z``
    (each centered) and every row of the R x n ``perms``: F x R.

    The numerator sums each linked pair once (``_linked_pairs``) with
    elementwise products and a numpy row sum per relabeling, so a value
    does not depend on the block it falls in, the BLAS kernel or numpy's
    SIMD dispatch. A relabeling leaves ``(z * z).sum()`` unchanged, so the
    denominator is shared. Relabelings go in blocks of about
    ``PAIR_BLOCK`` bytes of pair indices, which every field uses.
    """
    if W.s0 == 0:
        raise DataError("the weights link no two regions; the global Moran index is undefined")
    i, j, w = _linked_pairs(W)
    block = max(1, PAIR_BLOCK // (perms.itemsize * max(1, len(w))))
    num = np.empty((len(Z), len(perms)))
    for start in range(0, len(perms), block):
        b = slice(start, start + block)
        # take, not perms[b][:, i], whose rows are not contiguous: each row sums in the same order
        pi, pj = perms[b].take(i, axis=1), perms[b].take(j, axis=1)
        for f, z in enumerate(Z):
            terms = z[pi]
            terms *= z[pj]
            terms *= w
            num[f, b] = terms.sum(axis=1)
    den = np.array([(z * z).sum() for z in Z])
    return Z.shape[1] / W.s0 * num / den[:, None]


def moran_global(field: ValueField, W: SpatialWeights) -> float:
    _check_aligned(field, W)
    z = field.x - field.mean
    return float(_moran_sims(z[None], np.arange(W.n)[None], W)[0, 0])


@dataclass
class MoranGlobalResult:
    I: float
    expected: float
    permutations: int
    sim_mean: float
    sim_sd: float
    pseudo_p: float


def _side(observed, reference):
    """The sign of ``observed - reference``, elementwise, or 0 for a tie:
    a deviation of at most ``EPS``, which rounding alone can give."""
    deviation = np.subtract(observed, reference)
    return np.where(np.abs(deviation) <= EPS, 0.0, np.sign(deviation))


def _pseudo_p(observed: float, sims: np.ndarray, reference: float) -> float:
    """(M+1)/(R+1) with M counting simulations at least as extreme as the
    observed value on its side of the reference (the folded tail); a tie
    counts every simulation.

    With side s (``_side``), a simulation v is at least as extreme as the
    observation o when ``s * v >= s * o - EPS``. For s = -1 that is
    exactly ``v <= o + EPS``, as negation is exact, and for s = 0 it
    always holds.
    """
    side = _side(observed, reference)
    M = int(np.count_nonzero(side * sims >= side * observed - EPS))
    return (M + 1) / (len(sims) + 1)


def moran_permutation(
    fields: Sequence[ValueField],
    W: SpatialWeights,
    permutations: int = 999,
    seed: int = 0,
    exhaustive: bool = False,
) -> list[MoranGlobalResult]:
    """Permutation test of spatial independence for the global index.

    Values are shuffled across regions uniformly at random. With
    ``exhaustive=True`` every one of the n! relabelings is evaluated
    instead (n <= 9 only) and ``permutations``/``seed`` are ignored.

    ``fields`` are on the same regions, and there is one result per
    field in order. The relabelings are drawn once and every field is
    tested against them, so each field's result equals a call on that
    field alone.
    """
    for field in fields:
        _check_aligned(field, W)
    n = W.n
    if exhaustive:
        if n > 9:
            raise ParameterError(f"exhaustive mode limited to n <= 9, got {n}")
        perms = np.array(list(itertools.permutations(range(n))))
    else:
        if permutations < 1:
            raise ParameterError(f"permutations must be >= 1, got {permutations}")
        perms = np.tile(np.arange(n), (permutations, 1))
        # in place, row by row the same relabelings as one rng.permutation(n) call each
        np.random.default_rng(seed).permuted(perms, axis=1, out=perms)
    if not fields:
        return []
    Z = np.array([field.x - field.mean for field in fields])
    # the identity relabeling gives each field's observed index, as moran_global does
    observed = _moran_sims(Z, np.arange(n)[None], W)[:, 0].tolist()
    return [
        MoranGlobalResult(
            I=I,
            expected=expected_i(n),
            permutations=len(sims),
            sim_mean=float(sims.mean()),
            sim_sd=float(sims.std()),
            pseudo_p=_pseudo_p(I, sims, expected_i(n)),
        )
        for I, sims in zip(observed, _moran_sims(Z, perms, W))
    ]


def _bounded_draws(keys: Sequence[int | tuple[int, int]], m: int, k: int, size: int) -> np.ndarray:
    """Per stream key, the values of k calls ``integers(0, j + 1, size=size)``
    on ``default_rng(key)`` for j = m-k .. m-1, read from the stream's raw
    PCG64 words: k x G x size (m <= 2**32).

    Each 64-bit word is two 32-bit draws, low half first as ``PCG64`` hands
    them out, and a draw u becomes (u * (j+1)) >> 32, rejected when its low
    32 bits fall below 2**32 mod (j+1) (Lemire 2019), as numpy does; a bound
    of 1 (j = 0, when m == k) reads no word and gives 0. A stream with a
    rejected draw, about one in 2**32 / j, is read again by ``integers``.
    """
    G = len(keys)
    draws = np.empty((k, G, size), dtype=np.intp)  # round-major: each round is contiguous
    bounds = np.arange(m - k, m, dtype=np.uint64)[:, None] + 1
    skip = int(m == k)  # the rounds of bound 1
    draws[:skip] = 0
    words = (k - skip) * size
    raw = np.array([np.random.PCG64(key).random_raw((words + 1) // 2) for key in keys])
    u = np.empty((G, 2 * raw.shape[1]), dtype=np.uint64)
    u[:, 0::2], u[:, 1::2] = raw & 0xFFFFFFFF, raw >> 32  # arithmetic halves: no byte order
    u = u[:, :words].reshape(G, k - skip, size).transpose(1, 0, 2)
    span = bounds[skip:, :, None]
    u *= span
    draws[skip:] = u >> 32
    rejected = ((u & 0xFFFFFFFF) < (1 << 32) % span).any(axis=(0, 2))
    for g in np.flatnonzero(rejected).tolist():
        draws[:, g] = np.random.default_rng(keys[g]).integers(0, bounds, size=(k, size))
    return draws


def _block_draws(keys: Sequence[int | tuple[int, int]], m: int, k: int, size: int) -> np.ndarray:
    """One block of ``size`` uniform k-subsets of range(m) per stream key,
    k x G x size: ``picks[:, g, r]`` is row r of the stream
    ``default_rng(keys[g])``.

    The k rounds of ``_bounded_draws`` go through Floyd's subset algorithm
    (Bentley and Floyd 1987) on all streams at once: a round's draw that
    repeats an earlier pick of its row becomes j instead, which leaves a
    uniform k-subset in k rounds with no redraws. Each subset is the one
    earlier releases drew, so seeded p-values carry over.
    """
    picks = _bounded_draws(keys, m, k, size)
    for t, j in enumerate(range(m - k, m)):
        np.copyto(picks[t], j, where=(picks[:t] == picks[t]).any(axis=0))
    return picks


def lisa_permutation(
    fields: Sequence[ValueField],
    W: SpatialWeights,
    permutations: int = 999,
    seed: int = 0,
    exhaustive: bool = False,
) -> list[np.ndarray]:
    """Conditional permutation pseudo p-value per region.

    For each region i, z_i is held fixed and its k = |N(i)| neighbor
    values are drawn without replacement from the other n-1 values
    (Anselin 1995, conditional randomization). A region's stored weights
    must all be equal, as binary and row-standardized ones are, else
    ``ParameterError``: a draw's lag is then w_i times the sum of the k
    values drawn, whatever their order. I_i is z_i times
    ``spatial_lag(W, z)_i``, and its reference -z_i**2 k w_i / (n - 1);
    the tail and the tie rule are those of ``_pseudo_p``.

    Region i draws its ``permutations`` k-subsets from its own stream
    ``default_rng((seed, i))``, read as ``_block_draws`` reads it (raw
    PCG64 words through Lemire's bounded multiply, the values of
    ``integers``), so its p-value does not depend on which regions are
    evaluated with it.
    Everything after the reads runs on blocks of regions of equal degree,
    of about ``PAIR_BLOCK`` bytes of draw indices each, and gives the p-values of
    one region at a time bit for bit. Exhaustive mode enumerates every
    ordered arrangement of neighbor values, once per degree, so its R is
    (n-1)!/(n-1-k)!.

    ``fields`` are on the same regions, and there is one p array per
    field in order. The draws are made once and every field is evaluated
    on them, one field at a time, so each field's p-values equal a call
    on that field alone. Islands get p = 1.
    """
    for field in fields:
        _check_aligned(field, W)
    if not exhaustive and permutations < 1:
        raise ParameterError(f"permutations must be >= 1, got {permutations}")
    unequal = np.flatnonzero(W.data != W.data[W.indptr[W.rows]])
    if len(unequal):
        region = W.ids[W.rows[unequal[0]]]
        raise ParameterError(f"region {region!r} has unequal weights; conditional permutation needs equal ones")
    n = W.n
    degree = np.diff(W.indptr)
    if exhaustive:
        big = [i for i, k in enumerate(degree.tolist()) if k and math.perm(n - 1, k) > 500_000]
        if big:
            count = math.perm(n - 1, int(degree[big[0]]))
            raise ParameterError(f"exhaustive conditional enumeration too large for region {W.ids[big[0]]!r}: "
                                 f"{count:,} arrangements, more than 500,000")
    Z = np.array([field.z for field in fields]).reshape(len(fields), n)
    local = np.array([z * spatial_lag(W, z) for z in Z]).reshape(Z.shape)
    p = np.ones((len(fields), n))
    for k in sorted(set(degree.tolist()) - {0}):
        regions = np.flatnonzero(degree == k)
        w = W.data[W.indptr[regions]]
        zi, Ii = Z[:, regions], local[:, regions]
        side = _side(Ii, -zi * zi * (k * w) / (n - 1))
        # a draw whose lag is w_i * s counts when side * z_i * (w_i * s) >= side * I_i - EPS
        signed_zi, threshold = side * zi, side * Ii - EPS
        if exhaustive:
            enumeration = np.array(list(itertools.permutations(range(n - 1), k))).T[:, None]
        R = enumeration.shape[-1] if exhaustive else permutations
        counts = np.empty(zi.shape, dtype=np.intp)
        block = max(1, PAIR_BLOCK // (np.dtype(np.intp).itemsize * R * k))
        for start in range(0, len(regions), block):
            b = slice(start, start + block)
            picks = enumeration if exhaustive else _block_draws(
                [(seed, i) for i in regions[b].tolist()], n - 1, k, R
            )
            # each pick indexes the n - 1 regions other than i: skip i itself
            others = picks + (picks >= regions[b, None])
            for f, z in enumerate(Z):
                lag = z[others[0]]
                for t in range(1, k):
                    lag += z[others[t]]
                lag *= w[b, None]
                counts[f, b] = (signed_zi[f, b, None] * lag >= threshold[f, b, None]).sum(axis=1)
        p[:, regions] = (counts + 1) / (R + 1)
    return list(p)


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
    p = np.asarray(p, dtype=float)
    quadrants = np.where(field.z > 0, np.where(lag > 0, "HH", "HL"), np.where(lag > 0, "LH", "LL"))
    labels = np.where(p > alpha, "ns", quadrants).tolist()
    # finest tier: smallest threshold still satisfied, None above 0.05
    tiers = [None if pi > alpha else min((t for t in SIGNIFICANCE_TIERS if pi <= t), default=None)
             for pi in p.tolist()]
    return LisaResult(list(W.ids), field.z, lag, p, labels, tiers)
