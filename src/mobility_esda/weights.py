"""Contiguity spatial weights: queen/rook construction and row standardization.

Adjacency is decided on vertices snapped to a tolerance grid, so boundary
files with floating-point mismatch still register shared borders. Queen
contiguity needs a single shared boundary point; rook needs a shared edge
(two consecutive snapped vertices along both boundaries).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GeometryError, ParameterError
from .geometry import RegionGeometry

# candidate pairs the queen sweep builds per array pass: bounds its memory
# at any region count
PAIR_BLOCK = 32768


@dataclass
class SpatialWeights:
    """Weights in compressed sparse row form.

    Region i's neighbours are ``indices[indptr[i]:indptr[i + 1]]`` in
    ascending order, with their weights at the same positions of ``data``.
    """

    ids: list[str]
    indptr: np.ndarray  # n + 1 row offsets into indices/data
    indices: np.ndarray  # neighbor index per stored weight
    data: np.ndarray  # weight per stored neighbor
    mode: str = "binary"  # binary | row_standardized

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.intp)
        self.indices = np.asarray(self.indices, dtype=np.intp)
        self.data = np.asarray(self.data, dtype=float)
        nnz = len(self.indices)
        if len(self.indptr) != self.n + 1 or self.indptr[-1] != nnz or len(self.data) != nnz:
            raise DataError("ids/indptr/indices/data lengths differ")
        if nnz and not 0 <= self.indices.min() <= self.indices.max() < self.n:
            raise DataError("neighbor index out of range")
        # each row's neighbors are put in ascending order; every (row, col) pair
        # needs its (col, row) pair and is stored once: report the first that
        # fails. Sorted keys and binary search, not np.unique or np.isin: the
        # first np.unique call imports numpy.ma. Keys in order already, as
        # row_standardize gives them, pass the stable sort (timsort) in linear time
        rows = self.rows
        keys = rows * self.n + self.indices
        order = np.argsort(keys, kind="stable")
        keys, self.indices, self.data = keys[order], self.indices[order], self.data[order]
        mirrored = self.indices * self.n + rows
        lonely = keys.take(np.searchsorted(keys, mirrored), mode="clip") != mirrored
        if lonely.any():
            k = int(np.argmax(lonely))
            raise DataError(
                f"asymmetric neighbor graph: {self.ids[rows[k]]} -> {self.ids[self.indices[k]]}"
            )
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if twice.size:
            i, j = divmod(int(keys[twice[0]]), self.n)
            raise DataError(f"neighbor pair stored twice: {self.ids[i]} -> {self.ids[j]}")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def rows(self) -> np.ndarray:
        """The region index of every stored weight, aligned with ``indices``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @property
    def s0(self) -> float:
        return float(self.data.sum())

    @property
    def islands(self) -> list[int]:
        return np.flatnonzero(np.diff(self.indptr) == 0).tolist()

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def weights(self, i: int) -> np.ndarray:
        return self.data[self.indptr[i] : self.indptr[i + 1]]

    @classmethod
    def from_rows(cls, ids: list[str], neighbors: list, weights: list | None = None) -> "SpatialWeights":
        """Weights from each region's neighbor indices, in any order, and the
        weights aligned with them (every weight 1.0 without ``weights``)."""
        neighbors = [list(nbrs) for nbrs in neighbors]
        counts = [len(nbrs) for nbrs in neighbors]
        if weights is None:
            data = np.ones(sum(counts))
        elif [len(wts) for wts in weights] != counts:
            raise DataError("each region needs one weight per neighbor")
        else:
            data = np.array([w for wts in weights for w in wts], dtype=float)
        indices = np.array([j for nbrs in neighbors for j in nbrs], dtype=np.intp)
        return cls(list(ids), np.concatenate(([0], np.cumsum(counts))), indices, data)


def _check_geoms(geoms: list[RegionGeometry], snap_tol: float) -> None:
    if not (math.isfinite(snap_tol) and snap_tol > 0):
        raise ParameterError(f"snap_tol must be finite and > 0, got {snap_tol}")
    if len(geoms) < 2:
        raise ParameterError("need at least 2 geometries")
    seen = set()
    for g in geoms:
        if g.region_id in seen:
            raise DataError(f"duplicate region id {g.region_id!r}")
        seen.add(g.region_id)
    reach = max(abs(v) for g in geoms for v in g.bbox)
    if not math.isfinite(reach / snap_tol):
        raise ParameterError(f"snap_tol {snap_tol} is too small for coordinates as large as {reach}")


def _snapped_rings(g: RegionGeometry, tol: float) -> list[list[tuple[int, int]]]:
    """Each ring's points snapped to the ``tol`` grid. A region is degenerate
    if every ring snaps to one point: it then has no edge with two distinct ends."""
    rings = [[(round(p[0] / tol), round(p[1] / tol)) for p in ring] for ring in g.rings]
    if all(len(set(ring)) == 1 for ring in rings):
        raise GeometryError(f"{g.region_id}: ring degenerate at tolerance {tol}")
    return rings


def _point_on_segment(p, a, b, tol: float) -> bool:
    # distance from p to segment ab within tol
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return (px - ax) ** 2 + (py - ay) ** 2 <= tol * tol
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    cx, cy = ax + t * dx, ay + t * dy
    return (px - cx) ** 2 + (py - cy) ** 2 <= tol * tol


def _vertex_touches(gi: RegionGeometry, gj: RegionGeometry, tol: float) -> bool:
    segs = [
        (ring[k], ring[k + 1])
        for ring in gj.rings
        for k in range(len(ring) - 1)
    ]
    for ring in gi.rings:
        for p in ring:
            for a, b in segs:
                if _point_on_segment(p, a, b, tol):
                    return True
    return False


def _sharing(keysets: list[set]) -> list[set[int]]:
    """For each region, the other regions whose snapped vertices or edges
    (``keysets``) meet its own."""
    by_key: dict = {}
    for i, keys in enumerate(keysets):
        for key in keys:
            by_key.setdefault(key, []).append(i)
    adjacency: list[set[int]] = [set() for _ in keysets]
    for members in by_key.values():
        for i in members:
            for j in members:
                if i != j:
                    adjacency[i].add(j)
    return adjacency


def _box_pairs(geoms: list[RegionGeometry], tol: float):
    """Each pair of regions whose bounding boxes widened by ``tol`` overlap,
    once, as index arrays built from at most ``PAIR_BLOCK`` candidates at a time.

    A sort-and-sweep: sorted by ``x0 - tol``, a region's candidates are the
    run of later regions whose key is at most its own ``x1``. That is one
    half of the x-test; the other half holds in sorted order, as
    ``key <= x0 <= x1``. The y-test then runs on the candidates.
    """
    x0, y0, x1, y1 = np.array([g.bbox for g in geoms]).T
    keys = x0 - tol
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    reach = np.searchsorted(keys, x1[order], side="right")
    # sorted position p's candidates are p + 1 .. reach[p] - 1, and hold
    # flat indices ends[p - 1] .. ends[p] - 1 of all candidates
    ends = np.cumsum(reach - np.arange(1, len(geoms) + 1))
    for start in range(0, int(ends[-1]), PAIR_BLOCK):
        k = np.arange(start, min(start + PAIR_BLOCK, int(ends[-1])))
        p = np.searchsorted(ends, k, side="right")
        a, b = order[p], order[k - ends[p] + reach[p]]
        keep = (y0[a] - tol <= y1[b]) & (y0[b] - tol <= y1[a])
        yield a[keep], b[keep]


def queen_adjacency(geoms: list[RegionGeometry], snap_tol: float = 1e-7) -> SpatialWeights:
    """Binary weights: adjacent iff sharing any snapped boundary point."""
    _check_geoms(geoms, snap_tol)
    adjacency = _sharing([{p for ring in _snapped_rings(g, snap_tol) for p in ring} for g in geoms])
    # a vertex of one region lying mid-segment on another still counts;
    # candidates are the pairs whose tol-widened boxes overlap
    for first, second in _box_pairs(geoms, snap_tol):
        for i, j in zip(first.tolist(), second.tolist()):
            if j in adjacency[i]:
                continue
            if _vertex_touches(geoms[i], geoms[j], snap_tol) or _vertex_touches(
                geoms[j], geoms[i], snap_tol
            ):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return SpatialWeights.from_rows([g.region_id for g in geoms], adjacency)


def rook_adjacency(geoms: list[RegionGeometry], snap_tol: float = 1e-7) -> SpatialWeights:
    """Binary weights: adjacent iff sharing a positive-length boundary edge."""
    _check_geoms(geoms, snap_tol)
    adjacency = _sharing([
        {frozenset((a, b)) for ring in _snapped_rings(g, snap_tol) for a, b in zip(ring, ring[1:]) if a != b}
        for g in geoms
    ])
    return SpatialWeights.from_rows([g.region_id for g in geoms], adjacency)


def connect_islands_knn(
    W: SpatialWeights, geoms: list[RegionGeometry], k: int
) -> SpatialWeights:
    """Attach each island to its k nearest regions by centroid distance.

    Contiguity leaves separated regions with empty rows; this fallback
    adds binary symmetric links so islands still enter lag statistics.
    Non-island rows keep their contiguity neighbors.
    """
    if W.mode != "binary":
        raise ParameterError(f"expected binary weights, got mode {W.mode!r}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > W.n - 1:
        raise ParameterError(f"k={k} exceeds available regions ({W.n - 1})")
    by_id = {g.region_id: g for g in geoms}
    missing = [rid for rid in W.ids if rid not in by_id]
    if missing:
        raise DataError(f"no geometry for ids {missing}")
    centroids = [by_id[rid].centroid() for rid in W.ids]
    adjacency = [set(W.neighbors(i).tolist()) for i in range(W.n)]
    for i in W.islands:
        xi, yi = centroids[i]
        dist = sorted(
            ((xj - xi) ** 2 + (yj - yi) ** 2, j)
            for j, (xj, yj) in enumerate(centroids)
            if j != i
        )
        for _, j in dist[:k]:
            adjacency[i].add(j)
            adjacency[j].add(i)
    return SpatialWeights.from_rows(W.ids, adjacency)


def row_standardize(W: SpatialWeights) -> SpatialWeights:
    """Rescale each row to sum to one; island rows stay zero and are flagged."""
    if W.mode != "binary":
        raise ParameterError(f"expected binary weights, got mode {W.mode!r}")
    rows = W.rows
    totals = np.bincount(rows, weights=W.data, minlength=W.n)
    return SpatialWeights(list(W.ids), W.indptr, W.indices, W.data / totals[rows], "row_standardized")


def _neighbor_lists(W: SpatialWeights):
    """Each region's neighbor ids and weights, as lists sliced from the CSR arrays."""
    names = [W.ids[j] for j in W.indices.tolist()]
    data = W.data.tolist()
    bounds = W.indptr.tolist()
    return [(names[a:b], data[a:b]) for a, b in zip(bounds, bounds[1:])]


def to_text(W: SpatialWeights) -> str:
    """Plain-text neighbor list: one ``id<TAB>n1<TAB>n2...`` line per region."""
    bad = [rid for rid in W.ids if any(c in rid for c in "\t\r\n")]
    if bad:
        raise DataError(f"weights.txt cannot hold region ids with a tab or line break: {bad!r}")
    lines = ["\t".join([rid, *names]) for rid, (names, _) in zip(W.ids, _neighbor_lists(W))]
    return "\n".join(lines) + "\n"


def to_json(W: SpatialWeights) -> str:
    payload = {
        "mode": W.mode,
        "regions": [
            {"id": rid, "neighbors": names, "weights": weights}
            for rid, (names, weights) in zip(W.ids, _neighbor_lists(W))
        ],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"
