"""Contiguity spatial weights: queen/rook construction and row standardization.

Adjacency is decided on vertices snapped to a tolerance grid, so boundary
files with floating-point mismatch still register shared borders. Queen
contiguity needs a single shared boundary point; rook needs a shared edge
(two consecutive snapped vertices along both boundaries).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GeometryError, ParameterError
from .geometry import RegionGeometry


@dataclass
class SpatialWeights:
    ids: list[str]
    neighbors: list[list[int]]  # sorted neighbor indices per region
    weights: list[list[float]]  # aligned with neighbors
    mode: str = "binary"  # binary | row_standardized

    def __post_init__(self):
        if len(self.neighbors) != len(self.ids) or len(self.weights) != len(self.ids):
            raise DataError("ids/neighbors/weights lengths differ")
        for i, nbrs in enumerate(self.neighbors):
            for j in nbrs:
                if i not in self.neighbors[j]:
                    raise DataError(
                        f"asymmetric neighbor graph: {self.ids[i]} -> {self.ids[j]}"
                    )

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def s0(self) -> float:
        return float(sum(sum(row) for row in self.weights))

    @property
    def islands(self) -> list[int]:
        return [i for i, nbrs in enumerate(self.neighbors) if not nbrs]

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    @classmethod
    def from_neighbors(cls, ids: list[str], neighbors: dict[str, list[str]]) -> "SpatialWeights":
        """Binary weights from an id -> neighbor-ids mapping."""
        index = {rid: i for i, rid in enumerate(ids)}
        nbr_idx = [sorted(index[m] for m in neighbors.get(rid, [])) for rid in ids]
        wts = [[1.0] * len(nbrs) for nbrs in nbr_idx]
        return cls(list(ids), nbr_idx, wts, mode="binary")

    def dense(self):
        W = np.zeros((self.n, self.n))
        for i, (nbrs, wts) in enumerate(zip(self.neighbors, self.weights)):
            for j, w in zip(nbrs, wts):
                W[i, j] = w
        return W


def _snap(p: tuple[float, float], tol: float) -> tuple[int, int]:
    return (round(p[0] / tol), round(p[1] / tol))


def _check_geoms(geoms: list[RegionGeometry]) -> None:
    if len(geoms) < 2:
        raise ParameterError("need at least 2 geometries")
    seen = set()
    for g in geoms:
        if g.region_id in seen:
            raise DataError(f"duplicate region id {g.region_id!r}")
        seen.add(g.region_id)


def _snapped_vertices(g: RegionGeometry, tol: float) -> set[tuple[int, int]]:
    return {_snap(p, tol) for ring in g.rings for p in ring}


def _snapped_edges(g: RegionGeometry, tol: float) -> set[frozenset]:
    edges = set()
    for ring in g.rings:
        snapped = [_snap(p, tol) for p in ring]
        for a, b in zip(snapped, snapped[1:]):
            if a != b:
                edges.add(frozenset((a, b)))
    if not edges:
        raise GeometryError(f"{g.region_id}: ring degenerate at tolerance {tol}")
    return edges


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


def queen_adjacency(geoms: list[RegionGeometry], snap_tol: float = 1e-7) -> SpatialWeights:
    """Binary weights: adjacent iff sharing any snapped boundary point."""
    _check_geoms(geoms)
    verts = [_snapped_vertices(g, snap_tol) for g in geoms]
    # degenerate-ring check shared with rook
    for g in geoms:
        _snapped_edges(g, snap_tol)
    adjacency: list[set[int]] = [set() for _ in geoms]
    by_vertex: dict[tuple[int, int], list[int]] = {}
    for i, vs in enumerate(verts):
        for v in vs:
            by_vertex.setdefault(v, []).append(i)
    for members in by_vertex.values():
        for i in members:
            for j in members:
                if i != j:
                    adjacency[i].add(j)
    # a vertex of one region lying mid-segment on another still counts;
    # candidates are the later regions whose tol-widened boxes overlap
    x0, y0, x1, y1 = np.array([g.bbox() for g in geoms]).T
    for i in range(len(geoms)):
        later = slice(i + 1, None)
        overlap = (
            (x0[i] - snap_tol <= x1[later]) & (x0[later] - snap_tol <= x1[i])
            & (y0[i] - snap_tol <= y1[later]) & (y0[later] - snap_tol <= y1[i])
        )
        for j in (np.flatnonzero(overlap) + i + 1).tolist():
            if j in adjacency[i]:
                continue
            if _vertex_touches(geoms[i], geoms[j], snap_tol) or _vertex_touches(
                geoms[j], geoms[i], snap_tol
            ):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return _binary(geoms, adjacency)


def rook_adjacency(geoms: list[RegionGeometry], snap_tol: float = 1e-7) -> SpatialWeights:
    """Binary weights: adjacent iff sharing a positive-length boundary edge."""
    _check_geoms(geoms)
    edges = [_snapped_edges(g, snap_tol) for g in geoms]
    adjacency: list[set[int]] = [set() for _ in geoms]
    by_edge: dict[frozenset, list[int]] = {}
    for i, es in enumerate(edges):
        for e in es:
            by_edge.setdefault(e, []).append(i)
    for members in by_edge.values():
        for i in members:
            for j in members:
                if i != j:
                    adjacency[i].add(j)
    return _binary(geoms, adjacency)


def _binary(geoms: list[RegionGeometry], adjacency: list[set[int]]) -> SpatialWeights:
    ids = [g.region_id for g in geoms]
    neighbors = [sorted(a) for a in adjacency]
    weights = [[1.0] * len(nbrs) for nbrs in neighbors]
    return SpatialWeights(ids, neighbors, weights, mode="binary")


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
    adjacency = [set(nbrs) for nbrs in W.neighbors]
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
    neighbors = [sorted(a) for a in adjacency]
    weights = [[1.0] * len(nbrs) for nbrs in neighbors]
    return SpatialWeights(list(W.ids), neighbors, weights, mode="binary")


def row_standardize(W: SpatialWeights) -> SpatialWeights:
    """Rescale each row to sum to one; island rows stay zero and are flagged."""
    if W.mode != "binary":
        raise ParameterError(f"expected binary weights, got mode {W.mode!r}")
    weights = []
    for nbrs, wts in zip(W.neighbors, W.weights):
        total = sum(wts)
        weights.append([w / total for w in wts] if total > 0 else [])
    return SpatialWeights(list(W.ids), [list(n) for n in W.neighbors], weights, mode="row_standardized")


def to_text(W: SpatialWeights) -> str:
    """Plain-text neighbor list: one ``id: n1 n2 ...`` line per region."""
    lines = []
    for i, rid in enumerate(W.ids):
        nbrs = " ".join(W.ids[j] for j in W.neighbors[i])
        lines.append(f"{rid}: {nbrs}".rstrip())
    return "\n".join(lines) + "\n"


def from_text(text: str) -> SpatialWeights:
    neighbors: dict[str, list[str]] = {}
    ids: list[str] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rid, _, rest = line.partition(":")
        rid = rid.strip()
        ids.append(rid)
        neighbors[rid] = rest.split()
    return SpatialWeights.from_neighbors(ids, neighbors)


def to_json(W: SpatialWeights) -> str:
    payload = {
        "mode": W.mode,
        "regions": [
            {
                "id": rid,
                "neighbors": [W.ids[j] for j in W.neighbors[i]],
                "weights": W.weights[i],
            }
            for i, rid in enumerate(W.ids)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def from_json(text: str) -> SpatialWeights:
    payload = json.loads(text)
    ids = [r["id"] for r in payload["regions"]]
    index = {rid: i for i, rid in enumerate(ids)}
    neighbors = []
    weights = []
    for r in payload["regions"]:
        order = sorted(range(len(r["neighbors"])), key=lambda k: index[r["neighbors"][k]])
        neighbors.append([index[r["neighbors"][k]] for k in order])
        weights.append([float(r["weights"][k]) for k in order])
    return SpatialWeights(ids, neighbors, weights, mode=payload.get("mode", "binary"))
