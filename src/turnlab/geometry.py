"""Distances between finite point sets.

Below ``_BRUTE_LIMIT`` pairs the distance matrix is built in NumPy, with
squared coordinate differences accumulated in coordinate order: the same
bits as ``scipy.spatial.distance.cdist``. Only larger sets load SciPy,
for a ``cKDTree`` query, imported on that path alone.
"""

from __future__ import annotations

import numpy as np

_BRUTE_LIMIT = 4_000_000  # pairwise-matrix budget before switching to trees
ROW_SPAN = 1 << 18  # rows per step of a streamed pass; bounds its temporaries


def _as_points(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError("point set must be a nonempty (m, d) array")
    return a


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = _as_points(a), _as_points(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets must share a dimension")
    return a, b


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k (a[..., k] - b[..., k])^2 over the broadcast leading axes,
    accumulated over k in order (``.sum(axis=-1)`` rounds differently)."""
    out = a[..., 0] - b[..., 0]
    out *= out
    term = np.empty_like(out)
    for k in range(1, a.shape[-1]):
        np.subtract(a[..., k], b[..., k], out=term)
        term *= term
        out += term
    return out


def _distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) Euclidean distances, bit for bit those of ``cdist``."""
    return np.sqrt(squared_distances(a[:, None, :], b[None, :, :]))


def directed_hausdorff(a, b) -> float:
    """max over a of the distance to the nearest point of b."""
    a, b = _as_pair(a, b)
    if a.shape[0] * b.shape[0] <= _BRUTE_LIMIT:
        return float(_distance_matrix(a, b).min(axis=1).max())
    from scipy.spatial import cKDTree

    d, _ = cKDTree(b).query(a, k=1)
    return float(np.max(d))


def hausdorff_distance(a, b) -> float:
    """Larger of the two directed distances; below the brute-force budget
    one distance matrix serves both (row minima and column minima)."""
    a, b = _as_pair(a, b)
    if a.shape[0] * b.shape[0] <= _BRUTE_LIMIT:
        d = _distance_matrix(a, b)
        return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def row_spans(n: int) -> list[slice]:
    """Consecutive slices of at most ``ROW_SPAN`` rows covering range(n)."""
    return [slice(c0, min(c0 + ROW_SPAN, n)) for c0 in range(0, n, ROW_SPAN)]


def min_distance(point, pts) -> tuple[float, int]:
    """Distance from one point to the nearest element of a finite set,
    and the first row at that distance, in one pass over row spans."""
    pts = _as_points(pts)
    p = np.asarray(point, dtype=float).ravel()
    best = []
    for rows in row_spans(pts.shape[0]):
        dist = np.sqrt(((pts[rows] - p) ** 2).sum(axis=1))
        j = int(dist.argmin())
        best.append((float(dist[j]), rows.start + j))
    return min(best)
