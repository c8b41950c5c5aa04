"""Distances between finite point sets, in NumPy alone. SciPy is a test-only
dependency: the tests check these bits against ``scipy.spatial.distance.cdist``."""

from __future__ import annotations

import numpy as np

ROW_SPAN = 1 << 15  # rows per step of a streamed pass; bounds its temporaries (256 KiB a column)
_BLOCK_PAIRS = 4_000_000  # distance-matrix entries per block of ``hausdorff_distance``


def _as_points(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a = a[:, None] if a.ndim == 1 else a
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError("point set must be a nonempty (m, d) array")
    return a


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k (a[..., k] - b[..., k])^2, in order of k (``.sum(axis=-1)`` rounds differently)."""
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


def hausdorff_distance(a, b) -> float:
    """Larger of the two directed distances, bit for bit, at any size: one pass over the
    distance matrix in blocks of at most ``_BLOCK_PAIRS`` entries gives its row and column minima."""
    a, b = _as_points(a), _as_points(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets must share a dimension")
    rows_near, cols_near = [], np.full(b.shape[0], np.inf)
    for rows in row_spans(a.shape[0], max(1, _BLOCK_PAIRS // b.shape[0])):
        block = _distance_matrix(a[rows], b)
        rows_near.append(block.min(axis=1))
        np.minimum(cols_near, block.min(axis=0), out=cols_near)  # a NaN stays NaN
    return float(np.concatenate([*rows_near, cols_near]).max())


def row_spans(n: int, span: int | None = None) -> list[slice]:
    """Consecutive slices of at most ``span`` (``ROW_SPAN``) rows over range(n)."""
    span = ROW_SPAN if span is None else span
    return [slice(c0, min(c0 + span, n)) for c0 in range(0, n, span)]


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal keys begins in a grouped 1-D array, or in the rows of a 2-D one."""
    rows = keys[:, None] if keys.ndim == 1 else keys
    new = np.empty(len(rows), dtype=bool)
    new[:1] = True
    # column by column: a reduction along a short row axis is several times slower
    np.not_equal(rows[1:, 0], rows[:-1, 0], out=new[1:])
    for j in range(1, rows.shape[1]):
        new[1:] |= rows[1:, j] != rows[:-1, j]
    return np.flatnonzero(new)


def distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending: ``np.unique`` by a sort."""
    a = np.sort(a)
    return a[run_starts(a)]


def min_distance(point, pts) -> tuple[float, int]:
    """Distance from point to its nearest row of pts, and that row's first index, span by span."""
    pts = _as_points(pts)
    p = np.asarray(point, dtype=float).ravel()
    best = []
    for rows in row_spans(pts.shape[0]):
        dist = np.sqrt(((pts[rows] - p) ** 2).sum(axis=1))
        j = int(dist.argmin())
        best.append((float(dist[j]), rows.start + j))
    return min(best)
