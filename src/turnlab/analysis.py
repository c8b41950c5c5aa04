"""Empirical cluster points, liminf/limsup, and convergence verdicts.

Cluster detection quantifies over an epsilon-net instead of arbitrary
open sets: candidates are the centers of the occupied cells of a grid of
side eps/m (eps = ``eps_grid``, m = floor(sqrt(d)/2) + 1, so m = 1 up to
d = 3), each within eps of every visit in its cell, and one counts as a
cluster point when the indices visiting its eps-ball form a positive (not
small) set under the ideal model. One occupied-cell neighbour index finds
both the rows near each candidate and the adjacent qualifying cells that
merge. For the density ideal, positivity of visit sets uses a separate
threshold ``theta`` (default 0.05), well above the smallness threshold.

A visit set is positive when its ``IdealModel.counted`` indices exceed
the model's ``budget`` (at theta, for cluster cells).

The first ceil(sqrt(N)) indices are excluded from all visit statistics
(transient burn-in). The liminf inf{r : {n : x_n < r} is positive} is
then the exact order statistic of Fridy and Orhan's statistical limit
inferior: the counted post-burn-in values at ascending rank ``budget``.
Limsup is the exact sign mirror; ``analyze_window`` reads both off the
cluster pass's sorted copy, at rank ``budget`` from either end.

Two textbook facts about the limiting cluster set, its topological
closedness and its minimality among closed attractor sets, quantify over
infinitely many indices and have no finite-horizon rendering; they are
deliberately not estimated or tested here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from turnlab.geometry import distinct, hausdorff_distance, min_distance
from turnlab.geometry import row_spans, run_starts
from turnlab.ideals import IdealModel, burn_in, is_small
from turnlab.report import Report
from turnlab.windows import SequenceWindow

DEFAULT_POSITIVITY = 0.05
GRID_CELLS_PER_RANGE = 200
PAIR_SPAN = 1 << 16  # index pairs per batch of the neighbour index and ball gather
# identity-check tolerance floor per unit of value scale (float rounding)
FLOAT_TOL = 64 * np.finfo(float).eps


class UnboundedWindowError(ValueError):
    """Raised when the window has no essential mass under the model: no
    threshold r makes {n : x_n < r} positive, so the liminf is +inf."""


def _span(lo: np.ndarray, hi: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned about
        span = float((hi - lo).max())
    if span == np.inf:
        raise ValueError("window values span more than the float range")
    return span


def default_grid(window: SequenceWindow) -> float:
    span = _span(*window.bounds.T)
    return span / GRID_CELLS_PER_RANGE if span > 0 else 0.0


def _grid(window: SequenceWindow, eps_grid: float | None) -> float:
    """A caller's eps_grid, positive and finite, or the window's default (0.0 if constant)."""
    if eps_grid is None:
        return default_grid(window)
    if not 0 < eps_grid < np.inf:
        raise ValueError(f"eps_grid must be positive and finite, got {eps_grid!r}")
    return eps_grid


# ---------------------------------------------------------------------------
# cluster detection


def _cell_stats_1d(window: SequenceWindow, model: IdealModel, eps: float, start: int):
    """Cells of ``sv``, the sorted post-burn-in values. A cell counts the
    counted values in its open ball by two searches in ``cv``, the sorted
    counted values: ``sv`` itself when every post-burn-in index counts,
    else a sorted copy of the window's counted slice. ``cv`` is returned too."""
    sv = np.sort(window.scalars()[start:])
    cv = window.scalars()[model.counted_slice(start, window.horizon)]
    cv = np.sort(cv) if cv.size < sv.size else sv
    lo, hi = window.bounds[0]
    n_cells = max(1, int(np.ceil((hi - lo) / eps)))
    # cell indices of the sorted values never decrease, so the occupied
    # cells are the run starts, taken span by span and joined at the
    # seams; truncation equals the int cast, as sv >= lo. In place, as any
    # span temporary made after the sort adds to the peak
    runs = []
    for rows in row_spans(sv.size):
        cells = np.subtract(sv[rows], lo)
        cells /= eps
        np.clip(np.trunc(cells, out=cells), 0, n_cells - 1, out=cells)
        runs.append(cells[run_starts(cells)])
    cells = np.concatenate(runs)
    cells = cells[run_starts(cells)]
    centers = lo + (cells + 0.5) * eps
    a = np.searchsorted(sv, centers - eps, side="right")
    b = np.searchsorted(sv, centers + eps, side="left")
    counts = np.searchsorted(cv, centers + eps, side="left")
    counts -= np.searchsorted(cv, centers - eps, side="right")
    hit = b > a
    keys, a, b = cells[hit, None].astype(np.int64), a[hit], b[hit]

    def members(qualifying: np.ndarray, label: np.ndarray):
        # a 1-D component's cells are consecutive: its members are one
        # slice of the sorted values, from its first to its last cell; the
        # top cell also holds the maximum clipped into it
        by_label = np.argsort(label, kind="stable")
        for part in np.split(qualifying[by_label], run_starts(label[by_label])[1:]):
            i = int(np.searchsorted(sv, lo + int(keys[part].min()) * eps, side="left"))
            top = int(keys[part].max()) + 1
            j = sv.size if top == n_cells else int(np.searchsorted(sv, lo + top * eps, side="left"))
            if j <= i:  # fall back to the qualifying balls themselves
                i, j = int(a[part].min()), int(b[part].max())
            yield sv[i:j, None]

    return keys, counts[hit], members, cv


def _group_rows(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row positions sorted stably by their (n, d) cell row, so a cell's
    positions ascend; the bounds of each cell's run in them; the cells."""
    order = np.lexsort(cells.T[::-1])
    starts = run_starts(cells[order])
    return order, np.append(starts, len(order)), cells[order[starts]]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [s, s + c) of every (start, count) pair, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


def _batches(counts: np.ndarray) -> list[slice]:
    """Runs of consecutive ``counts``, cut where their running total passes a
    multiple of PAIR_SPAN: a run sums to less than PAIR_SPAN plus its first count."""
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(PAIR_SPAN, ends[-1:].sum(), PAIR_SPAN), side="right")
    bounds = distinct(np.r_[0, cuts, len(counts)]).tolist()
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _neighbours(keys: np.ndarray, reach: int = 1, rows: np.ndarray | None = None, limit=np.inf):
    """Batches of the index pairs (i, j) at Chebyshev distance <= reach between
    ``keys[rows]`` (all keys by default) and the distinct integer rows ``keys``,
    with sum((2 |key_i - key_j| - 1)+^2) <= limit over the columns (cell j comes
    within sqrt(limit)/2 cells of cell i's center), ordered by i across the
    batches; i indexes ``rows``, j ``keys``. The k <= 3 columns with the most
    distinct values (all of them up to d = 3, fewer if their code would pass
    2^62) are coded as one mixed-radix integer, so each offset on them finds
    its neighbours' code range by ``searchsorted``; the other columns filter
    each batch. The work follows the pairs within reach on those k columns,
    and the memory one batch."""
    rel = keys - keys.min(axis=0) + reach  # a digit stays in [0, width) under any offset
    width = rel.max(axis=0) + reach + 1
    cols = []
    for c in np.argsort([-len(distinct(col)) for col in keys.T], kind="stable"):
        if len(cols) < 3 and np.prod(width[cols + [c]], dtype=float) < 2.0**62:
            cols.append(int(c))
    cols.sort()
    rest = np.setdiff1d(np.arange(keys.shape[1]), cols)
    weight = np.cumprod(np.append(1, width[cols[:0:-1]]))[::-1]
    code = rel[:, cols] @ weight
    perm = np.argsort(code, kind="stable")
    sorted_code = code[perm]
    offsets = np.indices((2 * reach + 1,) * len(cols)).reshape(len(cols), -1).T - reach
    spent = (np.maximum(2 * np.abs(offsets) - 1, 0) ** 2).sum(axis=1)  # of the limit
    offsets, spent = offsets[spent <= limit], spent[spent <= limit]
    shifts = offsets @ weight
    rows = np.arange(len(keys)) if rows is None else rows
    columns = np.ascontiguousarray(keys.T)
    for block in row_spans(len(rows), max(1, PAIR_SPAN // len(shifts))):
        target = code[rows[block], None] + shifts
        a = np.searchsorted(sorted_code, target, side="left").ravel()
        count = np.searchsorted(sorted_code, target, side="right").ravel() - a
        i = np.flatnonzero(count)
        i, used, a, count = block.start + i // len(shifts), spent[i % len(shifts)], a[i], count[i]
        for s in _batches(count):
            bi, bj = np.repeat(i[s], count[s]), perm[_ranges(a[s], count[s])]
            near, total = np.ones(len(bi), dtype=bool), np.repeat(used[s], count[s])
            for col in columns[rest]:
                step = np.abs(col[rows[bi]] - col[bj])
                near &= step <= reach
                total += np.maximum(2 * step - 1, 0) ** 2
            near &= total <= limit
            yield bi[near], bj[near]


def _cell_stats_nd(window: SequenceWindow, model: IdealModel, eps: float, start: int):
    """Candidate cells of side eps/m. A candidate's eps-ball lies within m
    cells of its own, so it takes the rows nearer than eps of the occupied
    cells within m of its own that come within eps of its center, in batches
    of (candidate, row) pairs. Counting keeps no rows; ``members`` takes the
    qualifying cells' rows whole and gathers the other cells' rows again."""
    pts = window.values[start:]
    lo = window.bounds[:, 0]
    m = int(np.sqrt(window.dim) / 2) + 1
    side = eps / m
    order, bounds, keys = _group_rows(((pts - lo) / side).astype(np.int64))
    # coordinate columns for 1-D gathers; the points' are in cell order, so
    # cell c's rows sit at the positions bounds[c]:bounds[c + 1]
    pt_cols, center_cols = np.ascontiguousarray(pts[order].T), lo[:, None] + (keys.T + 0.5) * side

    def ball_hits(which: np.ndarray | None = None, component: np.ndarray | None = None):
        for cand, nb in _neighbours(keys, m, which, limit=4 * m * m):
            own = cand if which is None else which[cand]
            if component is not None:  # skip the cells of the candidate's own component
                other = component[nb] != component[own]
                cand, nb, own = cand[other], nb[other], own[other]
            size = bounds[nb + 1] - bounds[nb]
            for s in _batches(size):
                at = _ranges(bounds[nb[s]], size[s])  # positions in cell order
                c = np.repeat(cand[s], size[s])
                own_at = c if which is None else np.repeat(own[s], size[s])
                dist2 = np.zeros(len(at))
                for p, q in zip(pt_cols, center_cols):  # for d < 8 in a row sum's order
                    dist2 += (p[at] - q[own_at]) ** 2
                near = np.sqrt(dist2) < eps
                yield c[near], at[near]

    counted = model.counted(order + start)
    counts = np.zeros(len(keys), dtype=np.int64)
    for c, at in ball_hits():
        counts += np.bincount(c[counted[at]], minlength=len(keys))

    def members(qualifying: np.ndarray, label: np.ndarray):
        # every row of a qualifying cell lies in its own ball, so a component
        # takes its cells' rows whole and the other cells' rows through its
        # balls. Distinct (component, row) codes, kept distinct every 64
        # batches, give each component's rows in ascending order
        n, component = len(pts), np.full(len(keys), -1)  # -1 off the qualifying cells
        component[qualifying] = label
        size = bounds[qualifying + 1] - bounds[qualifying]
        codes = [np.repeat(label * n, size) + order[_ranges(bounds[qualifying], size)]]
        for c, at in ball_hits(qualifying, component):
            codes.append(distinct(label[c] * n + order[at]))
            if len(codes) == 64:
                codes = [distinct(np.concatenate(codes))]
        owner, rows = np.divmod(distinct(np.concatenate(codes)), n)
        for part in np.split(rows, run_starts(owner)[1:]):
            yield pts[part]

    return keys, counts, members, None


def _components(edges, n: int) -> np.ndarray:
    """Component labels of n nodes, each its component's least node, from
    batches of edges (i, j). The edges join in chunks of at least n: the larger
    of two joined roots hooks onto the smaller until no edge spans two roots,
    and pointer jumping keeps every node on its root."""
    label = np.arange(n)

    def join(pairs):
        i, j = map(np.concatenate, zip(*pairs))
        while True:
            a, b = label[i], label[j]
            apart = a != b
            if not apart.any():
                return
            np.minimum.at(label, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
            while not np.array_equal(up := label[label], label):
                label[:] = up

    held, size = [], 0
    for i, j in edges:
        held.append((i, j))
        size += len(i)
        if size >= n:
            join(held)
            held, size = [], 0
    if held:
        join(held)
    return label


def _merge_cells(keys: np.ndarray, qualifying: np.ndarray, window, eps: float, members):
    """Merge Chebyshev-adjacent qualifying cells to visit-weighted centroids."""
    label = _components(_neighbours(keys[qualifying]), qualifying.size)
    points = []
    for member_pts in members(qualifying, label):
        centroid = member_pts.mean(axis=0)
        # a hollow component (ring) can drop its centroid outside every
        # cell; keep the reported point within eps of a real visit
        dist, nearest = min_distance(centroid, member_pts)
        if dist >= eps:
            centroid = member_pts[nearest]
        points.append(centroid)
    out = np.array(points, dtype=float).reshape(-1, window.dim)
    return out[np.lexsort(out.T[::-1])]


def _cluster(window: SequenceWindow, model: IdealModel, eps: float, theta: float):
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    model = model.at_horizon(window.horizon)
    span = _span(*window.bounds.T)
    diag = {
        "eps_grid": eps,
        "theta": theta,
        "burn_in": burn_in(window.horizon),
        "model": model.describe(),
        "theta_effective": None,
        "fallback": False,
        "degenerate": False,
    }
    if span <= 1e-12:
        diag["degenerate"] = True
        return window.values[:1].copy(), diag, None
    if not FLOAT_TOL * (1.0 + float(np.abs(window.bounds).max())) < eps:
        raise ValueError(f"eps_grid {eps!r} is below the window's float resolution")
    cell_stats = _cell_stats_1d if window.dim == 1 else _cell_stats_nd
    keys, counts, members, cv = cell_stats(window, model, eps, burn_in(window.horizon))
    qualifying = np.flatnonzero(counts > model.budget(theta))
    if not qualifying.size:
        # Positivity never clears theta when visits spread thin (a window
        # dense in an interval, say); every bounded window still has a
        # cluster point, so fall back to the maximally visited cells.
        top = int(counts.max())
        qualifying = np.flatnonzero(counts == top)
        diag["theta_effective"] = top / model.horizon if model.kind == "density" else None
        diag["fallback"] = True
    return _merge_cells(keys, qualifying, window, eps, members), diag, cv


def cluster_points(
    window: SequenceWindow,
    model: IdealModel,
    eps_grid: float | None = None,
    theta: float = DEFAULT_POSITIVITY,
) -> np.ndarray:
    """Estimated cluster set as a (k, d) array, sorted lexicographically.

    A grid cell center qualifies when the post-burn-in indices visiting
    its eps-ball form a positive set; adjacent qualifying cells merge to
    their visit-weighted centroid. Every reported point lies within
    eps_grid of some window point. Raises ValueError unless 0 < theta < 1
    and eps_grid is finite and exceeds FLOAT_TOL * (1 + max |x|), the
    values' float resolution.
    """
    return _cluster(window, model, _grid(window, eps_grid), theta)[0]


# ---------------------------------------------------------------------------
# liminf / limsup / limit


def ideal_liminf(window: SequenceWindow, model: IdealModel, _mirror: bool = False) -> float:
    """Smallest value r such that the sequence dips below r on a positive
    index set: inf{r : {n : x_n < r} is not small}.

    {n : x_n < r} is positive exactly when more than ``budget`` counted
    post-burn-in values lie below r, so the infimum is the counted value
    of rank ``budget`` in ascending order. ``_mirror`` (from ``ideal_limsup``)
    takes it on the negated counted copy: the liminf of (-x_n).
    """
    name = "limsup" if _mirror else "liminf"
    if window.dim != 1:
        raise ValueError(f"{name} needs a scalar window")
    model = model.at_horizon(window.horizon)
    vals = window.scalars()[model.counted_slice(burn_in(window.horizon), window.horizon)]
    k = model.budget()
    if vals.size <= k:
        raise UnboundedWindowError(
            f"no threshold r makes {name} finite; the window has no "
            "essential mass under this model"
        )
    vals = -vals if _mirror else vals.copy()  # the window's view is read-only
    vals.partition(k)
    return float(vals[k])


def ideal_limsup(window: SequenceWindow, model: IdealModel) -> float:
    """Exact sign mirror of liminf: minus the liminf of (-x_n)."""
    return -ideal_liminf(window, model, _mirror=True)


def deviation_densities(
    window: SequenceWindow,
    target: np.ndarray,
    model: IdealModel,
    scales: tuple[float, ...],
    apply_burn_in: bool = True,
) -> list[dict]:
    """Per-scale diagnostics of {n : ||x_n - target|| >= scale}, scales positive and finite."""
    if not all(0 < s < np.inf for s in scales):
        raise ValueError(f"deviation scales must be positive and finite, got {scales!r}")
    model = model.at_horizon(window.horizon)
    target = np.asarray(target, dtype=float).ravel()
    if target.shape != (window.dim,) or not np.isfinite(target).all():
        raise ValueError(f"target must be a finite point in {window.dim}-D, got {target!r}")
    start = burn_in(window.horizon) if apply_burn_in else 0
    vals, found = window.values[start:], [[] for _ in scales]  # deviating indices per scale
    for rows in row_spans(len(vals)):  # the same bits as one whole-window pass
        dist = np.sqrt(((vals[rows] - target) ** 2).sum(axis=1))
        for at, s in zip(found, scales):
            at.append(np.flatnonzero(dist >= s) + (start + rows.start))
    rungs = []
    for s, at in zip(scales, found):
        dev = np.concatenate(at)
        rungs.append(
            {
                "scale": float(s),
                "count": int(dev.size),
                "upper_density": dev.size / window.horizon,
                "small": is_small(dev, model),
            }
        )
    return rungs


def _limit_ladder(window, pts, model, eps) -> tuple[list[dict], Optional[np.ndarray]]:
    """Deviation rungs at eps, eps/2 and eps/4 around a sole cluster
    point, and that point when every rung is small."""
    if pts.shape[0] != 1:
        return [], None
    ladder = deviation_densities(window, pts[0], model, (eps, eps / 2, eps / 4))
    return ladder, pts[0] if all(r["small"] for r in ladder) else None


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ClusterReport(Report):
    cluster_points: np.ndarray
    liminf: Optional[float]
    limsup: Optional[float]
    converges_to: Optional[np.ndarray]
    eps_grid: float
    theta: float
    limit_eps: float
    ladder: list[dict]
    model: dict
    burn_in: int
    degenerate: bool
    fallback: bool
    theta_effective: Optional[float]


def analyze_window(
    window: SequenceWindow,
    model: IdealModel,
    eps_grid: float | None = None,
    theta: float = DEFAULT_POSITIVITY,
    limit_eps: float | None = None,
) -> ClusterReport:
    """One-stop analysis: cluster set, liminf/limsup (scalar windows),
    and a convergence verdict with its deviation-density ladder.

    ``fallback`` marks a cluster set taken from the most visited cells
    because no cell cleared theta; ``theta_effective`` is then their
    visit share under the density ideal. Raises ValueError unless
    0 < theta < 1 and an explicit eps_grid or limit_eps is positive and finite.
    """
    if limit_eps is not None and not 0 < limit_eps < np.inf:
        raise ValueError(f"limit_eps must be positive and finite, got {limit_eps!r}")
    eps = _grid(window, eps_grid)
    pts, diag, cv = _cluster(window, model, eps, theta)
    liminf = limsup = None
    k = model.at_horizon(window.horizon).budget()
    if cv is not None and cv.size > k:  # rank k from either end; drop the copy before the ladder
        liminf, limsup, cv = float(cv[k]), float(cv[cv.size - 1 - k]), None
    elif window.dim == 1:  # degenerate (no sorted copy), or unbounded: ideal_liminf raises
        liminf, limsup = ideal_liminf(window, model), ideal_limsup(window, model)
    lim_eps = limit_eps if limit_eps is not None else max(10 * eps, 1e-9)
    ladder, converges = _limit_ladder(window, pts, model, lim_eps)
    return ClusterReport(
        cluster_points=pts,
        liminf=liminf,
        limsup=limsup,
        converges_to=converges,
        limit_eps=lim_eps,
        ladder=ladder,
        **diag,
    )


# ---------------------------------------------------------------------------
# identity checks


def lipschitz_estimate(h: Callable[[np.ndarray], np.ndarray], window: SequenceWindow) -> float:
    """Sampled Lipschitz constant of h over at most 4,096 pairs more than 1e-12
    apart (0.0 without one) among at most 96 evenly strided window points."""
    pts = window.values
    m = min(96, pts.shape[0])
    stride = max(1, pts.shape[0] // m)
    sub = pts[::stride][:m]
    ii, jj = np.triu_indices(sub.shape[0], k=1)
    if ii.size > 4096:
        keep = np.linspace(0, ii.size - 1, 4096).astype(int)
        ii, jj = ii[keep], jj[keep]
    gap = np.sqrt(((sub[ii] - sub[jj]) ** 2).sum(axis=1))
    ok = gap > 1e-12
    if not ok.any():
        return 0.0
    ha, hb = (np.asarray(h(sub[k[ok]]), dtype=float).reshape(ok.sum(), -1) for k in (ii, jj))
    return float((np.sqrt(((ha - hb) ** 2).sum(axis=1)) / gap[ok]).max())


@dataclass(frozen=True)
class IdentityReport(Report):
    passed: bool
    distance: float
    tolerance: float
    lipschitz: float
    lhs: np.ndarray
    rhs: np.ndarray


def check_image_cluster_identity(
    window: SequenceWindow,
    h: Callable[[np.ndarray], np.ndarray],
    model: IdealModel,
    eps_grid: float | None = None,
    theta: float = DEFAULT_POSITIVITY,
) -> IdentityReport:
    """Compare h(cluster set of x) against the cluster set of h(x).

    Both sides are computed independently on the same grid resolution;
    they must agree within 2 * eps_grid * (1 + Lipschitz estimate of h).
    """
    eps = _grid(window, eps_grid)
    state_clusters = _cluster(window, model, eps, theta)[0]
    mapped = np.asarray(h(state_clusters), dtype=float)
    if mapped.ndim == 1:
        mapped = mapped[:, None]
    image_window = window.map(h)
    image_clusters = _cluster(image_window, model, eps, theta)[0]
    lip = lipschitz_estimate(h, window)
    scale = 1.0 + float(np.abs(image_window.bounds).max())
    tol = max(2.0 * eps * (1.0 + lip), FLOAT_TOL * scale)
    dist = hausdorff_distance(mapped, image_clusters)
    return IdentityReport(
        passed=dist <= tol,
        distance=dist,
        tolerance=tol,
        lipschitz=lip,
        lhs=mapped,
        rhs=image_clusters,
    )


@dataclass(frozen=True)
class RepresentationReport(Report):
    passed: bool
    tolerance: float
    lipschitz: float
    liminf_values: dict
    limsup_values: dict


def check_representation_identity(
    window: SequenceWindow,
    u: Callable[[np.ndarray], np.ndarray],
    model: IdealModel,
    eps_grid: float | None = None,
    theta: float = DEFAULT_POSITIVITY,
) -> RepresentationReport:
    """Three independent routes to the liminf of u along the window:

    1. the exact order statistic on the scalar image sequence,
    2. the smallest cluster point of the image sequence,
    3. the minimum of u over the state cluster set,

    plus the mirrored limsup triple. Routes 2 and 3 are the two sides of
    ``check_image_cluster_identity(window, u, ...)``, whose Lipschitz
    estimate of u they share. All must pairwise agree within
    eps_grid * (1 + Lipschitz estimate of u).
    """
    eps = _grid(window, eps_grid)
    image_window = window.map(u)
    if image_window.dim != 1:
        raise ValueError("u must map points to scalars")
    q1 = ideal_liminf(image_window, model), ideal_limsup(image_window, model)
    sides = check_image_cluster_identity(window, u, model, eps_grid, theta)
    q2, q3 = ((float(side.min()), float(side.max())) for side in (sides.rhs, sides.lhs))
    scale = 1.0 + float(np.abs(image_window.bounds).max())
    tol = max(eps * (1.0 + sides.lipschitz), FLOAT_TOL * scale)
    lim_inf = {"order_statistic": q1[0], "image_cluster_min": q2[0], "state_cluster_min": q3[0]}
    lim_sup = {"order_statistic": q1[1], "image_cluster_max": q2[1], "state_cluster_max": q3[1]}
    spread = max(
        max(lim_inf.values()) - min(lim_inf.values()),
        max(lim_sup.values()) - min(lim_sup.values()),
    )
    return RepresentationReport(
        passed=spread <= tol,
        tolerance=tol,
        lipschitz=sides.lipschitz,
        liminf_values=lim_inf,
        limsup_values=lim_sup,
    )
