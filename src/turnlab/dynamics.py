"""Set-valued maps on R^d, feasible paths, fixed points, and probes.

Compact images are rendered as finite point samples with a declared
resolution. Points are (d,) float arrays; maps broadcast over leading
axes, so a branch map must accept (..., d) input. Branches have one
numbering, the one ``expand`` gives: ``images(x)`` is the ``expand`` of
one point, row j its branch-j child, and a feasible path follows one
branch index. Coinciding branches stay separate rows; they change no
minimum or Hausdorff distance and no first witness.

Each branch index of ``expand`` is a smooth map of the state, so fixed
points are solved per (state, branch) pair by batched Newton steps,
seeded by one coarse scan of the box plus, for finite branches, where
each map's own orbit settles. One continuity probe serves both a
correspondence and the graph x -> {u(x)} of a scalar map, whose
Hausdorff distance is |u(x) - u(x')|. ``expand_spans`` yields ``expand``'s
triple per span of about ``EXPAND_CHUNK`` children, so temporaries scale
with that constant, not the batch.

A state whose image is empty has no children: ``expand`` emits none for
it and carries on with the rest of the batch, so its ``parent`` array
may skip rows. Such a state ends its own feasible path and no other;
the fixed-point scan, the probe and the beam search pass over it. The
runtime needs NumPy alone; SciPy is a test-only dependency.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from turnlab.geometry import hausdorff_distance, row_spans, run_starts, squared_distances
from turnlab.ideals import IdealModel
from turnlab.report import Report
from turnlab.windows import SequenceWindow

FIXED_POINT_TOL = 1e-8
FEASIBILITY_TOL = 1e-9
REFERENCE_LENGTH = 512  # points of a system's reference orbit (A6)
EXPAND_CHUNK = 8192  # children per ``expand`` call of ``expand_spans``


class InfeasibleImageError(RuntimeError):
    """A search with no path to judge: its start states all lack children,
    or its beam collapses on a path too short to render the ideal."""


def _point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p[None]
    if p.ndim != 1:
        raise ValueError("a point must be a (d,) array")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def _sample_box(box: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k points drawn uniformly from a (d, 2) box."""
    r = rng.random((k, box.shape[0]))
    return np.add(np.multiply(r, box[:, 1] - box[:, 0], out=r), box[:, 0], out=r)


def _sample_kept(box: np.ndarray, n: int, rng: np.random.Generator, keep, rounds: int, first=None):
    """An optional ``first`` row, then the first n box draws that the mask ``keep(draws)``
    accepts, drawn n at a time for at most ``rounds`` blocks, in one preallocated array."""
    head = 0 if first is None else 1
    out = np.empty((head + n, box.shape[0]))
    out[:head] = first
    filled = head
    for _ in range(rounds):
        if filled == out.shape[0]:
            break
        draw = _sample_box(box, n, rng)
        rows = np.flatnonzero(keep(draw))[: out.shape[0] - filled]
        np.take(draw, rows, axis=0, out=out[filled : filled + rows.size], mode="clip")
        filled += rows.size
    return out[:filled]


def _box_lattice(box: np.ndarray, per_axis: int) -> np.ndarray:
    """per_axis^d points of a (d, 2) box, evenly spaced with endpoints on
    each axis, the last axis varying fastest."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


class Correspondence:
    """Base class; subclasses implement ``expand`` and ``fanout``, the most children per state."""

    dim: int

    def expand(self, states: np.ndarray):
        """Children of a batch of states.

        Returns (children, parent_index, branch_index) where children is
        (M, d), and branch_index encodes which branch or sample produced
        each child. Children are grouped by parent in input order, and
        within each parent the branch indices run 0, 1, ...; the beam
        search, ``_child_gaps`` and the batched audits rely on this order.
        A state whose image is empty gets no children and never raises,
        so parent_index may skip it. The arrays are new and the caller's.
        """
        raise NotImplementedError

    def images(self, x) -> np.ndarray:
        """Finite image sample of one point: its ``expand`` children, row j
        the child of branch j, coinciding branches included."""
        return self.expand(_point(x)[None, :])[0]

    def child(self, states: np.ndarray, branch: np.ndarray) -> np.ndarray:
        """Child ``branch[i]`` of ``states[i]``, bit for bit that row of ``expand``, NaN where
        missing. This default streams ``expand``; ``TruncatedL2`` evaluates the one branch."""
        out = np.full(states.shape, np.nan)
        for children, parent, b in expand_spans(self, states):
            hit = b == branch[parent]
            out[parent[hit]] = children[hit]
        return out


@dataclass(frozen=True)
class FiniteBranch(Correspondence):
    """Phi(x) = {f_1(x), ..., f_b(x)} for finitely many branch maps into
    R^dim. One scalar map u (dim 1) makes the graph x -> {u(x)}."""

    maps: tuple
    dim: int = 1
    fanout = property(lambda self: len(self.maps))

    def expand(self, states: np.ndarray):
        b = len(self.maps)
        stacked = np.stack(
            [np.asarray(f(states), dtype=float).reshape(-1, self.dim) for f in self.maps],
            axis=1,
        )  # (B, b, dim)
        children = stacked.reshape(-1, self.dim)
        parents = np.repeat(np.arange(states.shape[0]), b)
        branches = np.tile(np.arange(b), states.shape[0])
        return children, parents, branches


@dataclass(frozen=True)
class Interval1D(Correspondence):
    """Phi(x) = [a(x), b(x)] sampled at m equispaced points, endpoints included.

    The image is empty where a(x) > b(x); such a state has no children.
    """

    lower: Callable[[np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray], np.ndarray]
    samples: int = 33
    dim: int = 1
    fanout = property(lambda self: self.samples)

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValueError("interval sampling needs at least the two endpoints")

    def expand(self, states: np.ndarray):
        x = states[:, 0]
        lo = np.broadcast_to(np.asarray(self.lower(x), dtype=float).reshape(-1), x.shape)
        hi = np.broadcast_to(np.asarray(self.upper(x), dtype=float).reshape(-1), x.shape)
        live = np.flatnonzero(~(lo > hi))  # NaN bounds are not an empty image
        lo, hi = lo[live], hi[live]
        t = np.linspace(0.0, 1.0, self.samples)
        pts = lo[:, None] + t[None, :] * (hi - lo)[:, None]  # (B, m)
        children = pts.reshape(-1, 1)
        parents = np.repeat(live, self.samples)
        branches = np.tile(np.arange(self.samples), live.size)
        return children, parents, branches


@dataclass(frozen=True)
class TruncatedL2(Correspondence):
    """Finite-dimensional truncation of the square-summable-space example.

    The image of x is the halving point x/2 (branch 0, listed first so
    ties prefer the contraction toward the origin) plus a sampled band
    set: first coordinate pinned to -(x_1^2 + ... + x_{d-1}^2), remaining
    coordinates sampled on per-coordinate grids over [2 x_i, x_i + 1/i].
    A coordinate with 2 x_i > x_i + 1/i empties the band set entirely and
    only the halving branch remains.
    """

    dim: int
    fanout = property(lambda self: 1 + self._fractions.shape[1])

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("the truncation needs dimension at least 2")

    @property
    def band_samples(self) -> int:
        """Grid points per band coordinate: 5 for d <= 4, else endpoints only."""
        return 5 if self.dim <= 4 else 2

    @functools.cached_property
    def _fractions(self) -> np.ndarray:
        """Band lattice in unit coordinates, (d-1, C), built once."""
        unit = np.tile([0.0, 1.0], (self.dim - 1, 1))
        frac = np.ascontiguousarray(_box_lattice(unit, self.band_samples).T)
        frac.flags.writeable = False
        return frac

    def expand(self, states: np.ndarray):
        d = self.dim
        frac = self._fractions  # (d-1, C)
        lo = 2.0 * states[:, 1:]
        hi = states[:, 1:] + 1.0 / np.arange(1, d)
        feasible = (lo <= hi).all(axis=1)
        head = -(states[:, 1:] ** 2).sum(axis=1)
        # per state: the halving point, then the band block; the block is
        # dropped for states whose band set is empty
        full = np.empty((states.shape[0], 1 + frac.shape[1], d))
        full[:, 0] = states / 2.0
        full[:, 1:, 0] = head[:, None]
        band = full[:, 1:, 1:].transpose(0, 2, 1)  # (B, d-1, C), a view of the block
        np.multiply(frac[None, :, :], (hi - lo)[:, :, None], out=band)
        band += lo[:, :, None]
        counts = np.where(feasible, full.shape[1], 1)
        if feasible.all():
            children = full.reshape(-1, d)
        else:
            keep = np.ones(full.shape[:2], dtype=bool)
            keep[~feasible, 1:] = False
            children = full[keep]
        parents = np.repeat(np.arange(states.shape[0]), counts)
        branches = np.arange(children.shape[0]) - (np.cumsum(counts) - counts)[parents]
        return children, parents, branches

    def child(self, states: np.ndarray, branch: np.ndarray) -> np.ndarray:
        out = np.full(states.shape, np.nan)
        out[branch == 0] = states[branch == 0] / 2.0
        lo, hi = 2.0 * states[:, 1:], states[:, 1:] + 1.0 / np.arange(1, self.dim)
        band = np.flatnonzero((lo <= hi).all(axis=1) & (branch >= 1) & (branch < self.fanout))
        out[band, 0] = -(states[band, 1:] ** 2).sum(axis=1)
        out[band, 1:] = self._fractions[:, branch[band] - 1].T * (hi - lo)[band] + lo[band]
        return out


# ---------------------------------------------------------------------------
# feasible paths


@dataclass(frozen=True)
class Path:
    """A feasible path with the branch choices that produced it."""

    window: SequenceWindow
    trace: tuple[int, ...]
    truncated: bool = False

    @property
    def points(self) -> np.ndarray:
        return self.window.values

    def utilities(self, u: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return np.asarray(u(self.window.values), dtype=float).ravel()


def feasible_path(phi: Correspondence, x0, branch: int, n: int) -> Path:
    """Generate x_0, ..., x_{n-1} with x_{k+1} = images(x_k)[branch], the
    branch-``branch`` child of ``expand``, kept as an owned copy: a view would
    hold the whole image. A state without that child ends the path, flagged truncated."""
    if n < 1:
        raise ValueError("a path needs at least one point")
    if branch < 0:
        raise ValueError(f"branch must be nonnegative, got {branch}")
    x = _point(x0)
    pts = [x]
    for _ in range(n - 1):
        imgs = phi.images(x)
        if branch >= imgs.shape[0]:
            break
        x = imgs[branch].copy()
        pts.append(x)
    return Path(SequenceWindow(np.array(pts)), (branch,) * (len(pts) - 1), len(pts) < n)


def feasibility_check(path: Path, phi: Correspondence) -> dict:
    """Re-verify x_{k+1} against a fresh image sample of x_k, within
    ``FEASIBILITY_TOL`` scaled by 1 + the path's largest coordinate."""
    pts = path.points
    worst = float(_child_gaps(phi, pts[:-1], pts[1:]).max(initial=0.0))
    tol = FEASIBILITY_TOL * (1.0 + float(np.abs(path.window.bounds).max()))
    return {"max_residual": worst, "tolerance": tol, "feasible": worst <= tol}


# ---------------------------------------------------------------------------
# fixed points


def expand_spans(phi: Correspondence, states: np.ndarray):
    """``phi.expand(states)``'s (children, parent, branch) triple, one span
    of ceil(``EXPAND_CHUNK`` / ``phi.fanout``) rows at a time, parent counted
    from row 0. Rows expand independently: no result depends on spans."""
    for rows in row_spans(states.shape[0], -(-EXPAND_CHUNK // phi.fanout)):
        children, parent, branch = phi.expand(states[rows])
        parent += rows.start  # in place: a fresh temporary per span slows the scans
        yield children, parent, branch


def _child_gaps(phi: Correspondence, states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from targets[i] to the image sample of states[i], per i.

    The streamed ``expand`` and a segmented minimum, the same arithmetic
    per row as ``min_distance`` on a single point. A state with an empty
    image is at distance inf.
    """
    out = np.full(states.shape[0], np.inf)
    for children, parent, _ in expand_spans(phi, states):
        children -= targets[parent]
        gaps = np.sqrt(np.square(children, out=children).sum(axis=1))
        start = run_starts(parent)
        out[parent[start]] = np.minimum.reduceat(gaps, start)
    return out


def _seed_points(phi: Correspondence, box: np.ndarray, seed: int) -> np.ndarray:
    d = box.shape[0]
    if d <= 2:
        seeds = [_box_lattice(box, max(2, int(round(4096 ** (1.0 / d)))))]
    else:
        seeds = [_sample_box(box, 1024, np.random.default_rng(seed))]
    if isinstance(phi, FiniteBranch):
        # an orbit end is a contraction's fixed point to the bit; Newton may miss it by one ulp
        for f in phi.maps:
            y = (box[:, 0] + box[:, 1]) / 2.0
            for _ in range(256):
                y = np.asarray(f(y), dtype=float).reshape(-1)
                if not np.all(np.isfinite(y)) or np.abs(y).max() > 1e12:
                    break
            else:
                seeds.append(y[None, :])
    return np.concatenate(seeds, axis=0)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call. No turnlab code
    calls it since fixed points are solved by branch-wise Newton; it stays
    a module attribute that profiling wrappers resolve by name."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


NEWTON_PAIRS = 384  # (seed, branch) pairs with the smallest child gap
NEWTON_ITERATIONS = 40
_ROUNDING_STEP = 16 * np.finfo(float).eps


def _branch_newton(phi: Correspondence, x: np.ndarray, branch: np.ndarray) -> np.ndarray:
    """Solve child_branch(x) = x from every start row at once.

    Each branch index is a smooth map of x (a finite branch, an interval
    sample point, a band lattice point), so Newton applies per row, with
    a forward-difference Jacobian: a step evaluates x and its d axis moves
    in one ``Correspondence.child`` call. A row stops when its step reaches
    rounding level, or when its child is missing, non-finite or has a
    singular Jacobian.
    """
    x = np.array(x, dtype=float)
    d = x.shape[1]
    eye, axis = np.eye(d), np.arange(d)
    active = np.arange(x.shape[0])
    for _ in range(NEWTON_ITERATIONS):
        if active.size == 0:
            break
        xa, ba = x[active], branch[active]
        xs = np.repeat(xa[None], d + 1, axis=0)  # xa, then xa moved along each axis
        xs[1 + axis, :, axis] += 1e-7 * (1.0 + np.abs(xa.T))
        kids = phi.child(xs.reshape(-1, d), np.tile(ba, d + 1)).reshape(xs.shape)
        jac = ((kids[1:] - kids[0]) / (xs[1 + axis, :, axis] - xa.T)[:, :, None]).transpose(1, 2, 0)
        jac -= eye
        with np.errstate(invalid="ignore"):  # NaN where a child is missing
            singular = ~(np.linalg.det(jac) != 0.0)
        jac[singular] = eye
        step = np.linalg.solve(jac, (xa - kids[0])[:, :, None])[:, :, 0]
        step[singular] = np.nan
        moved = np.isfinite(step).all(axis=1)
        x[active[moved]] += step[moved]
        size = np.sqrt((step**2).sum(axis=1))
        norm = np.sqrt((x[active] ** 2).sum(axis=1))
        active = active[moved & (size > _ROUNDING_STEP * (1.0 + norm))]
    return x


def fixed_points(phi: Correspondence, box, seed: int = 0) -> np.ndarray:
    """Points with dist(x, Phi(x)) <= ``FIXED_POINT_TOL`` inside the box.

    The seeds are the coarse scan (the 4,096-point lattice for d <= 2,
    else 1,024 box draws from ``seed``) plus, for a ``FiniteBranch``,
    the end of each map's own orbit from the box centre. One batched
    ``expand`` of the seeds ranks every (seed, branch) pair by its child
    gap; the ``NEWTON_PAIRS`` smallest are solved for child_branch(x) = x
    by batched Newton (``_branch_newton``), and solutions inside the box
    within the tolerance are deduplicated at radius 10 * tolerance. A
    state with an empty image is not a fixed point.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if box.shape[1] != 2 or np.any(box[:, 0] > box[:, 1]):
        raise ValueError("box must be a (d, 2) array of [lo, hi] rows")
    seeds = _seed_points(phi, box, seed)
    gaps, pairs = np.empty(0), np.empty((0, 2), dtype=int)  # the best (seed, branch) so far
    for children, parent, branch in expand_spans(phi, seeds):
        children -= seeds[parent]
        gaps = np.r_[gaps, np.sqrt(np.square(children, out=children).sum(axis=1))]
        pairs = np.r_[pairs, np.c_[parent, branch]]
        pick = np.argsort(gaps, kind="stable")[:NEWTON_PAIRS]  # ties keep the earlier pair
        gaps, pairs = gaps[pick], pairs[pick]
    x = _branch_newton(phi, seeds[pairs[:, 0]], pairs[:, 1])
    pad = 1e-9 * float((box[:, 1] - box[:, 0]).max())
    x = x[np.all((x >= box[:, 0] - pad) & (x <= box[:, 1] + pad), axis=1)]
    resids = _child_gaps(phi, x, x)
    found = resids <= FIXED_POINT_TOL
    keep: list[np.ndarray] = []
    for y in x[found][np.argsort(resids[found], kind="stable")]:
        if all(np.sqrt(((y - z) ** 2).sum()) > 10 * FIXED_POINT_TOL for z in keep):
            keep.append(y)
    if not keep:
        return np.empty((0, box.shape[0]))
    out = np.array(keep)
    return out[np.lexsort(out.T[::-1])]


# ---------------------------------------------------------------------------
# continuity probe


@dataclass(frozen=True)
class ContinuityReport(Report):
    rungs: tuple[dict, ...]
    growth: float
    passed: bool


def _ladder(box: np.ndarray) -> tuple[float, ...]:
    """The probe scales span / k for k in (20, 40, 80, 160)."""
    span = float((box[:, 1] - box[:, 0]).max())
    if span <= 0:
        raise ValueError("probe box must have positive extent")
    return tuple(span / k for k in (20, 40, 80, 160))


def _probe_points(box: np.ndarray, samples: int, seed: int) -> np.ndarray:
    d = box.shape[0]
    lo, hi = box[:, 0], box[:, 1]
    if d == 1:
        return np.linspace(lo[0], hi[0], samples)[:, None]
    center = (lo + hi) / 2.0
    per_axis = max(3, samples // (2 * d))
    lines = []
    for i in range(d):
        line = np.tile(center, (per_axis, 1))
        line[:, i] = np.linspace(lo[i], hi[i], per_axis)
        lines.append(line)
    fill = _sample_box(box, samples, np.random.default_rng(seed))
    return np.concatenate(lines + [fill], axis=0)


def continuity_probe(
    phi: Correspondence,
    box,
    samples: int = 256,
    seed: int = 0,
) -> ContinuityReport:
    """Estimate Hausdorff sensitivity of the image map at shrinking scales.

    For probe points x and perturbations x' at distance delta, the rung
    statistic is max H(Phi(x), Phi(x')) / delta. The verdict fails when
    the statistic grows faster than delta^(-1/2) across the ladder, the
    signature of a jump, or when a rung is NaN: a NaN distance is kept
    as its rung's maximum. A finest rung of zero passes. Image samples
    are the ``expand`` output; probe points and points with an empty
    image are skipped. Probe points come in blocks of one ``expand_spans``
    span, and each block runs every rung on its moved points, streamed
    too (l2 at d = 8: 64 points and 0.5 MB of children a span). Where
    base and moved images have equal counts, the matched-branch distance
    U = max_j |a_j - b_j| bounds H from above, so exact distances are
    computed in descending U only until U falls to the rung's best H so
    far, carried across spans and blocks: every skipped pair has
    H <= U <= the rung's maximum, which is therefore exact.
    """
    if samples < 1:
        raise ValueError(f"continuity probe needs at least one sample, got {samples}")
    box = np.atleast_2d(np.asarray(box, dtype=float))
    d = box.shape[0]
    ladder = _ladder(box)
    pts = _probe_points(box, samples, seed)
    # up to six axis moves, two random unit directions; in 1-D those are
    # +-1.0 again, so each move is kept once, at its first occurrence
    axes = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
    rnd = np.random.default_rng(seed + 1).normal(size=(2, d))
    rnd /= np.sqrt((rnd**2).sum(axis=1))[:, None]
    dirs = np.concatenate([axes[: min(2 * d, 6)], rnd], axis=0)
    dirs = dirs[np.sort(np.unique(dirs, axis=0, return_index=True)[1])]
    worst = [0.0] * len(ladder)
    for base, base_parent, _ in expand_spans(phi, pts):
        base_start = run_starts(base_parent)
        base_count = np.diff(base_start, append=base_parent.size)
        live = pts[base_parent[base_start]]  # the block's probe points whose image is nonempty
        for r, delta in enumerate(ladder):
            moved = (live[:, None, :] + (delta * dirs)[None, :, :]).reshape(-1, d)
            for children, parent, _ in expand_spans(phi, moved):
                start = run_starts(parent)
                count = np.diff(start, append=parent.size)
                of = parent[start] // dirs.shape[0]  # probe point of each moved image
                # matched-branch bound U = max_j |a_j - b_j|, accumulated per coordinate like
                # the distance matrix whose diagonal it reads, so H(A, B) <= U holds exactly;
                # U = inf where the counts differ or a coordinate is NaN
                bound = np.full(start.size, np.inf)
                same = count == base_count[of]
                if same.any():
                    seg = np.repeat(np.arange(start.size), count)
                    rows = np.flatnonzero(same[seg])
                    a = base_start[of[seg[rows]]] + rows - start[seg[rows]]
                    sq = squared_distances(base[a], children if same.all() else children[rows])
                    bound[same] = np.sqrt(np.maximum.reduceat(sq, run_starts(seg[rows])))
                bound[np.isnan(bound)] = np.inf
                # exact distances in descending U, until no U can beat the best;
                # a NaN distance sticks, and ends the rung's search
                for i in np.argsort(-bound, kind="stable"):
                    if not bound[i] > worst[r]:
                        break
                    b0, m0 = base_start[of[i]], start[i]
                    image = base[b0 : b0 + base_count[of[i]]]
                    h = hausdorff_distance(image, children[m0 : m0 + count[i]])
                    worst[r] = np.maximum(worst[r], h)
    rungs = [{"delta": float(dl), "max_ratio": float(w / dl)} for dl, w in zip(ladder, worst)]
    ratios = np.array([r["max_ratio"] for r in rungs])
    if np.isnan(ratios).any():
        growth = np.nan
    else:
        growth = 0.0 if ratios[-1] <= 1e-12 else ratios[-1] / max(ratios[0], 1e-12)
    return ContinuityReport(
        tuple(rungs), float(growth), bool(growth <= np.sqrt(ladder[0] / ladder[-1]))
    )


# ---------------------------------------------------------------------------
# system instances


@dataclass(frozen=True)
class StartAt:
    x0: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", _point(self.x0))


@dataclass(frozen=True)
class Free:
    """Unpinned start; the search seeds from a declared box."""

    start_box: np.ndarray

    def __post_init__(self) -> None:
        b = np.atleast_2d(np.asarray(self.start_box, dtype=float))
        if b.shape[1] != 2:
            raise ValueError("start box must be (d, 2)")
        object.__setattr__(self, "start_box", b)


@dataclass(frozen=True)
class SystemInstance:
    """The tuple (state space slice, Phi, u, ideal, constraint) plus the
    optional separation functional and claimed optimal stationary point."""

    dim: int
    phi: Correspondence
    utility: Callable[[np.ndarray], np.ndarray]
    ideal: IdealModel
    constraint: StartAt | Free
    box: np.ndarray
    separation: Optional[np.ndarray] = None  # linear functional coefficients
    eta_star: Optional[np.ndarray] = None
    reference_branch: Optional[int] = None  # branch of the A6 reference orbit
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        box = np.atleast_2d(np.asarray(self.box, dtype=float))
        if box.shape != (self.dim, 2):
            raise ValueError(f"box must be ({self.dim}, 2)")
        object.__setattr__(self, "box", box)
        if self.separation is not None:
            t = np.asarray(self.separation, dtype=float).ravel()
            if t.size != self.dim:
                raise ValueError("separation coefficients must match the dimension")
            object.__setattr__(self, "separation", t)
        if self.eta_star is not None:
            eta = _point(self.eta_star)
            gap = _child_gaps(self.phi, eta[None, :], eta[None, :])[0]
            if gap > FIXED_POINT_TOL:
                raise ValueError(
                    f"claimed stationary point has residual {gap:.3e} above "
                    f"tolerance {FIXED_POINT_TOL:.1e}"
                )
            object.__setattr__(self, "eta_star", eta)
        if self.reference_branch is not None and not isinstance(self.constraint, StartAt):
            raise ValueError("a reference orbit needs a pinned start point")

    @functools.cached_property
    def reference_path(self) -> Optional[Path]:
        """The first REFERENCE_LENGTH points of the orbit that always
        takes branch ``reference_branch`` from the pinned start (fewer,
        flagged truncated, past a state without that child), or None
        without one. Built on first use: only the A6 check reads it."""
        if self.reference_branch is None:
            return None
        return feasible_path(
            self.phi, self.constraint.x0, self.reference_branch, REFERENCE_LENGTH
        )

    def utilities(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.utility(np.asarray(pts, dtype=float)), dtype=float)
