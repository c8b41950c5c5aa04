"""Set-valued maps on R^d, feasible paths, fixed points, and probes.

Compact images are rendered as finite point samples with a declared
resolution. Points are (d,) float arrays; maps broadcast over leading
axes, so a branch map must accept (..., d) input. Image sets keep a
stable branch order (duplicates collapse to the first occurrence), which
policies and tie-breaking rely on. Distance computations (residuals,
feasibility, continuity) read the raw ``expand`` output instead:
duplicate points change no minimum or Hausdorff distance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from turnlab.geometry import hausdorff_distance, min_distance
from turnlab.ideals import IdealModel
from turnlab.windows import SequenceWindow

FIXED_POINT_TOL = 1e-8
FEASIBILITY_TOL = 1e-9
HUTCHINSON_RESOLUTION = 1e-6


class InfeasibleImageError(RuntimeError):
    """An image sample came out empty (lower bound above upper bound)."""


class NonContractiveError(RuntimeError):
    """A branch's Lipschitz estimate reached 1; iteration would diverge."""


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
    lo, hi = box[:, 0], box[:, 1]
    return lo + rng.random((k, box.shape[0])) * (hi - lo)


def _box_lattice(box: np.ndarray, per_axis: int) -> np.ndarray:
    """per_axis^d points of a (d, 2) box, evenly spaced with endpoints on
    each axis, the last axis varying fastest."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def _dedup_rows(a: np.ndarray) -> np.ndarray:
    """Drop exact duplicate rows, keeping first occurrences in order."""
    if a.shape[0] <= 1:
        return a
    _, first = np.unique(a, axis=0, return_index=True)
    return a[np.sort(first)]


def _raw_images(phi: Correspondence, x) -> np.ndarray:
    """Image sample of one point as ``expand`` returns it, duplicates kept."""
    return phi.expand(_point(x)[None, :])[0]


class Correspondence:
    """Base class; subclasses implement ``expand`` over point batches."""

    dim: int

    def expand(self, states: np.ndarray):
        """Children of a batch of states.

        Returns (children, parent_index, branch_index) where children is
        (M, d), and branch_index encodes which branch or sample produced
        each child. Children are grouped by parent in input order, and
        within each parent the branch indices run 0, 1, ...; the beam
        search, ``_child_gaps`` and the batched audits rely on this order.
        """
        raise NotImplementedError

    def images(self, x) -> np.ndarray:
        """Finite image sample of one point, deduplicated, branch order.

        The dedup is for consumers that index branches (path policies,
        witness re-verification). Distance computations use the raw
        ``expand`` output, where duplicates are harmless.
        """
        p = _point(x)
        children, _, _ = self.expand(p[None, :])
        return _dedup_rows(children)


@dataclass(frozen=True)
class FiniteBranch(Correspondence):
    """Phi(x) = {f_1(x), ..., f_b(x)} for finitely many branch maps."""

    maps: tuple
    dim: int = 1

    def expand(self, states: np.ndarray):
        b = len(self.maps)
        stacked = np.stack(
            [np.asarray(f(states), dtype=float).reshape(states.shape) for f in self.maps],
            axis=1,
        )  # (B, b, d)
        children = stacked.reshape(-1, self.dim)
        parents = np.repeat(np.arange(states.shape[0]), b)
        branches = np.tile(np.arange(b), states.shape[0])
        return children, parents, branches

    @property
    def branch_count(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class Interval1D(Correspondence):
    """Phi(x) = [a(x), b(x)] sampled at m equispaced points, endpoints included."""

    lower: Callable[[np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray], np.ndarray]
    samples: int = 33
    dim: int = 1

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValueError("interval sampling needs at least the two endpoints")

    def expand(self, states: np.ndarray):
        x = states[:, 0]
        lo = np.asarray(self.lower(x), dtype=float).reshape(-1)
        hi = np.asarray(self.upper(x), dtype=float).reshape(-1)
        if np.any(lo > hi):
            bad = float(x[np.argmax(lo > hi)])
            raise InfeasibleImageError(
                f"empty interval image at x = {bad}: lower bound exceeds upper bound"
            )
        t = np.linspace(0.0, 1.0, self.samples)
        pts = lo[:, None] + t[None, :] * (hi - lo)[:, None]  # (B, m)
        children = pts.reshape(-1, 1)
        parents = np.repeat(np.arange(states.shape[0]), self.samples)
        branches = np.tile(np.arange(self.samples), states.shape[0])
        return children, parents, branches


@dataclass(frozen=True)
class Singleton(Correspondence):
    """Phi(x) = {f(x)}; feasible paths are plain orbits."""

    map: Callable[[np.ndarray], np.ndarray]
    dim: int = 1

    def expand(self, states: np.ndarray):
        children = np.asarray(self.map(states), dtype=float).reshape(states.shape)
        parents = np.arange(states.shape[0])
        branches = np.zeros(states.shape[0], dtype=int)
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
    band_samples: int = 0  # 0 -> 5 for d <= 4, else endpoints only

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("the truncation needs dimension at least 2")
        if self.band_samples == 0:
            object.__setattr__(self, "band_samples", 5 if self.dim <= 4 else 2)

    @functools.cached_property
    def _fractions(self) -> np.ndarray:
        """Band lattice in unit coordinates, (C, d-1), built once."""
        grid = np.linspace(0.0, 1.0, self.band_samples)
        combos = np.array(list(itertools.product(grid, repeat=self.dim - 1)))
        combos.flags.writeable = False
        return combos

    def expand(self, states: np.ndarray):
        d = self.dim
        frac = self._fractions  # (C, d-1)
        lo = 2.0 * states[:, 1:]
        hi = states[:, 1:] + 1.0 / np.arange(1, d)
        feasible = (lo <= hi).all(axis=1)
        head = -(states[:, 1:] ** 2).sum(axis=1)
        # per state: the halving point, then the band block; the block is
        # dropped for states whose band set is empty
        full = np.empty((states.shape[0], 1 + frac.shape[0], d))
        full[:, 0] = states / 2.0
        full[:, 1:, 0] = head[:, None]
        band = full[:, 1:, 1:]  # lo + frac * (hi - lo), built in place
        np.multiply(frac[None, :, :], (hi - lo)[:, None, :], out=band)
        band += lo[:, None, :]
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


# ---------------------------------------------------------------------------
# feasible paths


@dataclass(frozen=True)
class Path:
    """A feasible path with the branch choices that produced it."""

    window: SequenceWindow
    trace: tuple[int, ...]
    truncated: bool = False
    note: str = ""

    @property
    def points(self) -> np.ndarray:
        return self.window.values

    def utilities(self, u: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return np.asarray(u(self.window.values), dtype=float).ravel()


def make_policy(name: str, u: Optional[Callable] = None, seed: int = 0, index: int = 0):
    """Branch choosers for feasible_path.

    ``first``/``last``/``index`` pick by position, ``cycle`` rotates,
    ``greedy`` maximizes u over the image sample, ``random`` draws with a
    seeded generator.
    """
    if name == "first":
        return lambda n, x, imgs: 0
    if name == "last":
        return lambda n, x, imgs: imgs.shape[0] - 1
    if name == "index":
        return lambda n, x, imgs: min(index, imgs.shape[0] - 1)
    if name == "cycle":
        return lambda n, x, imgs: n % imgs.shape[0]
    if name == "greedy":
        if u is None:
            raise ValueError("greedy policy needs a utility map")
        return lambda n, x, imgs: int(np.argmax(np.asarray(u(imgs), dtype=float).ravel()))
    if name == "random":
        rng = np.random.default_rng(seed)
        return lambda n, x, imgs: int(rng.integers(0, imgs.shape[0]))
    raise ValueError(f"unknown policy {name!r}")


def feasible_path(
    phi: Correspondence, x0, policy: Callable[[int, np.ndarray, np.ndarray], int], n: int
) -> Path:
    """Generate x_0, ..., x_{n-1} with x_{k+1} drawn from the image sample
    of x_k by the policy. An empty image truncates the path and flags it."""
    if n < 1:
        raise ValueError("a path needs at least one point")
    x = _point(x0)
    pts = [x]
    trace: list[int] = []
    truncated = False
    note = ""
    for step in range(n - 1):
        try:
            imgs = phi.images(x)
        except InfeasibleImageError as exc:
            truncated = True
            note = str(exc)
            break
        j = int(policy(step, x, imgs))
        if not 0 <= j < imgs.shape[0]:
            raise ValueError(f"policy chose branch {j} outside the image sample")
        x = imgs[j]
        pts.append(x)
        trace.append(j)
    return Path(SequenceWindow(np.array(pts)), tuple(trace), truncated, note)


def feasibility_check(path: Path, phi: Correspondence, tol: float = FEASIBILITY_TOL) -> dict:
    """Re-verify x_{k+1} against a fresh image sample of x_k."""
    pts = path.points
    worst = 0.0
    if pts.shape[0] > 1:
        worst = float(_child_gaps(phi, pts[:-1], pts[1:]).max())
    scale = 1.0 + float(np.abs(pts).max())
    return {"max_residual": worst, "tolerance": tol * scale, "feasible": worst <= tol * scale}


# ---------------------------------------------------------------------------
# fixed points


def _child_gaps(phi: Correspondence, states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from targets[i] to the raw image sample of states[i], per i.

    One ``expand`` over the batch and a segmented minimum, the same
    arithmetic per row as ``min_distance`` on a single point.
    """
    children, parent, _ = phi.expand(states)
    gaps = np.sqrt(((children - targets[parent]) ** 2).sum(axis=1))
    return np.minimum.reduceat(gaps, np.searchsorted(parent, np.arange(states.shape[0])))


def _residual(phi: Correspondence, x) -> float:
    """dist(x, Phi(x)) over the raw image sample of x."""
    p = _point(x)
    return min_distance(p, phi.expand(p[None, :])[0])


def _seed_points(phi: Correspondence, box: np.ndarray, seed: int) -> np.ndarray:
    d = box.shape[0]
    lo, hi = box[:, 0], box[:, 1]
    if d <= 2:
        lattice = _box_lattice(box, max(2, int(round(4096 ** (1.0 / d)))))
    else:
        lattice = _sample_box(box, 1024, np.random.default_rng(seed))
    center = (lo + hi) / 2.0
    corners = np.array(list(itertools.product(*box)))
    seeds = [lattice, center[None, :], corners]
    # branch orbits settle near fixed points of contractive branches
    x = center.copy()
    orbit = []
    for _ in range(128):
        imgs = _raw_images(phi, x)
        x = imgs[int(np.argmin(np.sqrt(((imgs - x) ** 2).sum(axis=1))))]
        orbit.append(x)
    seeds.append(np.array(orbit[-8:]))
    if isinstance(phi, FiniteBranch):
        for f in phi.maps:
            y = center.copy()
            for _ in range(256):
                y = np.asarray(f(y), dtype=float).reshape(-1)
                if not np.all(np.isfinite(y)) or np.abs(y).max() > 1e12:
                    break
            else:
                seeds.append(y[None, :])
    return np.concatenate([np.atleast_2d(s) for s in seeds], axis=0)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call so that commands
    that never refine a fixed point do not load SciPy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def fixed_points(
    phi: Correspondence, box, tol: float = FIXED_POINT_TOL, seed: int = 0
) -> np.ndarray:
    """Points with dist(x, Phi(x)) <= tol inside the box.

    Coarse scan over lattice/random seeds (one batched ``expand``),
    simplex refinement of the most promising ones, then deduplication at
    radius 10 * tol. Residuals read the raw ``expand`` output; duplicate
    image points are harmless to a minimum distance, so ``images()`` and
    its dedup are not involved.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if box.shape[1] != 2 or np.any(box[:, 0] > box[:, 1]):
        raise ValueError("box must be a (d, 2) array of [lo, hi] rows")
    seeds = _seed_points(phi, box, seed)
    res = _child_gaps(phi, seeds, seeds)
    order = np.argsort(res, kind="stable")
    candidates = seeds[order[:48]]
    found = []
    span = float((box[:, 1] - box[:, 0]).max())
    for s in candidates:
        out = minimize(
            lambda z: _residual(phi, z),
            s,
            method="Nelder-Mead",
            options={"xatol": tol * 1e-3, "fatol": tol * 1e-3, "maxiter": 600},
        )
        x = out.x
        inside = np.all(x >= box[:, 0] - 1e-9 * span) and np.all(x <= box[:, 1] + 1e-9 * span)
        if inside and _residual(phi, x) <= tol:
            found.append(x)
    if not found:
        return np.empty((0, box.shape[0]))
    found_arr = np.array(found)
    resids = np.array([_residual(phi, x) for x in found_arr])
    keep: list[np.ndarray] = []
    for i in np.argsort(resids, kind="stable"):
        x = found_arr[i]
        if all(np.sqrt(((x - y) ** 2).sum()) > 10 * tol for y in keep):
            keep.append(x)
    out = np.array(keep)
    return out[np.lexsort(out.T[::-1])]


# ---------------------------------------------------------------------------
# Hutchinson iteration


@dataclass(frozen=True)
class HutchinsonResult:
    points: np.ndarray
    step_distances: tuple[float, ...]
    lipschitz: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "set_size": int(self.points.shape[0]),
            "min": [float(v) for v in self.points.min(axis=0)],
            "max": [float(v) for v in self.points.max(axis=0)],
            "step_distances": list(self.step_distances),
            "lipschitz": list(self.lipschitz),
        }


def branch_lipschitz(phi: FiniteBranch, box, seed: int = 0, pairs: int = 256) -> tuple[float, ...]:
    box = np.atleast_2d(np.asarray(box, dtype=float))
    rng = np.random.default_rng(seed)
    a = _sample_box(box, pairs, rng)
    b = _sample_box(box, pairs, rng)
    gap = np.sqrt(((a - b) ** 2).sum(axis=1))
    ok = gap > 1e-12
    out = []
    for f in phi.maps:
        fa = np.asarray(f(a[ok]), dtype=float).reshape(-1, box.shape[0])
        fb = np.asarray(f(b[ok]), dtype=float).reshape(-1, box.shape[0])
        num = np.sqrt(((fa - fb) ** 2).sum(axis=1))
        out.append(float((num / gap[ok]).max()))
    return tuple(out)


def hutchinson_iterate(
    phi: FiniteBranch,
    seed_point,
    iterations: int,
    resolution: float = HUTCHINSON_RESOLUTION,
) -> HutchinsonResult:
    """Iterate the union-of-images operator from a single seed.

    Each sweep applies every branch to the current set and deduplicates
    at the stated resolution; successive Hausdorff distances are
    recorded. All branches must probe contractive.
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    x0 = _point(seed_point)
    scale = max(1.0, 2.0 * float(np.abs(x0).max()))
    box = np.stack([-scale * np.ones_like(x0), scale * np.ones_like(x0)], axis=1)
    lips = branch_lipschitz(phi, box)
    if max(lips) >= 1.0:
        raise NonContractiveError(
            f"branch Lipschitz estimates {lips} reach 1; the iteration has no attractor"
        )
    current = x0[None, :]
    dists = []
    for _ in range(iterations):
        nxt, _, _ = phi.expand(current)
        keys = np.round(nxt / resolution).astype(np.int64)
        _, first = np.unique(keys, axis=0, return_index=True)
        nxt = nxt[np.sort(first)]
        dists.append(hausdorff_distance(current, nxt))
        current = nxt
    return HutchinsonResult(current, tuple(dists), lips)


# ---------------------------------------------------------------------------
# continuity probe


@dataclass(frozen=True)
class ContinuityReport:
    rungs: tuple[dict, ...]
    growth: float
    passed: bool

    def to_dict(self) -> dict:
        return {"rungs": list(self.rungs), "growth": self.growth, "passed": self.passed}


def _ladder(box: np.ndarray, ladder: Sequence[float] | None) -> Sequence[float]:
    """The probe scales: ``ladder``, else span / k for k in (20, 40, 80, 160)."""
    span = float((box[:, 1] - box[:, 0]).max())
    if span <= 0:
        raise ValueError("probe box must have positive extent")
    return tuple(span / k for k in (20, 40, 80, 160)) if ladder is None else ladder


def _ladder_verdict(rungs: list[dict], ladder: Sequence[float]) -> tuple[float, bool]:
    """Growth of the rung statistic across the ladder, and whether it
    stays within delta^(-1/2); faster growth is the signature of a jump."""
    first, last = rungs[0]["max_ratio"], rungs[-1]["max_ratio"]
    if last <= 1e-12:
        return 0.0, True
    growth = last / max(first, 1e-12)
    return float(growth), bool(growth <= np.sqrt(ladder[0] / ladder[-1]))


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
    ladder: Sequence[float] | None = None,
    seed: int = 0,
) -> ContinuityReport:
    """Estimate Hausdorff sensitivity of the image map at shrinking scales.

    For probe points x and perturbations x' at distance delta, the rung
    statistic is max H(Phi(x), Phi(x')) / delta. The verdict fails when
    the statistic grows faster than delta^(-1/2) across the ladder, the
    signature of a jump. Image samples are the raw ``expand`` output
    (duplicates do not change a Hausdorff distance), and each probe
    point's own image is computed once for the whole ladder.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    d = box.shape[0]
    ladder = _ladder(box, ladder)
    pts = _probe_points(box, samples, seed)
    rng = np.random.default_rng(seed + 1)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        axes = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
        rnd = rng.normal(size=(2, d))
        rnd /= np.sqrt((rnd**2).sum(axis=1))[:, None]
        dirs = np.concatenate([axes[: min(2 * d, 6)], rnd], axis=0)
    bases = []
    for x in pts:
        try:
            bases.append((x, _raw_images(phi, x)))
        except InfeasibleImageError:
            continue
    rungs = []
    for delta in ladder:
        worst = 0.0
        for x, base in bases:
            for v in dirs:
                try:
                    moved = _raw_images(phi, x + delta * v)
                except InfeasibleImageError:
                    continue
                worst = max(worst, hausdorff_distance(base, moved) / delta)
        rungs.append({"delta": float(delta), "max_ratio": worst})
    return ContinuityReport(tuple(rungs), *_ladder_verdict(rungs, ladder))


def scalar_continuity(
    u: Callable[[np.ndarray], np.ndarray],
    box,
    samples: int = 256,
    ladder: Sequence[float] | None = None,
    seed: int = 0,
) -> ContinuityReport:
    """Difference quotients |u(x') - u(x)| / delta of a scalar map at
    random box points, on the ladder and verdict of ``continuity_probe``."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    ladder = _ladder(box, ladder)
    rng = np.random.default_rng(seed)
    pts = _sample_box(box, samples, rng)
    base = np.asarray(u(pts), dtype=float).ravel()
    rungs = []
    for delta in ladder:
        dirs = rng.normal(size=pts.shape)
        dirs /= np.sqrt((dirs**2).sum(axis=1))[:, None]
        du = np.abs(np.asarray(u(pts + delta * dirs), dtype=float).ravel() - base)
        rungs.append({"delta": float(delta), "max_ratio": float(du.max() / delta)})
    return ContinuityReport(tuple(rungs), *_ladder_verdict(rungs, ladder))


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
    reference_path: Optional[Path] = None
    name: str = ""
    notes: tuple[str, ...] = ()
    stationarity_tol: float = FIXED_POINT_TOL

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
            gap = _residual(self.phi, eta)
            if gap > self.stationarity_tol:
                raise ValueError(
                    f"claimed stationary point has residual {gap:.3e} above "
                    f"tolerance {self.stationarity_tol:.1e}"
                )
            object.__setattr__(self, "eta_star", eta)

    def utilities(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.utility(np.asarray(pts, dtype=float)), dtype=float)
