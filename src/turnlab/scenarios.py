"""Built-in instances for the worked experiments.

A note on the counterexample's trace class: the alternating path
(1, -1, 1, -1, ...) deviates from 1 exactly at the odd indices, so it is
optimal precisely under a finite-trace model measured on the evens (the
whole odd class is then negligible). Source texts for this construction
label the parity both ways; ``finite-trace:auto`` resolves to the evens
trace, the choice under which the advertised numbers actually hold.
"""

from __future__ import annotations

import math

import numpy as np

from turnlab.dynamics import (
    FiniteBranch,
    StartAt,
    SystemInstance,
    TruncatedL2,
    UniformStream,
)
from turnlab.geometry import row_spans
from turnlab.ideals import IdealModel
from turnlab.windows import SequenceWindow


def build_counterexample_system(ideal: IdealModel) -> SystemInstance:
    """Two branches, flip or halve: Phi(x) = {-x, x/2} with u(x) = x^3.

    Starts pinned at 1 with the identity separation functional and the
    origin as the claimed optimal stationary point. The reference path is
    the halving orbit. Under a translation-invariant ideal the flip
    branch is a losing move; under the evens-trace model the alternating
    path is optimal and never settles.
    """
    return SystemInstance(
        dim=1,
        phi=FiniteBranch((lambda x: -x, lambda x: x / 2.0), dim=1),
        utility=lambda pts: pts[..., 0] ** 3,
        ideal=ideal,
        constraint=StartAt([1.0]),
        box=np.array([[-2.0, 2.0]]),
        separation=np.array([1.0]),
        eta_star=np.array([0.0]),
        reference_branch=1,
    )


def build_block_sequence(k_max: int) -> SequenceWindow:
    """Alternating-sign block sequence with factorially long flat middles.

    Block k ramps down 1, 1/2, ..., 1/2^(k-1), holds 1/2^k for k!
    consecutive terms, and ramps back up to 1/2, for 2k - 1 + k! terms;
    the global sign alternates with the index. Every consecutive pair
    satisfies the interval dynamics x' in [-2x, -x/2], which the builder
    asserts. The blocks are written into one array and the check runs
    over fixed-size spans, so no temporary scales with the length.
    """
    if not 2 <= k_max <= 12:
        raise ValueError("k_max must lie in [2, 12]; lengths blow up factorially")
    x = np.empty(block_sequence_length(k_max))
    at = 0
    for k in range(1, k_max + 1):
        mid = at + k + math.factorial(k)  # end of the flat middle
        x[at : at + k] = 0.5 ** np.arange(0, k)
        x[at + k : mid] = 0.5**k
        x[mid : mid + k - 1] = 0.5 ** np.arange(k - 1, 0, -1)
        at = mid + k - 1
    x[1::2] *= -1.0
    for rows in row_spans(x.size - 1):
        a = x[rows.start : rows.stop + 1]
        ratio = np.abs(a[1:]) / np.abs(a[:-1])
        if not (np.all(a[1:] * a[:-1] < 0) and np.all(ratio >= 0.5) and np.all(ratio <= 2.0)):
            raise AssertionError("block sequence violates the interval dynamics")
    x.setflags(write=False)  # handed over to the window, not copied
    return SequenceWindow(x)


def block_sequence_length(k_max: int) -> int:
    return sum(2 * k - 1 + math.factorial(k) for k in range(1, k_max + 1))


def build_ifs_system(branches, ideal: IdealModel) -> SystemInstance:
    """Iterated-function-system dynamics from affine 1-d contractions.

    ``branches`` is a sequence of (slope, intercept) pairs, each with
    |slope| < 1 and a finite fixed point intercept/(1 - slope). The box
    spans the fixed points and 0, padded by 1; its span squared must be
    finite. Paths start at 0 and the utility is the identity. The
    optimal stationary point is the largest branch fixed point; the
    identity works as the separation functional because every branch
    pulls points above its own fixed point strictly downward.
    """
    coeffs = [(float(a), float(b)) for a, b in branches]
    for j, (a, b) in enumerate(coeffs):
        if abs(a) >= 1.0:
            raise ValueError(f"slope {a} is not a contraction")
        if not math.isfinite(b / (1.0 - a)):
            raise ValueError(f"branch {j} ({a}, {b}) has no finite fixed point b/(1 - a)")
    maps = tuple((lambda x, a=a, b=b: a * x + b) for a, b in coeffs)
    phi = FiniteBranch(maps, dim=1)
    fixed = np.array([b / (1.0 - a) for a, b in coeffs])
    eta_star = float(fixed.max())
    j_star = int(np.argmax(fixed))
    lo = float(min(fixed.min(), 0.0)) - 1.0
    hi = float(max(fixed.max(), 0.0)) + 1.0
    if not hi - lo <= math.sqrt(np.finfo(float).max):
        j = int(np.argmax(np.abs(fixed)))
        raise ValueError(f"branch {j} {coeffs[j]}: box span {hi - lo:g} overflows when squared")
    return SystemInstance(
        dim=1,
        phi=phi,
        utility=lambda pts: pts[..., 0],
        ideal=ideal,
        constraint=StartAt([0.0]),
        box=np.array([[lo, hi]]),
        separation=np.array([1.0]),
        eta_star=np.array([eta_star]),
        reference_branch=j_star,
    )


def l2_start(d: int, seed: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(-1, 1, d)`` bit for bit, scaled to norm <= 0.9:
    the ``l2`` start point, drawn from a ``UniformStream``."""
    if not 2 <= d <= 8:
        raise ValueError("truncation dimension must lie in [2, 8]")
    x = -1.0 + 2.0 * UniformStream(seed).random(d)
    x *= 0.9 / max(1.0, float(np.sqrt((x**2).sum())))
    return x


def build_l2_truncation(d: int, x_star, ideal: IdealModel) -> SystemInstance:
    """Finite-dimensional slice of the square-summable-space dynamics.

    Images combine the halving branch with a sampled band set whose
    first coordinate is pinned to minus the sum of squared tail
    coordinates. Utility and separation functional are both the first
    coordinate; the zero vector is the optimal stationary point and the
    halving orbit from the start is the reference path.
    """
    if not 2 <= d <= 8:
        raise ValueError("truncation dimension must lie in [2, 8]")
    start = np.asarray(x_star, dtype=float).ravel()
    if start.size != d:
        raise ValueError(f"start point must have dimension {d}")
    phi = TruncatedL2(dim=d)
    # Probe box kept clear of the band-emptiness boundary x_i = 1/i, where
    # the image set collapses to the halving point and Hausdorff
    # continuity genuinely fails; the margin exceeds the default probe
    # ladder so perturbed probes cannot cross it either.
    box = np.tile(np.array([-1.0, 1.0]), (d, 1))
    box[1:, 1] = 1.0 / np.arange(1, d) - 0.12
    note = (
        f"band sampling: {phi.band_samples} deterministic points per coordinate "
        f"(endpoints{' only' if phi.band_samples == 2 else ' plus interior grid'})"
    )
    return SystemInstance(
        dim=d,
        phi=phi,
        utility=lambda pts: pts[..., 0],
        ideal=ideal,
        constraint=StartAt(start),
        box=box,
        separation=np.concatenate([[1.0], np.zeros(d - 1)]),
        eta_star=np.zeros(d),
        reference_branch=0,
        notes=(note,),
    )


def build_weak_separation_system(ideal: IdealModel) -> SystemInstance:
    """Halving dynamics with one extra image point at the origin.

    Phi(0) = {0, 1} and Phi(x) = {x/2} elsewhere, utility and separation
    both the identity. The weak one-step implication (T x <= T y forces
    x = 0) holds, while the strong one (it forces x = y = 0) fails with
    witness (0, 1): exactly the gap between the two variants.
    """
    phi = FiniteBranch(
        (
            lambda x: x / 2.0,
            lambda x: np.where(x == 0.0, 1.0, x / 2.0),
        ),
        dim=1,
    )
    return SystemInstance(
        dim=1,
        phi=phi,
        utility=lambda pts: pts[..., 0],
        ideal=ideal,
        constraint=StartAt([1.0]),
        box=np.array([[-1.0, 2.0]]),
        separation=np.array([1.0]),
        eta_star=np.array([0.0]),
    )


SCENARIO_NAMES = ("counterexample", "blocks", "ifs", "l2")
