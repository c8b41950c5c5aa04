"""Numeric verification of the turnpike premises and conclusion.

The six conditions checked here:

* A1 -- the correspondence is continuous with compact (finitely sampled)
  images: probed through Hausdorff sensitivity at shrinking scales.
* A2 -- the utility map is continuous: sampled difference quotients.
* A3 -- the ideal is translation invariant: shifted small sets stay small.
* A4 -- a unique utility-maximizing stationary point exists: fixed-point
  scan plus a uniqueness margin on the runner-up.
* A5 -- a linear functional strictly separates one dynamics step on the
  upper level set F = {x : u(x) >= u(eta_star)}: sampled (x, y) pairs,
  with every would-be witness re-verified against the raw ``expand``
  output at 10x image resolution. The strong/weak separation variants
  are read off the same sample (with eta_star prepended), streamed
  through ``expand`` in chunks of ``EXPAND_CHUNK`` states;
  ``check_conditions`` keeps them on ``ConditionReport.separation``. The
  A1 continuity probe streams its moved points in chunks sized from
  their image counts (see ``dynamics.continuity_probe``).
* A6 -- the optimum value is attainable: witnessed by a supplied
  reference path whose utility liminf reaches u(eta_star).

Failed conditions always carry a concrete witness; missing inputs make a
condition untestable, never passing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from turnlab import dynamics
from turnlab.analysis import deviation_densities, ideal_liminf
from turnlab.dynamics import (
    Correspondence,
    Interval1D,
    Path,
    SystemInstance,
    TruncatedL2,
    _point,
    _sample_box,
    continuity_probe,
    feasibility_check,
    fixed_points,
    scalar_continuity,
)
from turnlab.geometry import row_spans
from turnlab.ideals import IdealModel, check_translation_invariance
from turnlab.report import Report, plain
from turnlab.windows import SequenceWindow

UNIQUENESS_MARGIN = 1e-6
A6_TOL = 1e-6


@dataclass(frozen=True)
class SamplingPlan(Report):
    """Reproducible probe configuration for the condition checks."""

    n_points: int = 10_000
    seed: int = 0
    continuity_samples: int = 256
    translation_samples: int = 200
    translation_shifts: tuple[int, ...] = (1, -1, 7, -7)
    delta_ladder: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise ValueError(f"probe count must be positive, got {self.n_points}")


# ---------------------------------------------------------------------------
# separation functional helpers


def t_hat(sys: SystemInstance, x) -> float:
    """Best one-step separation gain max over y in Phi(x) of T(y - x)."""
    return float(t_hat_batch(sys, _point(x)[None, :])[0])


def t_hat_batch(sys: SystemInstance, pts: np.ndarray) -> np.ndarray:
    """Vectorized t_hat over a (P, d) batch."""
    if sys.separation is None:
        raise ValueError("system has no separation functional configured")
    pts = np.asarray(pts, dtype=float)
    best = np.full(pts.shape[0], -np.inf)  # a state without children gains -inf
    for rows in row_spans(pts.shape[0], dynamics.EXPAND_CHUNK):
        children, parent, _ = sys.phi.expand(pts[rows])
        start, _ = dynamics._segments(parent)
        best[rows.start + parent[start]] = np.maximum.reduceat(children @ sys.separation, start)
    return best - pts @ sys.separation


def _refined_images(phi: Correspondence, x: np.ndarray) -> np.ndarray:
    """Raw ``expand`` image sample at roughly 10x resolution (finite
    branches are already exact), for witness re-verification; duplicates
    stay, since ``_first_witness`` reads only the minimum gap and its
    first row, always a first occurrence."""
    if isinstance(phi, Interval1D):
        phi = dataclasses.replace(phi, samples=10 * phi.samples - 9)
    elif isinstance(phi, TruncatedL2):
        phi = dataclasses.replace(phi, band_samples=min(5, phi.band_samples + 3))
    return phi.expand(x[None, :])[0]


# ---------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class ConditionReport(Report):
    conditions: dict
    plan: dict
    model: dict
    # strong/weak variants from the A5 sample (None when A5 is untestable);
    # not part of to_dict
    separation: Optional[SeparationVariantReport] = None

    @property
    def all_pass(self) -> bool:
        return all(c["verdict"] == "pass" for c in self.conditions.values())

    def verdict(self, name: str) -> str:
        return self.conditions[name]["verdict"]

    def to_dict(self) -> dict:
        return plain({"conditions": self.conditions, "plan": self.plan, "model": self.model})


def _check_a4(sys: SystemInstance) -> dict:
    pts = fixed_points(sys.phi, sys.box, seed=17)
    if pts.shape[0] == 0:
        return {"verdict": "fail", "reason": "no stationary point found in the box"}
    utils = sys.utilities(pts).reshape(-1)
    order = np.argsort(-utils, kind="stable")
    best = pts[order[0]]
    diag = {
        "fixed_points": [[float(v) for v in p] for p in pts],
        "utilities": [float(v) for v in utils],
        "maximizer": [float(v) for v in best],
    }
    if pts.shape[0] > 1:
        margin = float(utils[order[0]] - utils[order[1]])
        diag["margin"] = margin
        if margin <= UNIQUENESS_MARGIN:
            diag["witnesses"] = [
                [float(v) for v in pts[order[0]]],
                [float(v) for v in pts[order[1]]],
            ]
            return {"verdict": "fail", "reason": "maximizer not unique", **diag}
    if sys.eta_star is not None:
        gap = float(np.sqrt(((best - sys.eta_star) ** 2).sum()))
        diag["eta_star_gap"] = gap
        if gap > 1e-4 * (1.0 + float(np.abs(sys.eta_star).max())):
            return {
                "verdict": "fail",
                "reason": "maximizing stationary point disagrees with the declared one",
                **diag,
            }
    return {"verdict": "pass", **diag}


def _first_witness(sys: SystemInstance, xs: np.ndarray, ys: np.ndarray) -> Optional[dict]:
    """The first pair (x, y), in order, whose T x <= T y survives
    re-verification against a 10x-resolution image sample of x."""
    for x, y in zip(xs, ys):
        refined = _refined_images(sys.phi, x)
        gaps = np.sqrt(((refined - y) ** 2).sum(axis=1))
        j = int(np.argmin(gaps))
        scale = 1.0 + float(np.abs(x).max()) + float(np.abs(y).max())
        if gaps[j] <= 1e-6 * scale and (
            x @ sys.separation <= refined[j] @ sys.separation + 1e-15 * scale
        ):
            return {"x": [float(v) for v in x], "y": [float(v) for v in y]}
    return None


def _separation_audit(
    sys: SystemInstance, plan: SamplingPlan
) -> tuple[dict, SeparationVariantReport]:
    """A5 and the strong/weak separation variants from one sample.

    Row 0 is eta_star, the rest are draws from F. Strong: T x <= T y
    forces x = y = eta_star. Weak: it only forces x = eta_star. The
    variants evaluate the implication at eta_star too, since that is
    where the two part ways. A5, a randomized audit of the probe box, is
    the strong variant over the draws alone, with its own scale. Both
    scales and T x come from the whole sample; the sample is then
    expanded ``EXPAND_CHUNK`` states at a time. Only pairs meeting the
    premise T x <= T y can violate either, so the eta_star tests run on
    those. Chunks run in row order, so a kind whose witness is confirmed
    searches no later chunk, and each witness is the first in row order.
    """
    if sys.separation is None or sys.eta_star is None:
        raise ValueError("separation variants need the functional and eta_star")
    rng = np.random.default_rng(plan.seed)
    u_star = float(sys.utilities(sys.eta_star[None, :])[0])
    collected = [sys.eta_star[None, :]]
    drawn = 0
    for _ in range(40):
        if drawn >= plan.n_points:
            break
        draw = _sample_box(sys.box, plan.n_points, rng)
        collected.append(draw[np.asarray(sys.utilities(draw), dtype=float).ravel() >= u_star])
        drawn += collected[-1].shape[0]
    pts = np.concatenate(collected, axis=0)[: 1 + plan.n_points]
    tx = pts @ sys.separation
    scale = 1.0 + float(np.abs(pts).max())
    scale_a5 = 1.0 + float(np.abs(pts[1:]).max(initial=0.0))
    witness = {"a5": None, "strong": None, "weak": None}
    pairs = pairs_a5 = 0
    for chunk in row_spans(pts.shape[0], dynamics.EXPAND_CHUNK):
        children, parent, _ = sys.phi.expand(pts[chunk])
        parent = parent + chunk.start
        pairs += children.shape[0]
        pairs_a5 += int(np.count_nonzero(parent))
        rows = np.nonzero(tx[parent] <= children @ sys.separation)[0]
        xs, ys = pts[parent[rows]], children[rows]
        dx = np.sqrt(((xs - sys.eta_star) ** 2).sum(axis=1))
        dy = np.sqrt(((ys - sys.eta_star) ** 2).sum(axis=1))
        x_star = dx <= 1e-9 * scale
        candidates = {
            "a5": (parent[rows] > 0)
            & ~((dx <= 1e-9 * scale_a5) & (dy <= 1e-9 * scale_a5)),
            "strong": ~(x_star & (dy <= 1e-9 * scale)),
            "weak": ~x_star,
        }
        for kind, keep in candidates.items():
            if witness[kind] is None:
                witness[kind] = _first_witness(sys, xs[keep], ys[keep])
    strong_holds, weak_holds = witness["strong"] is None, witness["weak"] is None
    return (
        {
            "verdict": "pass" if witness["a5"] is None else "fail",
            "pairs_checked": pairs_a5,
            "witness": witness["a5"],
        },
        SeparationVariantReport(
            strong_holds=strong_holds,
            weak_holds=weak_holds,
            weak_without_strong=weak_holds and not strong_holds,
            strong_witness=witness["strong"],
            weak_witness=witness["weak"],
            pairs_checked=pairs,
        ),
    )


def check_conditions(sys: SystemInstance, plan: SamplingPlan | None = None) -> ConditionReport:
    """Run the full A1-A6 battery against a system instance."""
    plan = plan or SamplingPlan()
    out: dict[str, dict] = {}

    probe = continuity_probe(
        sys.phi, sys.box, samples=plan.continuity_samples, ladder=plan.delta_ladder, seed=plan.seed
    )
    out["A1"] = {"verdict": "pass" if probe.passed else "fail", **probe.to_dict()}

    a2 = scalar_continuity(
        sys.utility, sys.box, plan.continuity_samples, plan.delta_ladder, plan.seed
    )
    out["A2"] = {"verdict": "pass" if a2.passed else "fail", **a2.to_dict()}

    inv = check_translation_invariance(
        sys.ideal,
        samples=plan.translation_samples,
        shifts=plan.translation_shifts,
        seed=plan.seed,
    )
    out["A3"] = {"verdict": "pass" if inv.invariant else "fail", **inv.to_dict()}

    out["A4"] = _check_a4(sys)

    separation = None
    if sys.separation is None or sys.eta_star is None:
        out["A5"] = {
            "verdict": "untestable",
            "reason": "no separation functional or stationary point configured",
        }
    else:
        out["A5"], separation = _separation_audit(sys, plan)

    if sys.reference_path is None or sys.eta_star is None:
        out["A6"] = {"verdict": "untestable", "reason": "no reference path supplied"}
    else:
        ref = sys.reference_path
        feas = feasibility_check(ref, sys.phi)
        u_star = float(sys.utilities(sys.eta_star[None, :])[0])
        ref_values = SequenceWindow(ref.utilities(sys.utility))
        model_ref = sys.ideal.at_horizon(ref_values.horizon)
        liminf = ideal_liminf(ref_values, model_ref)
        ok = feas["feasible"] and liminf >= u_star - A6_TOL * (1.0 + abs(u_star))
        out["A6"] = {
            "verdict": "pass" if ok else "fail",
            "reference_liminf": liminf,
            "u_eta_star": u_star,
            "reference_feasible": feas["feasible"],
        }

    return ConditionReport(
        conditions=out, plan=plan.to_dict(), model=sys.ideal.describe(), separation=separation
    )


# ---------------------------------------------------------------------------
# strong vs. weak separation variants


@dataclass(frozen=True)
class SeparationVariantReport(Report):
    strong_holds: bool
    weak_holds: bool
    weak_without_strong: bool
    strong_witness: Optional[dict]
    weak_witness: Optional[dict]
    pairs_checked: int


def check_separation_variants(
    sys: SystemInstance, plan: SamplingPlan | None = None
) -> SeparationVariantReport:
    """Probe both separation implications over sampled pairs.

    Strong: T x <= T y forces x = y = eta_star. Weak: it only forces
    x = eta_star. The report flags systems where the weak variant holds
    but the strong one fails. ``check_conditions`` computes the same
    report from its A5 sample and keeps it on ``separation``.
    """
    return _separation_audit(sys, plan or SamplingPlan())[1]


# ---------------------------------------------------------------------------
# turnpike verdict


@dataclass(frozen=True)
class TurnpikeVerdict(Report):
    eta_star: np.ndarray
    rungs: tuple[dict, ...]
    verdict: bool
    model: dict


def turnpike_verdict(
    path: Path, eta_star, model: IdealModel, ladder: Sequence[float]
) -> TurnpikeVerdict:
    """Does the path spend all but a small index set near eta_star?

    Each rung reports the raw upper density of {n : ||x_n - eta_star||
    >= eps}; the verdict holds when every rung's deviation set is small.
    """
    if path.window.horizon < 1:
        raise ValueError("empty path")
    if not ladder:
        raise ValueError("ladder must hold at least one scale")
    model = model.at_horizon(path.window.horizon)
    rungs = deviation_densities(
        path.window, np.asarray(eta_star, dtype=float), model, tuple(ladder), apply_burn_in=False
    )
    return TurnpikeVerdict(
        eta_star=np.atleast_1d(np.asarray(eta_star, dtype=float)),
        rungs=tuple(rungs),
        verdict=all(r["small"] for r in rungs),
        model=model.describe(),
    )
