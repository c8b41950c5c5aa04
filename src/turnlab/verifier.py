"""Numeric verification of the turnpike premises and conclusion.

The six conditions checked here:

* A1 -- the correspondence is continuous with compact (finitely sampled)
  images: probed through Hausdorff sensitivity at shrinking scales, along
  axis moves and a random r and -r, so that a jump through the box centre
  across any coordinate hyperplane is crossed on every seed.
* A2 -- the utility map is continuous: the graph of u, on the A1 probe.
* A3 -- the ideal is translation invariant: shifted small sets stay small,
  decided exactly on the worst small set of each shift.
* A4 -- a unique utility-maximizing stationary point exists: fixed-point
  scan plus a uniqueness margin on the runner-up.
* A5 -- a linear functional strictly separates one dynamics step on the
  upper level set F = {x : u(x) >= u(eta_star)}: sampled (x, y) pairs
  with y in Phi(x), where any finite child y with T x <= T y is a
  witness. The strong/weak separation variants are read off the same
  sample (with eta_star prepended); ``check_conditions`` keeps them on
  ``ConditionReport.separation``. The sample, like the A1 and A2 probes'
  points and the A4 scan, is streamed by ``dynamics.expand_spans``:
  ``expand``'s triple per span of about ``EXPAND_CHUNK`` children.
* A6 -- the optimum value is attainable: witnessed by a supplied
  reference path whose utility liminf reaches u(eta_star). A reference
  orbit cut short by a state without its branch's child fails.

Failed conditions always carry a concrete witness; missing inputs make a
condition untestable, never passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from turnlab import dynamics
from turnlab.analysis import deviation_densities, ideal_liminf
from turnlab.dynamics import (
    FiniteBranch,
    Path,
    SystemInstance,
    UniformStream,
    _sample_kept,
    continuity_probe,
    expand_spans,
    feasibility_check,
    fixed_points,
)
from turnlab.geometry import run_starts
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

    def __post_init__(self) -> None:
        if min(self.n_points, self.continuity_samples) < 1:
            raise ValueError(f"probe counts must be positive, got {self!r}")


# ---------------------------------------------------------------------------
# separation functional helpers


def t_hat_batch(sys: SystemInstance, pts: np.ndarray) -> np.ndarray:
    """Best one-step separation gain max over y in Phi(x) of T(y - x), per row x of pts."""
    if sys.separation is None:
        raise ValueError("system has no separation functional configured")
    pts = np.asarray(pts, dtype=float)
    best = np.full(pts.shape[0], -np.inf)  # a state without children gains -inf
    for children, parent, _ in expand_spans(sys.phi, pts):
        start = run_starts(parent)
        best[parent[start]] = np.maximum.reduceat(children @ sys.separation, start)
    return best - pts @ sys.separation


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


def _separation_audit(
    sys: SystemInstance, plan: SamplingPlan
) -> tuple[dict, SeparationVariantReport]:
    """A5 and the strong/weak separation variants from one sample.

    Row 0 is eta_star, the rest are draws from F, taken n_points box draws
    at a time (40 rounds at most) into one array. Strong: T x <= T y
    forces x = y = eta_star. Weak: it only forces x = eta_star. The
    variants evaluate the implication at eta_star too, since that is
    where the two part ways. A5, a randomized audit of the probe box, is
    the strong variant over the draws alone, with its own scale. Both
    scales and T x come from the whole sample; the sample is then
    streamed through ``expand_spans``. Only pairs meeting the premise
    T x <= T y can violate either, so the eta_star tests run on those; a
    child with a non-finite coordinate is no witness. Each kind's witness
    is the first remaining pair in row order: spans run in row order,
    and a kind that has one searches no later span.
    """
    if sys.separation is None or sys.eta_star is None:
        raise ValueError("separation variants need the functional and eta_star")
    rng = UniformStream(plan.seed)
    u_star = float(sys.utilities(sys.eta_star[None, :])[0])
    in_f = lambda p: sys.utilities(p).ravel() >= u_star  # noqa: E731 - the draws in F
    pts = _sample_kept(sys.box, plan.n_points, rng, in_f, 40, first=sys.eta_star)
    tx = pts @ sys.separation
    scale = 1.0 + float(np.abs(pts).max())
    scale_a5 = 1.0 + float(np.abs(pts[1:]).max(initial=0.0))
    witness = {"a5": None, "strong": None, "weak": None}
    pairs = pairs_a5 = 0
    for children, parent, _ in expand_spans(sys.phi, pts):
        pairs += children.shape[0]
        pairs_a5 += int(np.count_nonzero(parent))
        rows = np.flatnonzero(tx[parent] <= children @ sys.separation)
        rows = rows[np.isfinite(children[rows]).all(axis=1)]  # a non-finite y is no witness
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
            if witness[kind] is None and keep.any():
                i = int(np.argmax(keep))
                witness[kind] = {"x": xs[i].tolist(), "y": ys[i].tolist()}
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
    """Run the full A1-A6 battery; A5 and its variants share one sample."""
    plan = plan or SamplingPlan()
    out: dict[str, dict] = {}

    # A2 is A1 on the graph x -> {u(x)}, whose Hausdorff distances are |u(x) - u(x')|
    for name, phi in (("A1", sys.phi), ("A2", FiniteBranch((sys.utility,)))):
        probe = continuity_probe(phi, sys.box, plan.continuity_samples, plan.seed)
        out[name] = {"verdict": "pass" if probe.passed else "fail", **probe.to_dict()}

    inv = check_translation_invariance(sys.ideal)
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

    ref = sys.reference_path
    if ref is None or sys.eta_star is None:
        out["A6"] = {"verdict": "untestable", "reason": "no reference path supplied"}
    elif ref.truncated:
        out["A6"] = {
            "verdict": "fail",
            "reason": f"reference orbit has {ref.window.horizon} of "
            f"{dynamics.REFERENCE_LENGTH} points: its last state "
            f"{ref.points[-1].tolist()} has no branch-{sys.reference_branch} child",
            "reference_points": ref.window.horizon,
            "childless_state": ref.points[-1],
        }
    else:
        feas = feasibility_check(ref, sys.phi)
        u_star = float(sys.utilities(sys.eta_star[None, :])[0])
        ref_values = SequenceWindow(ref.utilities(sys.utility))
        liminf = ideal_liminf(ref_values, sys.ideal)
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
