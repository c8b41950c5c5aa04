"""Maxmin path search: maximize the smallest persistent utility value.

The reported objective is a surrogate for the ideal liminf of u along
the path: the trimmed minimum of the utility values over the tail
window (the last N/2 indices, restricted to the trace class for
finite-trace models). The trim budget mirrors what the ideal forgives:
nothing for ``fin``, a ceil(trim_fraction * tail) slice for ``density``,
and ``cutoff`` many trace indices for ``finite_trace``.

Candidates that tie on the objective are ordered by a full-window
profile of their worst utility values (ascending sorted, compared
elementwise, larger better). Without this the search is blind to
pre-tail behavior: paths that burn the whole transient window on
high-utility excursions tie with well-behaved ones once tail values
underflow, and the reported winner would contradict its own re-evaluated
liminf. Final ties break lexicographically on the branch trace.

Beam expansion dedups on (grid-quantized state, tail profile, full
profile); two candidates agreeing there are exchangeable for every
continuation, so with a beam at least as wide as the dedup-group count
the search is exhaustive-equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from turnlab.analysis import ideal_liminf, default_grid
from turnlab.dynamics import (
    FiniteBranch,
    InfeasibleImageError,
    Path,
    StartAt,
    SystemInstance,
)
from turnlab.ideals import IdealModel
from turnlab.windows import SequenceWindow

EXHAUSTIVE_BUDGET = 10**7
EXHAUSTIVE_MAX_HORIZON = 16


class SearchBudgetError(RuntimeError):
    """Enumeration would exceed the combinatorial budget."""


@dataclass(frozen=True)
class SearchConfig:
    horizon: int
    beam_width: int = 64
    state_grid: float = 1e-3
    trim_fraction: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.beam_width < 1:
            raise ValueError("beam width must be positive")
        if self.state_grid <= 0:
            raise ValueError("state grid must be positive")
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError("trim fraction must lie in [0, 0.5)")

    def describe(self) -> dict:
        return {
            "horizon": self.horizon,
            "beam_width": self.beam_width,
            "state_grid": self.state_grid,
            "trim_fraction": self.trim_fraction,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# objective machinery


def _window_indices(n: int, model: IdealModel, tail_only: bool) -> np.ndarray:
    idx = np.arange(n // 2 if tail_only else 0, n, dtype=np.int64)
    if model.kind == "finite_trace":
        idx = idx[model.trace_mask(idx)]
    return idx


def _trim_count(model: IdealModel, m: int, trim_fraction: float) -> int:
    if m <= 0:
        return 0
    if model.kind == "density":
        return min(m - 1, int(math.ceil(trim_fraction * m)))
    return min(model.budget(), m - 1)


def path_objective(values: np.ndarray, model: IdealModel, trim_fraction: float) -> float:
    """Trimmed tail minimum of a utility sequence under the model."""
    values = np.asarray(values, dtype=float).ravel()
    model = model.at_horizon(values.size)
    idx = _window_indices(values.size, model, tail_only=True)
    if idx.size == 0:
        idx = _window_indices(values.size, model, tail_only=False)
    k = _trim_count(model, idx.size, trim_fraction)
    return float(np.sort(values[idx])[k])


def worst_profile(values: np.ndarray, model: IdealModel, trim_fraction: float) -> np.ndarray:
    """Ascending-sorted worst (budget + 1) utility values over the full
    window, the tie-breaking signature."""
    values = np.asarray(values, dtype=float).ravel()
    model = model.at_horizon(values.size)
    idx = _window_indices(values.size, model, tail_only=False)
    k = _trim_count(model, idx.size, trim_fraction)
    prof = np.full(k + 1, np.inf)
    take = np.sort(values[idx])[: k + 1]
    prof[: take.size] = take
    return prof


def _profile_insert(prof: np.ndarray, vals: np.ndarray, rows: np.ndarray) -> None:
    """Insert vals[rows] into the ascending profiles prof[rows], in place.

    A zero is stored as +0.0: the beam dedups on the raw bytes of the
    profiles, and -0.0 would make value-equal candidates look distinct.
    """
    if rows.size == 0:
        return
    sub = prof[rows]
    v = vals[rows]
    hit = v < sub[:, -1]
    if not hit.any():
        return
    rows = rows[hit]
    merged = np.concatenate([prof[rows], vals[rows, None] + 0.0], axis=1)
    merged.sort(axis=1)
    prof[rows] = merged[:, :-1]


def _rank(
    lex: np.ndarray,
    full_prof: np.ndarray,
    objective: np.ndarray,
    utility: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Candidate indices, best first: larger objective, then larger
    worst-value profile (compared from its smallest entry up), then larger
    current utility if given, then smaller trace order.

    One float key array for ``np.lexsort``, whose last row is the primary
    key; trace orders are exact in float64.
    """
    head = 1 if utility is None else 2
    keys = np.empty((head + full_prof.shape[1] + 1, lex.size))
    keys[0] = lex
    if utility is not None:
        np.negative(utility, out=keys[1])
    np.negative(full_prof[:, ::-1].T, out=keys[head:-1])
    np.negative(objective, out=keys[-1])
    return np.lexsort(keys)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class OptimReport:
    path: Path
    objective: float
    revalidated_liminf: float
    consistency_gap: float
    consistent: bool
    frontier_sizes: tuple[tuple[int, int], ...]
    certificate: bool
    collapsed: bool
    config: dict
    model: dict
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "revalidated_liminf": self.revalidated_liminf,
            "consistency_gap": self.consistency_gap,
            "consistent": self.consistent,
            "trace_head": list(self.path.trace[:32]),
            "path_length": self.path.window.horizon,
            "final_point": [float(v) for v in self.path.points[-1]],
            "frontier_sizes": [list(t) for t in self.frontier_sizes[:64]],
            "certificate": self.certificate,
            "collapsed": self.collapsed,
            "config": self.config,
            "model": self.model,
            "notes": list(self.notes),
        }


def _finalize(
    sys: SystemInstance,
    states: np.ndarray,
    trace: tuple[int, ...],
    model: IdealModel,
    cfg_dict: dict,
    trim_fraction: float,
    frontier_sizes: tuple[tuple[int, int], ...],
    certificate: bool,
    collapsed: bool,
    notes: tuple[str, ...] = (),
) -> OptimReport:
    path = Path(SequenceWindow(states), trace, truncated=collapsed)
    values = path.utilities(sys.utility)
    objective = path_objective(values, model, trim_fraction)
    window = SequenceWindow(values)
    if values.size >= 2:
        liminf = ideal_liminf(window, model.at_horizon(values.size))
    else:
        liminf = objective  # a single surviving point has no asymptotics
    gap = abs(objective - liminf)
    tol = max(default_grid(window), 1e-9)
    return OptimReport(
        path=path,
        objective=objective,
        revalidated_liminf=liminf,
        consistency_gap=gap,
        consistent=gap <= tol,
        frontier_sizes=frontier_sizes,
        certificate=certificate,
        collapsed=collapsed,
        config=cfg_dict,
        model=model.describe(),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# beam search


def _initial_states(sys: SystemInstance, cfg: SearchConfig) -> np.ndarray:
    if isinstance(sys.constraint, StartAt):
        return sys.constraint.x0[None, :]
    box = sys.constraint.start_box
    d = box.shape[0]
    per_axis = max(2, int(round(cfg.beam_width ** (1.0 / d))))
    axes = [np.linspace(box[i, 0], box[i, 1], per_axis) for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts[: cfg.beam_width]


def maxmin_search(sys: SystemInstance, cfg: SearchConfig) -> OptimReport:
    """Beam search over branch choices for the maxmin path.

    Deterministic: identical system and config give identical reports,
    with ties resolved by smaller branch index then lexicographic trace.
    """
    model = sys.ideal.at_horizon(cfg.horizon)
    n = cfg.horizon
    trim = cfg.trim_fraction
    tail_idx = _window_indices(n, model, tail_only=True)
    full_idx = _window_indices(n, model, tail_only=False)
    k_tail = _trim_count(model, tail_idx.size, trim)
    k_full = _trim_count(model, full_idx.size, trim)
    tail_start = n // 2
    relevant = model.trace_mask(np.arange(n)) if model.kind == "finite_trace" else np.ones(n, bool)

    states = _initial_states(sys, cfg)
    if isinstance(sys.constraint, StartAt):
        sys.phi.images(sys.constraint.x0)  # infeasible start raises here
    m0 = states.shape[0]
    tail_prof = np.full((m0, k_tail + 1), np.inf)
    full_prof = np.full((m0, k_full + 1), np.inf)
    u0 = sys.utilities(states).reshape(-1)
    if relevant[0]:
        _profile_insert(full_prof, u0, np.arange(m0))
    lex = np.arange(m0, dtype=np.int64)
    states_log = [states]
    parents_log: list[np.ndarray] = []
    branches_log: list[np.ndarray] = []
    frontier_sizes: list[tuple[int, int]] = [(m0, m0)]
    collapsed = False

    for j in range(1, n):
        try:
            children, parent, branch = sys.phi.expand(states)
        except InfeasibleImageError:
            collapsed = True
            break
        if children.shape[0] == 0:
            collapsed = True
            break
        vals = sys.utilities(children).reshape(-1)
        c_tail = tail_prof[parent].copy()
        c_full = full_prof[parent].copy()
        if relevant[j]:
            _profile_insert(c_full, vals, np.arange(vals.size))
            if j >= tail_start:
                _profile_insert(c_tail, vals, np.arange(vals.size))
        # lexicographic order of the child traces: parent order, then branch
        c_lex = np.empty(vals.size, dtype=np.int64)
        c_lex[np.lexsort((branch, lex[parent]))] = np.arange(vals.size)
        # pruning rank: current utility between profile and trace order
        # keeps climbing lineages alive through the otherwise
        # objective-blind transient
        order = _rank(c_lex, c_full, c_tail[:, k_tail], utility=vals)
        cells = np.round(children / cfg.state_grid).astype(np.int64)
        kept: list[int] = []
        seen: set[bytes] = set()
        for i in order:
            key = cells[i].tobytes() + c_tail[i].tobytes() + c_full[i].tobytes()
            if key in seen:
                continue
            seen.add(key)
            kept.append(i)
            if len(kept) >= cfg.beam_width:
                break
        kept_arr = np.array(kept, dtype=np.int64)
        states = children[kept_arr]
        tail_prof = c_tail[kept_arr]
        full_prof = c_full[kept_arr]
        new_lex = np.empty(kept_arr.size, dtype=np.int64)
        new_lex[np.argsort(c_lex[kept_arr], kind="stable")] = np.arange(kept_arr.size)
        lex = new_lex
        states_log.append(states)
        parents_log.append(parent[kept_arr])
        branches_log.append(branch[kept_arr])
        frontier_sizes.append((int(vals.size), int(kept_arr.size)))

    # final selection drops the utility component so the comparator
    # matches the exhaustive oracle: objective, profile, trace order
    winner = int(_rank(lex, full_prof, tail_prof[:, k_tail])[0])
    # backtrack the winning candidate through the logged beams
    rows = [winner]
    for parent in reversed(parents_log):
        rows.append(int(parent[rows[-1]]))
    rows.reverse()
    states_path = np.array([beam[r] for beam, r in zip(states_log, rows)])
    trace = [int(b[r]) for b, r in zip(branches_log, rows[1:])]
    return _finalize(
        sys,
        states_path,
        tuple(trace),
        model,
        cfg.describe(),
        trim,
        tuple(frontier_sizes),
        certificate=False,
        collapsed=collapsed,
    )


# ---------------------------------------------------------------------------
# exhaustive oracle


def exhaustive_maxmin(
    sys: SystemInstance, horizon: int, trim_fraction: float = 0.01
) -> OptimReport:
    """Enumerate every branch trace and return the exact surrogate optimum.

    Shares the objective, tie profile, and lexicographic ordering with
    maxmin_search, so a wide-enough beam must reproduce its result
    exactly. Only finite-branch systems with a pinned start are small
    enough to enumerate.
    """
    if horizon > EXHAUSTIVE_MAX_HORIZON:
        raise SearchBudgetError(f"exhaustive horizon capped at {EXHAUSTIVE_MAX_HORIZON}")
    if not isinstance(sys.phi, FiniteBranch):
        raise ValueError("exhaustive search needs a finite-branch correspondence")
    if not isinstance(sys.constraint, StartAt):
        raise ValueError("exhaustive search needs a pinned start point")
    b = sys.phi.branch_count
    count = b ** max(0, horizon - 1)
    if count > EXHAUSTIVE_BUDGET:
        raise SearchBudgetError(f"{count} traces exceed the {EXHAUSTIVE_BUDGET} budget")
    model = sys.ideal.at_horizon(horizon)

    x0 = sys.constraint.x0
    best: Optional[tuple] = None  # (objective, profile, trace, states)
    stack_states = np.empty((horizon, sys.dim))
    stack_states[0] = x0
    trace = [0] * (horizon - 1)

    def walk(depth: int) -> None:
        nonlocal best
        if depth == horizon - 1:
            values = sys.utilities(stack_states).reshape(-1)
            obj = path_objective(values, model, trim_fraction)
            prof = worst_profile(values, model, trim_fraction)
            if best is None:
                best = (obj, prof, tuple(trace), stack_states.copy())
                return
            if obj > best[0]:
                best = (obj, prof, tuple(trace), stack_states.copy())
                return
            if obj == best[0]:
                diff = prof != best[1]
                if diff.any():
                    i = int(np.argmax(diff))
                    if prof[i] > best[1][i]:
                        best = (obj, prof, tuple(trace), stack_states.copy())
            return
        children, _, branch = sys.phi.expand(stack_states[depth][None, :])
        for j in range(b):
            trace[depth] = j
            stack_states[depth + 1] = children[branch == j][0]
            walk(depth + 1)

    walk(0)
    assert best is not None
    return _finalize(
        sys,
        best[3],
        best[2],
        model,
        {"horizon": horizon, "trim_fraction": trim_fraction, "mode": "exhaustive"},
        trim_fraction,
        frontier_sizes=((count, count),),
        certificate=True,
        collapsed=False,
    )
