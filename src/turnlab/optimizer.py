"""Maxmin path search: maximize the smallest persistent utility value.

The reported objective is a surrogate for the ideal liminf of u along
the path: the trimmed minimum of the utility values over the tail
window (the last N/2 indices, restricted to the trace class for
finite-trace models). The trim mirrors what the ideal forgives: nothing
for ``fin``, ceil(threshold * tail) values for ``density``, and
``cutoff`` many trace indices for ``finite_trace``.

Candidates that tie on the objective are ordered by a full-window
profile of their worst utility values (ascending sorted, compared
elementwise, larger better). Without this the search is blind to
pre-tail behavior: paths that burn the whole transient window on
high-utility excursions tie with well-behaved ones once tail values
underflow, and the reported winner would contradict its own re-evaluated
liminf. Final ties break lexicographically on the branch trace.

Each beam is kept in trace order, so a candidate's index is its trace
rank and the stable rank sort breaks final ties without a trace key.
Each candidate carries one profile row: its tail profile, then its full
profile. Beam expansion dedups on (grid-quantized state, profile row).
Two candidates agreeing there are equal only up to the state grid: their
states may differ within one cell (0.0 and -0.0 share cell 0, yet a
utility such as copysign tells them apart), so their continuations can
differ. With a beam at least as wide as the dedup-group count the search
is exhaustive-equivalent up to that grid, not exactly.

A step ranks groups, not children. Children of one parent whose
utilities have the same bits share every rank key but their index: the
parent's profile row with that value inserted, and the value itself.
So a step inserts each (parent, value) group's value once, ranks the
groups, and takes their children by group rank, then index. Groups tie
only across parents, or as +-0.0 or NaN bit-variants within one; either
way ``Correspondence.expand``'s parent-major order and the stable sort
that forms the groups number tied groups in index order, so this is the
order a rank of every child gives.

A step is a function of its input beam (the bytes of the states and the
profile rows) and two flags: whether its index counts toward the window,
and whether it lies in the tail. Expansion, utilities, selection, ranking
and dedup are deterministic, and Phi does not depend on time. So once the
beam settles into a fixed point or a 2-cycle, a step whose input repeats
the input of one of the last two steps replays that step's outputs, the
same read-only arrays, instead of computing them again. Inputs are
compared as raw bytes, so 0.0 and -0.0, or two NaN states, never stand in
for each other. ``OptimReport.counters`` counts expanded and replayed
steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from turnlab.analysis import ideal_liminf, default_grid
from turnlab.dynamics import (
    FiniteBranch,
    InfeasibleImageError,
    Path,
    StartAt,
    SystemInstance,
    _box_lattice,
)
from turnlab.geometry import run_starts
from turnlab.ideals import IdealModel, IdealSpecError
from turnlab.report import Report, plain
from turnlab.windows import SequenceWindow

EXHAUSTIVE_BUDGET = 10**7
EXHAUSTIVE_MAX_HORIZON = 16
_CELL_LIMIT = 2.0**62  # largest |cell index| a finite child may reach


class SearchBudgetError(RuntimeError):
    """Enumeration would exceed the combinatorial budget."""


@dataclass(frozen=True)
class SearchConfig(Report):
    horizon: int
    beam_width: int = 64
    state_grid: float = 1e-3

    def __post_init__(self) -> None:
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.beam_width < 1:
            raise ValueError("beam width must be positive")
        if not 0 < self.state_grid < math.inf:
            raise ValueError(f"state grid must be positive and finite, got {self.state_grid!r}")


# ---------------------------------------------------------------------------
# objective machinery


def _window(n: int, model: IdealModel, tail_only: bool) -> tuple[slice, int]:
    """The tail (last n // 2) or full window as a slice of range(n),
    restricted to the trace class for finite-trace models, and how many of
    its worst values the model forgives."""
    start = n // 2 if tail_only else 0
    rows = model.counted_slice(start, n) if model.kind == "finite_trace" else slice(start, n)
    size = len(range(n)[rows])
    k = math.ceil(model.threshold * size) if model.kind == "density" else model.budget()
    return rows, max(0, min(k, size - 1))


def worst_profile(values: np.ndarray, model: IdealModel, tail_only: bool = False) -> np.ndarray:
    """Ascending worst (k + 1) utility values over the full (or tail)
    window, k the values the model forgives there: the tie-breaking
    signature. A valid model counts an index of either window."""
    values = np.asarray(values, dtype=float).ravel()
    rows, k = _window(values.size, model.at_horizon(values.size), tail_only)
    return np.sort(values[rows])[: k + 1]


def path_objective(values: np.ndarray, model: IdealModel) -> float:
    """Trimmed tail minimum of a utility sequence under the model."""
    return float(worst_profile(values, model, tail_only=True)[-1])


def _profile_insert(prof: np.ndarray, vals: np.ndarray) -> None:
    """Insert vals[i] into the ascending profile prof[i], in place,
    without a sort: entry j becomes min(prof[i, j], max(prof[i, j - 1],
    vals[i])), entry 0 min(prof[i, 0], vals[i]), and the largest entry
    drops out. A NaN inserts as +inf, which changes nothing.

    A zero is stored as +0.0: the beam dedups on the raw bytes of the
    profiles, and -0.0 would make value-equal candidates look distinct.
    """
    v = np.fmin(vals, np.inf)[:, None] + 0.0
    np.minimum(prof[:, 1:], np.maximum(prof[:, :-1], v), out=prof[:, 1:])
    np.minimum(prof[:, :1], v, out=prof[:, :1])


def _rank(
    profile: np.ndarray,
    objective: np.ndarray,
    utility: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Candidate indices, best first: larger objective, then larger
    worst-value profile (compared from its smallest entry up), then larger
    current utility if given, then smaller index.

    One float key array for the stable ``np.lexsort``, whose last row is
    the primary key; candidates are indexed in trace order, so full ties
    fall to the smaller trace. A profile column on which every candidate
    ties cannot move a stable sort, so it is left out.
    """
    head = [] if utility is None else [utility]
    varying = profile[:, (profile != profile[:1]).any(axis=0)]
    return np.lexsort(-np.vstack([*head, varying[:, ::-1].T, objective]))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class OptimReport(Report):
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
    # work counts for the report's ``meta``; not part of the result
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return plain({
            "objective": self.objective,
            "revalidated_liminf": self.revalidated_liminf,
            "consistency_gap": self.consistency_gap,
            "consistent": self.consistent,
            "trace_head": self.path.trace[:32],
            "path_length": self.path.window.horizon,
            "final_point": self.path.points[-1],
            "frontier_sizes": self.frontier_sizes[:64],
            "certificate": self.certificate,
            "collapsed": self.collapsed,
            "config": self.config,
            "model": self.model,
            "notes": self.notes,
        })


def _finalize(
    sys: SystemInstance,
    states: np.ndarray,
    trace: tuple[int, ...],
    model: IdealModel,
    cfg_dict: dict,
    frontier_sizes: tuple[tuple[int, int], ...],
    certificate: bool,
    collapsed: bool,
    counters: Optional[dict] = None,
) -> OptimReport:
    path = Path(SequenceWindow(states), trace, truncated=collapsed)
    values = path.utilities(sys.utility)
    try:
        at_n = model.at_horizon(values.size)
    except IdealSpecError as exc:  # only a collapsed path is shorter than the horizon
        raise InfeasibleImageError(
            f"the beam collapsed at step {values.size}, on a path too short for the ideal: {exc}"
        ) from exc
    objective = path_objective(values, at_n)
    window = SequenceWindow(values)
    liminf = ideal_liminf(window, at_n)
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
        notes=sys.notes,
        counters=counters or {},
    )


# ---------------------------------------------------------------------------
# beam search


def _initial_states(sys: SystemInstance, cfg: SearchConfig) -> np.ndarray:
    if isinstance(sys.constraint, StartAt):
        return sys.constraint.x0[None, :]
    box = sys.constraint.start_box
    per_axis = max(2, int(round(cfg.beam_width ** (1.0 / box.shape[0]))))
    return _box_lattice(box, per_axis)[: cfg.beam_width]


def _select(
    prof: np.ndarray,
    parent: np.ndarray,
    vals: np.ndarray,
    cells: np.ndarray,
    width: int,
    k_tail: int,
    relevant: bool,
    in_tail: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The children a beam step of ``width`` keeps, ascending, and their
    profile rows: the first ``width`` distinct (cell, profile row) keys
    in rank order, children grouped by (parent, utility bits)."""
    by_group = np.lexsort((vals, parent))
    starts = run_starts(np.array([parent[by_group], vals[by_group].view(np.int64)]).T)
    first = by_group[starts]
    g_prof, g_vals = prof[parent[first]], vals[first]
    if relevant:
        _profile_insert(g_prof[:, k_tail + 1 :], g_vals)
        if in_tail:
            _profile_insert(g_prof[:, : k_tail + 1], g_vals)
    # pruning rank: current utility between profile and trace order
    # keeps climbing lineages alive through the otherwise
    # objective-blind transient
    kept: list[int] = []
    kept_groups: list[int] = []
    seen: set[bytes] = set()
    bounds = np.append(starts, by_group.size).tolist()
    for g in _rank(g_prof[:, k_tail + 1 :], g_prof[:, k_tail], utility=g_vals).tolist():
        row = g_prof[g].tobytes()
        for i in by_group[bounds[g] : bounds[g + 1]].tolist():
            child_key = cells[i].tobytes() + row
            if child_key not in seen:
                seen.add(child_key)
                kept.append(i)
                kept_groups.append(g)
        if len(kept) >= width:
            break
    # ``expand`` lists children by parent, then branch: with the beam
    # in trace order, ascending child indices are in trace order too
    rows = np.array(kept[:width])
    order = rows.argsort()
    return rows[order], g_prof[np.array(kept_groups[:width])[order]]


def _beam_step(
    sys: SystemInstance,
    cfg: SearchConfig,
    states: np.ndarray,
    prof: np.ndarray,
    k_tail: int,
    relevant: bool,
    in_tail: bool,
) -> Optional[tuple]:
    """One beam step: the next states and profile rows, the kept
    children's parent and branch indices, and the frontier pair (children
    before selection, kept); None when the beam collapses. The arrays are
    read-only, since a replayed step hands the same objects out again.
    The beam collapses only when no state in it has a child."""
    children, parent, branch = sys.phi.expand(states)
    if children.shape[0] == 0:
        return None
    vals = sys.utilities(children).reshape(-1)
    # compared before dividing, so the check itself cannot overflow
    mag = np.abs(children)
    big = (mag >= _CELL_LIMIT * cfg.state_grid) & (mag < np.inf)
    if big.any():
        raise ValueError(
            f"state grid {cfg.state_grid!r} is too fine for a child of magnitude "
            f"{float(mag[big].max()):g}: its cell index reaches 2^62"
        )
    cells = np.round(children / cfg.state_grid).astype(np.int64)
    rows, c_prof = _select(prof, parent, vals, cells, cfg.beam_width, k_tail, relevant, in_tail)
    out = (children[rows], c_prof, parent[rows], branch[rows])
    for a in out:
        a.setflags(write=False)
    return (*out, (vals.size, int(rows.size)))


def maxmin_search(sys: SystemInstance, cfg: SearchConfig) -> OptimReport:
    """Beam search over branch choices for the maxmin path.

    Deterministic: identical system and config give identical reports,
    with ties resolved by smaller branch index then lexicographic trace.
    No child at the first step raises ``InfeasibleImageError``; later, a
    collapse, which raises it too when the truncated path is too short to
    render the ideal.
    """
    model = sys.ideal.at_horizon(cfg.horizon)
    n = cfg.horizon
    _, k_tail = _window(n, model, tail_only=True)
    full_rows, k_full = _window(n, model, tail_only=False)
    relevant = range(n)[full_rows]
    # one profile row per candidate: the tail profile, then the full one
    full = slice(k_tail + 1, None)

    states = _initial_states(sys, cfg)
    m0 = states.shape[0]
    prof = np.full((m0, k_tail + k_full + 2), np.inf)
    if 0 in relevant:
        _profile_insert(prof[:, full], sys.utilities(states).reshape(-1))
    states_log = [states]
    parents_log: list[np.ndarray] = []
    branches_log: list[np.ndarray] = []
    frontier_sizes: list[tuple[int, int]] = [(m0, m0)]
    collapsed = False
    # the last two steps as (input key, outputs); a beam that has settled
    # into a fixed point or a 2-cycle repeats one of their inputs
    recent: list[tuple[tuple, tuple]] = []
    counters = {"beam_steps_expanded": 0, "beam_steps_replayed": 0}

    for j in range(1, n):
        flags = (j in relevant, j >= n // 2)
        beam_key = (*flags, states.tobytes(), prof.tobytes())
        step = next((out for past, out in recent if past == beam_key), None)
        if step is None:
            counters["beam_steps_expanded"] += 1
            step = _beam_step(sys, cfg, states, prof, k_tail, *flags)
            if step is None:
                if j == 1:
                    raise InfeasibleImageError("no start state has a child")
                collapsed = True
                break
        else:
            counters["beam_steps_replayed"] += 1
        recent = [*recent[-1:], (beam_key, step)]
        states, prof, parents, branches, sizes = step
        states_log.append(states)
        parents_log.append(parents)
        branches_log.append(branches)
        frontier_sizes.append(sizes)

    # final selection drops the utility component so the comparator
    # matches the exhaustive oracle: objective, profile, trace order
    winner = int(_rank(prof[:, full], prof[:, k_tail])[0])
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
        cfg.to_dict(),
        tuple(frontier_sizes),
        certificate=False,
        collapsed=collapsed,
        counters=counters,
    )


# ---------------------------------------------------------------------------
# exhaustive oracle


def exhaustive_maxmin(sys: SystemInstance, horizon: int) -> OptimReport:
    """Enumerate every branch trace and return the exact surrogate optimum.

    Shares the objective, tie profile, and lexicographic ordering with
    maxmin_search, so a beam at least as wide as the dedup-group count
    matches it up to the state grid, not exactly (see the module
    docstring). Only finite-branch systems with a pinned start enumerate.
    """
    if horizon > EXHAUSTIVE_MAX_HORIZON:
        raise SearchBudgetError(f"exhaustive horizon capped at {EXHAUSTIVE_MAX_HORIZON}")
    if not isinstance(sys.phi, FiniteBranch):
        raise ValueError("exhaustive search needs a finite-branch correspondence")
    if not isinstance(sys.constraint, StartAt):
        raise ValueError("exhaustive search needs a pinned start point")
    b = len(sys.phi.maps)
    count = b ** max(0, horizon - 1)
    if count > EXHAUSTIVE_BUDGET:
        raise SearchBudgetError(f"{count} traces exceed the {EXHAUSTIVE_BUDGET} budget")
    model = sys.ideal.at_horizon(horizon)

    x0 = sys.constraint.x0
    best: Optional[tuple] = None  # (key, trace, states)
    stack_states = np.empty((horizon, sys.dim))
    stack_states[0] = x0
    trace = [0] * (horizon - 1)

    def walk(depth: int) -> None:
        nonlocal best
        if depth == horizon - 1:
            values = sys.utilities(stack_states).reshape(-1)
            # the first unequal entry decides; a full tie or a NaN keeps the earlier trace
            key = (path_objective(values, model), *worst_profile(values, model))
            if best is None or key > best[0]:
                best = (key, tuple(trace), stack_states.copy())
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
        best[2],
        best[1],
        model,
        {"horizon": horizon, "mode": "exhaustive"},
        frontier_sizes=((count, count),),
        certificate=True,
        collapsed=False,
    )
