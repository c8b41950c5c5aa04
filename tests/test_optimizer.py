import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import random_two_branch_system
from turnlab.dynamics import (
    FiniteBranch,
    Free,
    InfeasibleImageError,
    Interval1D,
    StartAt,
    SystemInstance,
    feasibility_check,
)
from turnlab.ideals import IdealModel
from turnlab.optimizer import (
    SearchBudgetError,
    SearchConfig,
    exhaustive_maxmin,
    maxmin_search,
    path_objective,
    worst_profile,
)
from turnlab.scenarios import build_counterexample_system, build_ifs_system


def _fin(horizon, cutoff=None):
    return IdealModel("fin", horizon, cutoff=cutoff if cutoff else max(1, horizon // 2))


def test_path_objective_fin_is_tail_min():
    vals = np.array([5.0, 4.0, 3.0, 0.5, 2.0, 1.0])
    assert path_objective(vals, _fin(6, cutoff=2)) == 0.5


def test_path_objective_density_trims():
    vals = np.ones(200)
    vals[150] = -1.0  # single tail dip, within the 1% budget
    assert path_objective(vals, IdealModel("density", 200)) == 1.0
    # the threshold sets the trim: ceil(0.05 * 100) tail dips are forgiven
    model = IdealModel("density", 200, threshold=0.05)
    vals[150:155] = -1.0
    assert path_objective(vals, model) == 1.0
    vals[155] = -1.0
    assert path_objective(vals, model) == -1.0


def test_path_objective_trace_restricts_and_forgives():
    n = 512
    vals = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    model = IdealModel("finite_trace", n, cutoff=16, trace="evens")
    assert path_objective(vals, model) == 1.0


def test_worst_profile_sorted_and_padded():
    vals = np.array([3.0, -1.0, 2.0])
    prof = worst_profile(vals, _fin(3, cutoff=1))
    assert prof[0] == -1.0 and prof.size == 1


def test_single_branch_objective_trivial():
    phi = FiniteBranch(((lambda x: x / 2.0),), dim=1)
    sys_inst = SystemInstance(
        dim=1,
        phi=phi,
        utility=lambda p: p[..., 0],
        ideal=_fin(12),
        constraint=StartAt([1.0]),
        box=np.array([[-2.0, 2.0]]),
    )
    ex = exhaustive_maxmin(sys_inst, 12)
    assert ex.certificate
    assert ex.path.trace == (0,) * 11
    bm = maxmin_search(sys_inst, SearchConfig(horizon=12, beam_width=4))
    assert bm.objective == ex.objective


def test_ifs_exhaustive_prefers_upper_branch():
    sys_inst = build_ifs_system([(0.5, 0.0), (0.3, 0.7)], _fin(12))
    ex = exhaustive_maxmin(sys_inst, 12)
    assert ex.path.trace == (1,) * 11
    # independent oracle: plain loop over all 2^11 traces
    best = -np.inf
    for code in range(2**11):
        x, worst_tail = 0.0, np.inf
        for step in range(11):
            x = 0.5 * x if (code >> step) & 1 == 0 else 0.3 * x + 0.7
            if step + 1 >= 6:
                worst_tail = min(worst_tail, x)
        best = max(best, worst_tail)
    assert ex.objective == pytest.approx(best, abs=1e-12)


def test_counterexample_beam_matches_exhaustive():
    sys_inst = build_counterexample_system(_fin(12, cutoff=5))
    ex = exhaustive_maxmin(sys_inst, 12)
    bm = maxmin_search(
        sys_inst, SearchConfig(horizon=12, beam_width=64, state_grid=1e-12)
    )
    assert bm.objective == ex.objective
    assert bm.path.trace == ex.path.trace


@pytest.mark.parametrize("seed", range(5))
def test_oracle_agreement_random_instances(seed):
    n = 10
    sys_inst = random_two_branch_system(seed, n)
    ex = exhaustive_maxmin(sys_inst, n)
    bm = maxmin_search(
        sys_inst, SearchConfig(horizon=n, beam_width=1024, state_grid=1e-12)
    )
    assert bm.objective == ex.objective
    assert bm.path.trace == ex.path.trace


def test_beam_objective_never_overstates_oracle():
    for seed in range(6):
        n = 10
        sys_inst = random_two_branch_system(seed + 100, n)
        ex = exhaustive_maxmin(sys_inst, n)
        for width in (1, 2, 8):
            bm = maxmin_search(sys_inst, SearchConfig(horizon=n, beam_width=width))
            assert bm.objective <= ex.objective + 1e-15


def test_beam_monotone_in_width():
    sys_inst = random_two_branch_system(42, 12)
    objectives = [
        maxmin_search(sys_inst, SearchConfig(horizon=12, beam_width=w)).objective
        for w in (1, 2, 4, 16, 64)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(objectives, objectives[1:]))


def test_determinism():
    sys_inst = build_counterexample_system(IdealModel("density", 256))
    cfg = SearchConfig(horizon=256, beam_width=16)
    a = maxmin_search(sys_inst, cfg)
    b = maxmin_search(sys_inst, cfg)
    assert a.objective == b.objective and a.path.trace == b.path.trace


def test_report_consistency_invariant():
    sys_inst = build_counterexample_system(IdealModel("density", 512))
    rep = maxmin_search(sys_inst, SearchConfig(horizon=512, beam_width=32))
    assert rep.consistent
    assert abs(rep.objective - rep.revalidated_liminf) == rep.consistency_gap


def test_infeasible_start_raises():
    iv = Interval1D(lambda x: x + 1.0, lambda x: -x, samples=3)
    sys_inst = SystemInstance(
        dim=1,
        phi=iv,
        utility=lambda p: p[..., 0],
        ideal=_fin(8),
        constraint=StartAt([1.0]),
        box=np.array([[-2.0, 2.0]]),
    )
    with pytest.raises(InfeasibleImageError):
        maxmin_search(sys_inst, SearchConfig(horizon=8, beam_width=4))


@pytest.mark.parametrize("constraint", [StartAt([0.0]), Free([[-1.0, 1.0]])], ids=["pinned", "free"])
@pytest.mark.parametrize("model", [_fin(8), IdealModel("density", 8)], ids=["fin", "density"])
def test_childless_start_raises_for_either_kind_of_start(constraint, model):
    # [1, -1] is empty everywhere: the first step has no child
    sys_inst = SystemInstance(
        dim=1,
        phi=Interval1D(lambda x: 0 * x + 1.0, lambda x: 0 * x - 1.0, samples=3),
        utility=lambda p: p[..., 0],
        ideal=model,
        constraint=constraint,
        box=np.array([[-1.0, 1.0]]),
    )
    with pytest.raises(InfeasibleImageError, match="no start state has a child"):
        maxmin_search(sys_inst, SearchConfig(horizon=8, beam_width=4))


def test_frontier_collapse_flags_partial_report():
    # feasible at the start, infeasible from the second state on
    iv = Interval1D(lambda x: 3.0 * x, lambda x: 4.0 - x, samples=3)
    sys_inst = SystemInstance(
        dim=1,
        phi=iv,
        utility=lambda p: p[..., 0],
        ideal=_fin(8),
        constraint=StartAt([0.5]),
        box=np.array([[-8.0, 8.0]]),
    )
    rep = maxmin_search(sys_inst, SearchConfig(horizon=8, beam_width=4))
    assert rep.collapsed and rep.path.truncated
    assert rep.path.window.horizon < 8


def _dead_end_system(model):
    # x = 2 has the empty image [1, 0]: a width-1 beam that takes it collapses
    return SystemInstance(
        dim=1,
        phi=Interval1D(lambda x: x - 1.0, lambda x: 2.0 - x, samples=3),
        utility=lambda p: p[..., 0],
        ideal=model,
        constraint=StartAt([0.0]),
        box=np.array([[-3.0, 3.0]]),
    )


@pytest.mark.parametrize("trace", ["evens", "odds"])
def test_collapse_too_short_for_a_finite_trace_ideal_raises(trace):
    # the 2-point path holds one trace index, no more than the cutoff
    sys_inst = _dead_end_system(IdealModel("finite_trace", 8, cutoff=1, trace=trace))
    with pytest.raises(InfeasibleImageError, match="collapsed at step 2"):
        maxmin_search(sys_inst, SearchConfig(horizon=8, beam_width=1))


@pytest.mark.parametrize(
    "model, liminf",
    [(IdealModel("fin", 8, cutoff=1), 2.0), (IdealModel("density", 8), 0.0)],
    ids=["fin", "density"],
)
def test_collapse_under_fin_or_density_reports_the_short_path(model, liminf):
    rep = maxmin_search(_dead_end_system(model), SearchConfig(horizon=8, beam_width=1))
    assert rep.collapsed and rep.path.truncated
    assert rep.path.trace == (2,) and rep.path.window.horizon == 2
    assert rep.objective == 2.0 and rep.revalidated_liminf == liminf
    assert rep.frontier_sizes == ((1, 1), (3, 1))
    assert rep.model == model.describe()


def test_beam_keeps_states_with_children_beside_a_childless_one():
    # x = 2 has the empty image [1, 0]; the other kept states carry the beam
    iv = Interval1D(lambda x: x - 1.0, lambda x: 2.0 - x, samples=3)
    sys_inst = SystemInstance(
        dim=1,
        phi=iv,
        utility=lambda p: p[..., 0],
        ideal=_fin(8, cutoff=2),
        constraint=StartAt([0.0]),
        box=np.array([[-4.0, 4.0]]),
    )
    rep = maxmin_search(sys_inst, SearchConfig(horizon=8, beam_width=4))
    assert not rep.collapsed and not rep.path.truncated
    assert rep.path.window.horizon == 8
    assert feasibility_check(rep.path, iv)["feasible"]


def test_exhaustive_budget_guards():
    sys_inst = random_two_branch_system(0, 10)
    with pytest.raises(SearchBudgetError):
        exhaustive_maxmin(sys_inst, 17)
    wide = FiniteBranch(tuple((lambda x, k=k: 0.1 * x + 0.01 * k) for k in range(30)), dim=1)
    wide_sys = SystemInstance(
        dim=1,
        phi=wide,
        utility=lambda p: p[..., 0],
        ideal=_fin(8),
        constraint=StartAt([0.0]),
        box=np.array([[-1.0, 1.0]]),
    )
    with pytest.raises(SearchBudgetError):
        exhaustive_maxmin(wide_sys, 8)


def test_free_constraint_seeds_lattice():
    from turnlab.dynamics import Free

    sys_inst = SystemInstance(
        dim=1,
        phi=FiniteBranch((lambda x: 0.5 * x, lambda x: 0.3 * x + 0.7), dim=1),
        utility=lambda p: p[..., 0],
        ideal=_fin(32),
        constraint=Free(np.array([[-1.0, 1.0]])),
        box=np.array([[-2.0, 2.0]]),
    )
    rep = maxmin_search(sys_inst, SearchConfig(horizon=32, beam_width=8))
    assert rep.objective == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize(
    "ideal",
    [{"kind": "density", "threshold": 0.2}, {"kind": "finite_trace", "cutoff": 1, "trace": "evens"}],
    ids=["density", "finite_trace"],
)
def test_oracle_agreement_multi_column_profiles(ideal):
    # density and finite_trace keep several worst values in the tie
    # profile (fin keeps one), so this is the gate on the multi-column path
    n = 10
    model = IdealModel(horizon=n, **ideal)
    for seed in range(40):
        sys_inst = dataclasses.replace(random_two_branch_system(seed, n), ideal=model)
        ex = exhaustive_maxmin(sys_inst, n)
        bm = maxmin_search(sys_inst, SearchConfig(horizon=n, beam_width=1024, state_grid=1e-12))
        assert bm.objective == ex.objective, seed
        assert bm.path.trace == ex.path.trace, seed


def _rounded_system(model):
    phi = FiniteBranch((lambda x: 0.5 * x + 0.3, lambda x: 0.3 - 0.7 * x, lambda x: 0.9 * x - 0.2))
    return SystemInstance(
        dim=1,
        phi=phi,
        utility=lambda p: np.round(p[..., 0], 1),
        ideal=model,
        constraint=StartAt([0.25]),
        box=np.array([[-2.0, 2.0]]),
    )


def _copysign_system(model):
    # every state is 0.0 or -0.0, and the utility is the sign of the zero
    phi = FiniteBranch((lambda x: -x, lambda x: x * 0.5, lambda x: x + 0.0))
    return SystemInstance(
        dim=1,
        phi=phi,
        utility=lambda p: np.copysign(1.0, p[..., 0]),
        ideal=model,
        constraint=StartAt([-0.0]),
        box=np.array([[-1.0, 1.0]]),
    )


ORACLE_TIE_PINS = {
    # (system, ideal): (trace, first 16 hex digits of the points' SHA-256, objective)
    ("rounded", "fin"): ((0,) * 9, "f6584726b2eb8782", 0.6),
    ("rounded", "density"): ((0,) * 9, "f6584726b2eb8782", 0.6),
    ("rounded", "finite_trace"): ((0, 1, 2, 2, 2, 2, 2, 1, 0), "7a86e17601888582", 0.9),
    ("copysign", "fin"): ((0, 0, 0, 0, 0, 1, 1, 1, 1), "c71cfdde48aacd33", 1.0),
    ("copysign", "density"): ((0,) + (1,) * 8, "921618ff32b94d40", 1.0),
    ("copysign", "finite_trace"): ((0, 1) + (0,) * 7, "3018a990560621dc", 1.0),
}


@pytest.mark.parametrize("system, ideal", sorted(ORACLE_TIE_PINS), ids="-".join)
def test_oracle_tie_order_pins(system, ideal):
    # tie-heavy utilities: many traces share the objective and the whole
    # worst profile, so these pin which trace the oracle keeps
    kinds = {
        "fin": {"kind": "fin", "cutoff": 3},
        "density": {"kind": "density", "threshold": 0.2},
        "finite_trace": {"kind": "finite_trace", "cutoff": 1, "trace": "evens"},
    }
    build = {"rounded": _rounded_system, "copysign": _copysign_system}[system]
    rep = exhaustive_maxmin(build(IdealModel(horizon=10, **kinds[ideal])), 10)
    digest = hashlib.sha256(rep.path.points.tobytes()).hexdigest()[:16]
    assert (rep.path.trace, digest, rep.objective) == ORACLE_TIE_PINS[system, ideal]


def test_signed_zero_profiles_dedup_to_one_candidate():
    # both branches land on the same state cell with utility 0.0 and -0.0;
    # the two candidates are value-equal, so the beam keeps one
    phi = FiniteBranch(((lambda x: x * 0.0), (lambda x: x * -0.0)), dim=1)
    sys_inst = SystemInstance(
        dim=1,
        phi=phi,
        utility=lambda p: p[..., 0],
        ideal=_fin(3, cutoff=1),
        constraint=StartAt([1.0]),
        box=np.array([[-2.0, 2.0]]),
    )
    rep = maxmin_search(sys_inst, SearchConfig(horizon=3, beam_width=8))
    assert rep.frontier_sizes == ((1, 1), (2, 1), (2, 1))


def test_state_grid_whose_cells_pass_int64_raises():
    # from x0 = 1 the largest child is the flip -1: at grid 2^-61 its cell
    # index is -2^61, at grid 2^-62 it reaches the limit; at a subnormal
    # grid the division itself would overflow, so the check precedes it
    sys_inst = build_counterexample_system(_fin(4, cutoff=1))
    rep = maxmin_search(sys_inst, SearchConfig(horizon=4, state_grid=2.0**-61))
    assert rep.path.window.horizon == 4
    for grid in (2.0**-62, 1e-300, 1e-320):
        with pytest.raises(ValueError, match="too fine"):
            maxmin_search(sys_inst, SearchConfig(horizon=4, state_grid=grid))
