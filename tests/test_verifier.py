import numpy as np
import pytest

from turnlab import dynamics
from turnlab.analysis import deviation_densities
from turnlab.dynamics import (
    Interval1D,
    Path,
    StartAt,
    SystemInstance,
    FiniteBranch,
    feasible_path,
)
from turnlab.ideals import IdealModel
from turnlab.scenarios import (
    build_block_sequence,
    build_counterexample_system,
    build_ifs_system,
    build_weak_separation_system,
)
from turnlab.verifier import (
    SamplingPlan,
    check_conditions,
    check_separation_variants,
    t_hat,
    t_hat_batch,
    turnpike_verdict,
)
from turnlab.windows import SequenceWindow

PLAN = SamplingPlan(n_points=2000, seed=0, continuity_samples=128)


def _dens(n=2048):
    return IdealModel("density", n)


def test_t_hat_flip_or_halve():
    sys_inst = build_counterexample_system(_dens())
    assert t_hat(sys_inst, [1.0]) == -0.5
    assert t_hat(sys_inst, [0.0]) == 0.0


@pytest.mark.parametrize("chunk", [1024, 2])
def test_t_hat_batch_childless_state_gains_minus_inf(chunk, monkeypatch):
    # [x - 1, 2 - x] is empty at x = 2 and x = 3; x = 0.5 and x = 0 keep their gains
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    sys_inst = SystemInstance(
        dim=1,
        phi=Interval1D(lambda x: x - 1.0, lambda x: 2.0 - x, samples=3),
        utility=lambda p: p[..., 0],
        ideal=_dens(),
        constraint=StartAt([0.0]),
        box=np.array([[-4.0, 4.0]]),
        separation=np.array([1.0]),
    )
    gains = t_hat_batch(sys_inst, np.array([[0.0], [2.0], [0.5], [3.0], [1.5]]))
    assert gains.tolist() == [2.0, -np.inf, 1.0, -np.inf, -1.0]


def test_t_hat_singleton():
    half = SystemInstance(
        dim=1,
        phi=FiniteBranch((lambda x: x / 2.0,), dim=1),
        utility=lambda p: p[..., 0],
        ideal=_dens(),
        constraint=StartAt([2.0]),
        box=np.array([[-3.0, 3.0]]),
        separation=np.array([1.0]),
        eta_star=np.array([0.0]),
    )
    assert t_hat(half, [2.0]) == -1.0


def test_t_hat_negative_on_upper_level_set():
    sys_inst = build_counterexample_system(_dens())
    rng = np.random.default_rng(1)
    pts = rng.uniform(1e-6, 2.0, (500, 1))
    gains = t_hat_batch(sys_inst, pts)
    assert np.all(gains < 0)
    assert t_hat(sys_inst, sys_inst.eta_star) == 0.0


def test_conditions_counterexample_density_all_pass():
    rep = check_conditions(build_counterexample_system(_dens()), PLAN)
    assert rep.all_pass, {k: v["verdict"] for k, v in rep.conditions.items()}


def test_conditions_counterexample_trace_fails_translation():
    ft = IdealModel("finite_trace", 2048, trace="evens")
    rep = check_conditions(build_counterexample_system(ft), PLAN)
    assert rep.verdict("A3") == "fail"
    assert rep.conditions["A3"]["witness"] is not None
    for name in ("A1", "A2", "A4", "A5", "A6"):
        assert rep.verdict(name) == "pass"


def test_conditions_ifs_full_profile():
    sys_inst = build_ifs_system([(0.5, 0.0), (0.3, 0.7)], IdealModel("fin", 2048))
    rep = check_conditions(sys_inst, PLAN)
    assert rep.all_pass, {k: v["verdict"] for k, v in rep.conditions.items()}
    assert rep.conditions["A4"]["maximizer"] == [pytest.approx(1.0, abs=1e-6)]


def test_missing_inputs_are_untestable_never_pass():
    bare = SystemInstance(
        dim=1,
        phi=FiniteBranch((lambda x: x / 2.0,), dim=1),
        utility=lambda p: p[..., 0],
        ideal=_dens(),
        constraint=StartAt([1.0]),
        box=np.array([[-2.0, 2.0]]),
    )
    rep = check_conditions(bare, PLAN)
    assert rep.verdict("A5") == "untestable"
    assert rep.verdict("A6") == "untestable"
    assert not rep.all_pass


HALVE = FiniteBranch((lambda x: x / 2.0,), dim=1)
# 0.05 past the probe point at index 80 of linspace(-1, 1, 128): only the
# delta = 0.05 rung's moves land there
_NAN_AT = np.linspace(-1.0, 1.0, 128)[80] + 0.05


@pytest.mark.parametrize(
    "phi,u,nan_in",
    [
        (FiniteBranch((lambda x: np.where(x > 0.5, np.nan, x),), dim=1), None, "A1"),
        (HALVE, lambda p: np.where(p[..., 0] > 0.5, np.nan, p[..., 0]), "A2"),
        (HALVE, lambda p: np.where(np.abs(p[..., 0] - _NAN_AT) < 1e-9, np.nan, 0.0), "A2"),
    ],
    ids=["map", "utility", "utility-one-rung"],
)
def test_nan_distance_fails_its_continuity_condition(phi, u, nan_in):
    sys_inst = SystemInstance(
        dim=1,
        phi=phi,
        utility=u or (lambda p: p[..., 0]),
        ideal=_dens(),
        constraint=StartAt([0.0]),
        box=np.array([[-1.0, 1.0]]),
    )
    rep = check_conditions(sys_inst, PLAN).to_dict()["conditions"]
    ratios = [r["max_ratio"] for r in rep[nan_in]["rungs"]]
    assert "nan" in ratios and rep[nan_in]["growth"] == "nan"
    assert rep[nan_in]["verdict"] == "fail"
    other = rep["A2" if nan_in == "A1" else "A1"]
    assert other["verdict"] == "pass" and "nan" not in str(other)


def _interval_system(lower, upper, x0: float, eta: float) -> SystemInstance:
    # the A6 reference orbit takes branch 0, the interval's lower end
    return SystemInstance(
        dim=1,
        phi=Interval1D(lower, upper, samples=3),
        utility=lambda p: p[..., 0],
        ideal=IdealModel("fin", 512),
        constraint=StartAt([x0]),
        box=np.array([[-1.0, 1.0]]),
        separation=np.array([1.0]),
        eta_star=np.array([eta]),
        reference_branch=0,
    )


def test_a6_fails_on_a_one_point_reference_orbit():
    # [x/2, 1 - x] is empty above x = 2/3, so the orbit from 0.9 is 0.9 alone
    sys_inst = _interval_system(lambda x: x / 2.0, lambda x: 1.0 - x, 0.9, 0.0)
    a6 = check_conditions(sys_inst, PLAN).conditions["A6"]
    assert a6["verdict"] == "fail"
    assert a6["reference_points"] == 1 and a6["childless_state"] == [0.9]
    assert a6["reason"] == (
        "reference orbit has 1 of 512 points: its last state [0.9] has no branch-0 child"
    )


def test_a6_fails_on_a_truncated_orbit_above_u_star():
    # from 0 the lower end climbs by 0.1 until [x + 0.1, 1] is empty: eleven
    # points, all above u(eta_star) = -0.5, yet no 512-point orbit
    sys_inst = _interval_system(
        lambda x: np.where(x < 0.0, x, x + 0.1), lambda x: 1.0 + 0.0 * x, 0.0, -0.5
    )
    a6 = check_conditions(sys_inst, PLAN).conditions["A6"]
    assert a6["verdict"] == "fail" and a6["reference_points"] == 11
    assert "reference_liminf" not in a6


def test_a6_judges_an_untruncated_orbit_on_its_liminf():
    sys_inst = _interval_system(lambda x: x / 2.0, lambda x: 1.0 - x, 0.5, 0.0)
    a6 = check_conditions(sys_inst, PLAN).conditions["A6"]
    assert a6["verdict"] == "pass"
    assert "reference_points" not in a6 and "childless_state" not in a6


def test_a4_fails_when_two_fixed_points_tie_in_u():
    # x/2 and x/2 + 1/2 fix 0 and 1, where u(x) = x(1 - x) is 0 at both
    sys_inst = SystemInstance(
        dim=1,
        phi=FiniteBranch((lambda x: x / 2.0, lambda x: x / 2.0 + 0.5), dim=1),
        utility=lambda pts: pts[..., 0] * (1.0 - pts[..., 0]),
        ideal=IdealModel("fin", 200, cutoff=8),
        constraint=StartAt([0.5]),
        box=np.array([[-0.5, 1.5]]),
    )
    a4 = check_conditions(sys_inst, PLAN).conditions["A4"]
    assert a4["verdict"] == "fail" and a4["reason"] == "maximizer not unique"
    assert a4["margin"] == 0.0
    assert a4["witnesses"] == [[0.0], [1.0]]


def test_separation_variants_crafted_gap():
    sys_inst = build_weak_separation_system(IdealModel("fin", 2048))
    rep = check_separation_variants(sys_inst, PLAN)
    assert rep.weak_holds and not rep.strong_holds
    assert rep.weak_without_strong
    assert rep.strong_witness == {"x": [0.0], "y": [1.0]}


def test_separation_variants_flip_or_halve_both_hold():
    rep = check_separation_variants(build_counterexample_system(_dens()), PLAN)
    assert rep.strong_holds and rep.weak_holds


def test_separation_variants_singleton_both_hold():
    half = SystemInstance(
        dim=1,
        phi=FiniteBranch((lambda x: x / 2.0,), dim=1),
        utility=lambda p: p[..., 0],
        ideal=_dens(),
        constraint=StartAt([1.0]),
        box=np.array([[-1.0, 2.0]]),
        separation=np.array([1.0]),
        eta_star=np.array([0.0]),
    )
    rep = check_separation_variants(half, PLAN)
    assert rep.strong_holds and rep.weak_holds


def test_strong_implies_weak_across_systems():
    systems = [
        build_counterexample_system(_dens()),
        build_weak_separation_system(IdealModel("fin", 2048)),
        build_ifs_system([(0.5, 0.0), (0.3, 0.7)], IdealModel("fin", 2048)),
    ]
    for s in systems:
        rep = check_separation_variants(s, PLAN)
        assert (not rep.strong_holds) or rep.weak_holds


def test_turnpike_halving_path_true():
    # horizon long enough that the 7-step transient has density < 0.01
    sys_inst = build_counterexample_system(_dens(2048))
    path = feasible_path(sys_inst.phi, [1.0], 1, 2048)
    verdict = turnpike_verdict(path, [0.0], _dens(2048), (0.1, 0.01))
    assert verdict.verdict
    assert all(r["small"] for r in verdict.rungs)


def test_turnpike_alternating_path_false():
    sys_inst = build_counterexample_system(_dens(256))
    path = feasible_path(sys_inst.phi, [1.0], 0, 256)
    verdict = turnpike_verdict(path, [0.0], _dens(256), (0.1,))
    assert not verdict.verdict
    assert verdict.rungs[0]["upper_density"] > 0.9


def test_turnpike_blocks_density_true_fin_false():
    from turnlab.dynamics import Path

    window = build_block_sequence(8)
    path = Path(window, ())
    dens = IdealModel("density", window.horizon)
    fin = IdealModel("fin", window.horizon)
    assert turnpike_verdict(path, [0.0], dens, (0.1, 0.05)).verdict
    assert not turnpike_verdict(path, [0.0], fin, (0.1,)).verdict


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_turnpike_scales_must_be_positive_and_finite(bad):
    # (nan,) and (inf,) made a non-converging path's verdict true
    sys_inst = build_counterexample_system(_dens(256))
    path = feasible_path(sys_inst.phi, [1.0], 0, 256)
    with pytest.raises(ValueError, match="positive and finite"):
        turnpike_verdict(path, [0.0], _dens(256), (bad,))


@pytest.mark.parametrize("target", [None, [np.nan], [0.0, 0.0]])
def test_turnpike_target_must_be_a_finite_point_of_the_path(target):
    # None and [nan] read verdict True with no deviating index; [0, 0]
    # broadcast the 1-D path against a 2-D target
    path = Path(SequenceWindow(np.linspace(1.0, 0.0, 200)), ())
    with pytest.raises(ValueError, match="finite point in 1-D"):
        turnpike_verdict(path, target, IdealModel("fin", 200), (0.1,))
    with pytest.raises(ValueError, match="finite point in 1-D"):
        deviation_densities(path.window, target, IdealModel("fin", 200), (0.1,))


@pytest.mark.parametrize("plan", [dict(continuity_samples=0), dict(n_points=0)])
def test_sampling_plan_counts_must_be_positive(plan):
    # at continuity_samples=0 the counterexample passed A1 and A2
    with pytest.raises(ValueError, match="probe counts must be positive"):
        SamplingPlan(**plan)


def test_turnpike_ladder_densities_reported():
    w = SequenceWindow(np.concatenate([np.ones(50), np.zeros(950)]))
    from turnlab.dynamics import Path

    verdict = turnpike_verdict(Path(w, ()), [0.0], IdealModel("density", 1000), (0.5,))
    assert verdict.rungs[0]["upper_density"] == pytest.approx(0.05)



def test_turnpike_scalar_eta_star_renders_as_list():
    w = SequenceWindow(np.zeros(100))
    from turnlab.dynamics import Path

    verdict = turnpike_verdict(Path(w, ()), 0.0, IdealModel("fin", 100, cutoff=5), (0.1,))
    assert verdict.eta_star.shape == (1,)
    assert verdict.to_dict()["eta_star"] == [0.0]
