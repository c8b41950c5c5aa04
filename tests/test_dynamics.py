import numpy as np
import pytest

from turnlab.dynamics import (
    FiniteBranch,
    InfeasibleImageError,
    Interval1D,
    NonContractiveError,
    Singleton,
    StartAt,
    SystemInstance,
    TruncatedL2,
    continuity_probe,
    feasibility_check,
    feasible_path,
    fixed_points,
    hutchinson_iterate,
    make_policy,
)
from turnlab.geometry import hausdorff_distance
from turnlab.ideals import IdealModel

FLIP_OR_HALVE = FiniteBranch((lambda x: -x, lambda x: x / 2.0), dim=1)
IFS = FiniteBranch((lambda x: 0.5 * x, lambda x: 0.3 * x + 0.7), dim=1)


def test_images_branch_order_and_dedup():
    np.testing.assert_allclose(FLIP_OR_HALVE.images([1.0]).ravel(), [-1.0, 0.5])
    # both branches coincide at the origin; duplicates collapse
    assert FLIP_OR_HALVE.images([0.0]).shape == (1, 1)


@pytest.mark.parametrize(
    "phi,states,counts",
    [
        (FLIP_OR_HALVE, [[1.0], [-0.5], [0.25]], [2, 2, 2]),
        (Interval1D(lambda x: x - 1.0, lambda x: x + 1.0, samples=4), [[0.0], [2.0]], [4, 4]),
        (Singleton(lambda x: 0.5 * x), [[1.0], [2.0], [3.0]], [1, 1, 1]),
        # the middle state has x_1 > 1/1, so its band set is empty
        (TruncatedL2(3), [[0.1, 0.2, 0.1], [0.0, 1.5, 0.0], [0.3, -0.2, 0.4]], [26, 1, 26]),
    ],
    ids=["finite-branch", "interval", "singleton", "truncated-l2"],
)
def test_expand_groups_children_by_parent_then_branch(phi, states, counts):
    states = np.array(states)
    children, parent, branch = phi.expand(states)
    np.testing.assert_array_equal(parent, np.repeat(np.arange(len(counts)), counts))
    np.testing.assert_array_equal(branch, np.concatenate([np.arange(c) for c in counts]))
    for i in range(len(counts)):
        np.testing.assert_array_equal(children[parent == i], phi.expand(states[i : i + 1])[0])


def test_interval_images_equispaced():
    iv = Interval1D(lambda x: -2 * x, lambda x: -x / 2, samples=5)
    np.testing.assert_allclose(
        iv.images([1.0]).ravel(), [-2.0, -1.625, -1.25, -0.875, -0.5]
    )


def test_interval_empty_image_raises():
    iv = Interval1D(lambda x: x, lambda x: -x, samples=5)
    with pytest.raises(InfeasibleImageError):
        iv.images([1.0])


def test_fixed_point_is_in_own_image():
    imgs = IFS.images([1.0])
    assert np.abs(imgs - 1.0).min() < 1e-12


def test_fixed_points_flip_or_halve():
    pts = fixed_points(FLIP_OR_HALVE, [[-2.0, 2.0]])
    assert pts.shape == (1, 1)
    assert abs(pts[0, 0]) <= 1e-8


def test_fixed_points_ifs_closed_form():
    pts = fixed_points(IFS, [[-1.0, 2.0]])
    np.testing.assert_allclose(pts.ravel(), [0.0, 1.0], atol=1e-8)


def test_fixed_points_random_affine_matches_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a, b = rng.uniform(-0.8, 0.8), rng.uniform(-1, 1)
        phi = FiniteBranch(((lambda x, a=a, b=b: a * x + b),), dim=1)
        pts = fixed_points(phi, [[-8.0, 8.0]])
        assert pts.shape[0] == 1
        assert pts[0, 0] == pytest.approx(b / (1 - a), abs=1e-7)


def test_hutchinson_geometric_decay_to_origin():
    res = hutchinson_iterate(FiniteBranch((lambda x: x / 2.0,), dim=1), [7.0], 40)
    assert res.points.shape == (1, 1)
    assert abs(res.points[0, 0]) < 1e-6


def test_hutchinson_attractor_endpoints():
    res = hutchinson_iterate(IFS, [0.0], 25)
    assert res.points.min() == pytest.approx(0.0, abs=1e-6)
    assert res.points.max() == pytest.approx(1.0, abs=1e-6)


def test_hutchinson_zero_iterations_identity():
    res = hutchinson_iterate(IFS, [0.3], 0)
    np.testing.assert_allclose(res.points, [[0.3]])


def test_hutchinson_rate_bounded_by_lipschitz():
    res = hutchinson_iterate(IFS, [0.0], 20)
    rate = max(res.lipschitz)
    d = np.array(res.step_distances)
    # successive Hausdorff distances decay at the contraction rate
    ratios = d[4:] / d[3:-1]
    assert np.all(ratios <= rate + 0.05)


def test_hutchinson_rejects_expansion():
    with pytest.raises(NonContractiveError):
        hutchinson_iterate(FiniteBranch((lambda x: 2.0 * x,), dim=1), [1.0], 5)


def test_continuity_probe_lipschitz_branches():
    rep = continuity_probe(FLIP_OR_HALVE, [[-2.0, 2.0]])
    assert rep.passed
    assert all(r["max_ratio"] <= 1.0 + 1e-9 for r in rep.rungs)


def test_continuity_probe_interval_ratio_two():
    iv = Interval1D(lambda x: -2 * x, lambda x: -x / 2)
    rep = continuity_probe(iv, [[0.5, 2.0]])
    assert rep.passed
    assert all(r["max_ratio"] <= 2.0 + 1e-9 for r in rep.rungs)


def test_continuity_probe_flags_jump():
    step = Singleton(lambda x: np.where(x >= 0, 1.0, -1.0), dim=1)
    rep = continuity_probe(step, [[-1.0, 1.0]])
    assert not rep.passed


def test_feasible_path_policies():
    p_alt = feasible_path(FLIP_OR_HALVE, [1.0], make_policy("first"), 8)
    np.testing.assert_allclose(p_alt.points.ravel(), [(-1.0) ** n for n in range(8)])
    p_half = feasible_path(FLIP_OR_HALVE, [1.0], make_policy("index", index=1), 8)
    np.testing.assert_allclose(p_half.points.ravel(), [2.0**-n for n in range(8)])
    assert p_alt.trace == (0,) * 7 and p_half.trace == (1,) * 7


def test_singleton_path_is_orbit():
    phi = Singleton(lambda x: 0.5 * x + 0.1, dim=1)
    p = feasible_path(phi, [1.0], make_policy("first"), 6)
    x = 1.0
    for n in range(1, 6):
        x = 0.5 * x + 0.1
        assert p.points[n, 0] == pytest.approx(x)


def test_feasibility_recheck():
    p = feasible_path(IFS, [0.2], make_policy("cycle"), 50)
    rep = feasibility_check(p, IFS)
    assert rep["feasible"] and rep["max_residual"] == 0.0


def test_path_truncates_on_empty_image():
    # bounds cross after the first step; the path flags the truncation
    iv = Interval1D(lambda x: x + 1.0, lambda x: 2.0 - x, samples=3)
    p = feasible_path(iv, [0.2], make_policy("last"), 10)
    assert p.truncated
    assert p.window.horizon < 10


def test_system_rejects_non_stationary_claim():
    with pytest.raises(ValueError, match="residual"):
        SystemInstance(
            dim=1,
            phi=FLIP_OR_HALVE,
            utility=lambda p: p[..., 0],
            ideal=IdealModel("fin", 100),
            constraint=StartAt([1.0]),
            box=np.array([[-2.0, 2.0]]),
            eta_star=np.array([0.5]),
        )


def test_hausdorff_basics():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.0], [1.5]])
    assert hausdorff_distance(a, b) == pytest.approx(0.5)
    assert hausdorff_distance(a, a) == 0.0
