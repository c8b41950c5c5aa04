import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import turnlab
from turnlab.dynamics import (
    STREAM_BLOCK,
    FiniteBranch,
    Interval1D,
    StartAt,
    SystemInstance,
    TruncatedL2,
    UniformStream,
    _seed_points,
    continuity_probe,
    feasibility_check,
    feasible_path,
    fixed_points,
)
from turnlab.geometry import _distance_matrix, hausdorff_distance
from turnlab.ideals import IdealModel

FLIP_OR_HALVE = FiniteBranch((lambda x: -x, lambda x: x / 2.0), dim=1)
IFS = FiniteBranch((lambda x: 0.5 * x, lambda x: 0.3 * x + 0.7), dim=1)


def test_images_branch_order_and_dedup():
    np.testing.assert_allclose(FLIP_OR_HALVE.images([1.0]).ravel(), [-1.0, 0.5])
    # both branches coincide at the origin and stay two rows, branch order
    assert FLIP_OR_HALVE.images([0.0]).tobytes() == np.array([[-0.0], [0.0]]).tobytes()


@pytest.mark.parametrize(
    "phi,states,counts",
    [
        (FLIP_OR_HALVE, [[1.0], [-0.5], [0.25]], [2, 2, 2]),
        (Interval1D(lambda x: x - 1.0, lambda x: x + 1.0, samples=4), [[0.0], [2.0]], [4, 4]),
        # [x, 0] is empty for x > 0; a NaN bound is not an empty image
        (
            Interval1D(lambda x: x, lambda x: 0.0, samples=3),
            [[-1.0], [1.0], [0.0], [2.0], [np.nan]],
            [3, 0, 3, 0, 3],
        ),
        (FiniteBranch((lambda x: 0.5 * x,)), [[1.0], [2.0], [3.0]], [1, 1, 1]),
        # the middle state has x_1 > 1/1, so its band set is empty
        (TruncatedL2(3), [[0.1, 0.2, 0.1], [0.0, 1.5, 0.0], [0.3, -0.2, 0.4]], [26, 1, 26]),
    ],
    ids=["finite-branch", "interval", "interval-empty", "singleton", "truncated-l2"],
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


def test_interval_empty_image_has_no_points():
    iv = Interval1D(lambda x: x, lambda x: -x, samples=5)
    assert iv.images([1.0]).shape == (0, 1)


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


def test_seed_points_are_the_coarse_scan_plus_finite_branch_orbits():
    # d > 2: exactly the 1,024 seeded box draws, nothing else
    box = np.array([[-1.0, 0.8], [-0.5, 0.5], [0.0, 0.3]])
    draws = box[:, 0] + np.random.default_rng(5).random((1024, 3)) * (box[:, 1] - box[:, 0])
    assert _seed_points(TruncatedL2(3), box, 5).tobytes() == draws.tobytes()
    # d = 1: the 4,096-point lattice, endpoints included
    box = np.array([[-1.0, 2.0]])
    lattice = np.linspace(-1.0, 2.0, 4096)[:, None]
    iv = Interval1D(lambda x: x - 1.0, lambda x: x + 1.0)
    assert _seed_points(iv, box, 0).tobytes() == lattice.tobytes()
    # a finite branch adds where each map's orbit from the centre settles
    got = _seed_points(IFS, box, 0)
    assert got.shape == (4098, 1)
    assert got[:4096].tobytes() == lattice.tobytes()
    np.testing.assert_allclose(got[4096:, 0], [0.0, 1.0], atol=1e-12)


SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None  # every SciPy import now raises ImportError
import numpy as np
from turnlab.dynamics import FiniteBranch, fixed_points
from turnlab.geometry import hausdorff_distance
ifs = FiniteBranch((lambda x: 0.5 * x, lambda x: 0.3 * x + 0.7), dim=1)
a, b = np.random.default_rng(0).uniform(size=(2, 2100, 3))  # 4.41M pairs
print(json.dumps({
    "fixed": [v.hex() for v in fixed_points(ifs, [[-2.0, 2.0]]).ravel()],
    "h3": hausdorff_distance(a, b).hex(),
}))
"""


def test_runtime_needs_no_scipy():
    # a fresh interpreter, since this one may hold SciPy already
    src = str(Path(turnlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    fixed = [float.fromhex(v) for v in got["fixed"]]
    assert fixed == fixed_points(IFS, [[-2.0, 2.0]]).ravel().tolist()
    assert fixed == pytest.approx([0.0, 1.0], abs=1e-9)
    a, b = np.random.default_rng(0).uniform(size=(2, 2100, 3))
    d = _distance_matrix(a, b)
    assert float.fromhex(got["h3"]) == max(d.min(axis=1).max(), d.min(axis=0).max())


# a seed past 2**128 has more 32-bit words than SeedSequence's pool of four
STREAM_SEEDS = [*range(1000), 2**32, 2**64 - 1, 2**70 + 3, 123456789012345678901234567890, 2**160 + 5]
BIG = (10000, 8)


@pytest.mark.parametrize(
    "shapes",
    [
        *(((n,) * 3) for n in (0, 1, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1)),
        (8, STREAM_BLOCK + 1, 3),  # the per-stream table grows, then serves a short draw
        (BIG,) * 3,
    ],
    ids=lambda shapes: "-".join(str(s).replace(" ", "") for s in shapes),
)
def test_uniform_stream_matches_numpy_default_rng(shapes):
    # numpy's generator stays the reference, compared bit for bit over three
    # consecutive calls; the (10000, 8) draws take every 25th small seed
    seeds = [*range(0, 1000, 25), *STREAM_SEEDS[1000:]] if shapes[0] == BIG else STREAM_SEEDS
    for seed in seeds:
        stream, rng = UniformStream(seed), np.random.default_rng(seed)
        for shape in shapes:
            got, want = stream.random(shape), rng.random(shape)
            assert got.shape == want.shape, (seed, shape)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, shape)


def test_uniform_stream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        UniformStream(-1)


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
    step = FiniteBranch((lambda x: np.where(x >= 0, 1.0, -1.0),), dim=1)
    rep = continuity_probe(step, [[-1.0, 1.0]])
    assert not rep.passed
    # A2 probes the graph of u = 1{x_i >= 0}, which jumps through the box centre.
    # From d = 4 on, the first six axis moves hold no negative one, so the jump
    # shows only along a random direction: one of r and -r crosses x_i = 0 from
    # every probe point on a centre line, whatever the seed
    for d, coords, seeds in ((1, (0,), 10), (2, (0,), 10), (3, (0,), 10), (8, (0, 1, 7), 60)):
        for i in coords:
            jump = FiniteBranch((lambda x, i=i: (x[..., i] >= 0).astype(float),))
            for seed in range(seeds):
                rep = continuity_probe(jump, [[-1.0, 1.0]] * d, seed=seed)
                assert not rep.passed, (d, i, seed)


@pytest.mark.parametrize("samples", [0, -1])
def test_continuity_probe_needs_a_sample(samples):
    # no sample gave every rung max_ratio 0.0, a pass for a jump map
    jump = FiniteBranch((lambda x: np.where(x > 0.3, 1.0, 0.0),))
    assert not continuity_probe(jump, [[-1.0, 1.0]], samples=256).passed
    with pytest.raises(ValueError, match="at least one sample"):
        continuity_probe(jump, [[-1.0, 1.0]], samples=samples)


def test_feasible_path_policies():
    p_alt = feasible_path(FLIP_OR_HALVE, [1.0], 0, 8)
    np.testing.assert_allclose(p_alt.points.ravel(), [(-1.0) ** n for n in range(8)])
    p_half = feasible_path(FLIP_OR_HALVE, [1.0], 1, 8)
    np.testing.assert_allclose(p_half.points.ravel(), [2.0**-n for n in range(8)])
    assert p_alt.trace == (0,) * 7 and p_half.trace == (1,) * 7


def test_singleton_path_is_orbit():
    phi = FiniteBranch((lambda x: 0.5 * x + 0.1,), dim=1)
    p = feasible_path(phi, [1.0], 0, 6)
    x = 1.0
    for n in range(1, 6):
        x = 0.5 * x + 0.1
        assert p.points[n, 0] == pytest.approx(x)


def test_feasibility_recheck():
    p = feasible_path(IFS, [0.2], 1, 50)
    rep = feasibility_check(p, IFS)
    assert rep["feasible"] and rep["max_residual"] == 0.0


def test_path_truncates_on_empty_image():
    # bounds cross after the first step; the path flags the truncation
    iv = Interval1D(lambda x: x + 1.0, lambda x: 2.0 - x, samples=3)
    p = feasible_path(iv, [0.2], 2, 10)
    assert p.truncated
    assert p.window.horizon < 10


@pytest.mark.parametrize(
    "phi,x0,branch",
    [
        (FLIP_OR_HALVE, [1.0], 0),
        (IFS, [0.2], 1),
        (Interval1D(lambda x: 0.5 * x, lambda x: 0.5 * x + 1.0, samples=5), [0.7], 3),
        (TruncatedL2(3), [0.3, -0.2, 0.1], 0),
        (TruncatedL2(3), [0.3, -0.2, 0.1], 7),
    ],
    ids=["finite-branch-0", "finite-branch-1", "interval", "l2-halving", "l2-band"],
)
def test_feasible_path_steps_are_expand_branch_children(phi, x0, branch):
    p = feasible_path(phi, x0, branch, 12)
    for x, y in zip(p.points[:-1], p.points[1:]):
        children, _, b = phi.expand(x[None, :])
        assert y.tobytes() == children[b == branch][0].tobytes()
    assert p.trace == (branch,) * (p.window.horizon - 1)


def test_feasible_path_missing_branch_truncates_and_negative_raises():
    # the band of [0.3, 0.6, 0.1] is empty (x_1 > 1/1 after one band step):
    # branch 7 exists at the start only
    p = feasible_path(TruncatedL2(3), [0.3, 0.6, 0.1], 7, 12)
    assert p.truncated and p.window.horizon == 2 and p.trace == (7,)
    p = feasible_path(FLIP_OR_HALVE, [1.0], 2, 5)
    assert p.truncated and p.window.horizon == 1 and p.trace == ()
    assert not feasible_path(FLIP_OR_HALVE, [1.0], 1, 5).truncated
    with pytest.raises(ValueError, match="branch"):
        feasible_path(FLIP_OR_HALVE, [1.0], -1, 5)


def _expand_rows(phi, states, branch):
    """Row ``branch[i]`` of the whole-batch ``expand`` of ``states[i]``, NaN where missing."""
    out = np.full(states.shape, np.nan)
    children, parent, b = phi.expand(states)
    hit = b == branch[parent]
    out[parent[hit]] = children[hit]
    return out


def _l2_states(d, rng):
    """3,000 states in band range, but every other one pushed past
    x_{d-1} = 1/(d-1), where its band set is empty, and some others on
    that edge or one ulp past it."""
    states = rng.uniform(-1.0, 1.0, (3000, d)) / np.arange(1, d + 1)
    edge = 1.0 / (d - 1)
    states[::2, -1] += 2.0 * edge
    states[1::4, -1] = edge
    states[3::8, -1] = np.nextafter(edge, 2.0)
    return states


@pytest.mark.parametrize(
    "phi,states",
    [
        # branches 0 and 1 coincide
        (
            FiniteBranch((lambda x: x / 2.0, lambda x: x / 2.0, lambda x: 0.3 * x + 0.7)),
            lambda rng: rng.uniform(-3.0, 3.0, (3000, 1)),
        ),
        (
            FiniteBranch((lambda x: -x, lambda x: np.where(x > 0.5, np.nan, x))),
            lambda rng: rng.uniform(-1.0, 1.0, (3000, 1)),
        ),
        # empty for |x| > 1
        (
            Interval1D(lambda x: x**2, lambda x: 1.0 + 0.0 * x, samples=7),
            lambda rng: rng.uniform(-1.5, 1.5, (3000, 1)),
        ),
    ]
    + [(TruncatedL2(d), lambda rng, d=d: _l2_states(d, rng)) for d in range(2, 9)],
    ids=["coinciding", "nan-map", "empty-interval"] + [f"l2-{d}" for d in range(2, 9)],
)
def test_child_is_the_expand_row(phi, states):
    rng = np.random.default_rng(5)
    states = states(rng)
    # three branches at or beyond fanout, and the edge branches in the first rows
    branch = rng.integers(0, phi.fanout + 3, states.shape[0])
    branch[:4] = [0, 1, phi.fanout - 1, phi.fanout]
    got = phi.child(states, branch)
    want = _expand_rows(phi, states, branch)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert np.isnan(got[branch >= phi.fanout]).all()
    assert not np.isnan(got[branch < phi.fanout]).all()


def test_nan_child_does_not_end_a_path():
    # branch 1 is NaN below 0.3: the path takes that child, and the next
    # step rejects its non-finite state, where a missing child would end it
    phi = FiniteBranch((lambda x: x / 2.0, lambda x: np.where(x < 0.3, np.nan, x / 2.0)))
    with pytest.raises(ValueError, match="finite"):
        feasible_path(phi, [1.0], 1, 6)


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
