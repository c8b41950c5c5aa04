"""Pins for the batched fixed-point scan and continuity probe.

The fixed-point scan solves child_j(x) = x by branch-wise Newton; the
points below are the ones the earlier Nelder-Mead scan (seed 17)
returned, and each must still be found, at no larger residual. The
continuity probe expands each rung in chunks and computes exact
Hausdorff distances only where a matched-branch bound could beat the
best so far; every rung must equal the all-pairs loop bit for bit.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from turnlab.dynamics import (
    FIXED_POINT_TOL,
    FiniteBranch,
    Interval1D,
    TruncatedL2,
    _child_gaps,
    _ladder,
    _probe_points,
    continuity_probe,
    fixed_points,
)
from turnlab.geometry import _distance_matrix, hausdorff_distance
from turnlab.ideals import IdealModel
from turnlab.scenarios import (
    build_counterexample_system,
    build_ifs_system,
    build_l2_truncation,
    build_weak_separation_system,
)

FIN = IdealModel("fin", 200, cutoff=64)
SYSTEMS = {
    **{f"l2-{d}": (lambda d=d: build_l2_truncation(d, np.zeros(d), FIN)) for d in range(2, 9)},
    "counterexample": lambda: build_counterexample_system(FIN),
    "ifs": lambda: build_ifs_system([(0.5, 0.0), (0.3, 0.7)], FIN),
    "ifs3": lambda: build_ifs_system([(-0.6, 0.3), (0.45, -0.2), (0.8, 0.15)], FIN),
    "weak-separation": lambda: build_weak_separation_system(FIN),
}

# fixed_points(sys.phi, sys.box, seed=17) under the Nelder-Mead scan
NELDER_MEAD_POINTS = {
    "l2-2": [
        ("-0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
        ("-0x1.c71c71c732a73p-4", "-0x1.555555555a5ebp-2"),
        ("0x0.0p+0", "-0x1.eb851eb851eb8p-133"),
    ],
    "l2-3": [
        ("-0x1.ffffffffff846p-1", "-0x1.fffffffffd004p-1", "0x1.81d93c6831ed8p-44"),
        ("-0x1.71c71c71d601ap-2", "-0x1.5555555560ddap-2", "-0x1.0000000001aeep-1"),
        ("-0x1.000000000d0c5p-2", "-0x1.16022c2a6b4bep-42", "-0x1.0000000002da2p-1"),
        ("-0x1.1c71c71c9520cp-3", "-0x1.555555555e68ep-2", "-0x1.555555554ddbap-3"),
        ("-0x1.c71c71c702306p-4", "-0x1.555555554b1fep-2", "-0x1.d1ca4fb1f761bp-39"),
        ("-0x1.c71c71c71156cp-6", "-0x1.995a6fcdbc6d8p-40", "-0x1.555555556124ap-3"),
        ("-0x1.a058cfb2ffb50p-85", "-0x1.3d672a53458a8p-82", "-0x1.e690d0a1ffcccp-83"),
    ],
    "l2-4": [
        ("-0x1.000000000297cp+0", "-0x1.0000000001472p+0", "0x1.3a3a33f5bc57bp-41", "0x1.385dd3df5ec06p-40"),
        ("-0x1.e38e38e392321p-2", "-0x1.555555555317ep-2", "-0x1.0000000001ab9p-1", "-0x1.5555555550fa0p-2"),
        ("-0x1.7e6b74f02f05cp-2", "-0x1.55555555418a0p-2", "-0x1.0000000003682p-1", "-0x1.c71c71c743801p-4"),
        ("-0x1.71c71c71b804bp-2", "0x1.78131fbade8b5p-41", "-0x1.fffffffff9e24p-2", "-0x1.555555554c3a6p-2"),
        ("-0x1.0ca4587e74e88p-2", "-0x1.aaad7f5d579c0p-44", "-0x1.00000000063c9p-1", "-0x1.c71c71c6e2f10p-4"),
        ("-0x1.ffffffffd7f3ap-3", "0x1.72546021d79c8p-42", "-0x1.fffffffff1347p-2", "0x1.229f37b6e930fp-39"),
        ("-0x1.c71c71c7353aep-3", "-0x1.555555555675ap-2", "0x1.21131baa0a6afp-39", "-0x1.55555555598eap-2"),
        ("-0x1.35ba781941ebap-3", "-0x1.55555555518bap-2", "-0x1.555555553c0a2p-3", "-0x1.c71c71c7328a6p-4"),
        ("-0x1.1c71c71c62485p-3", "-0x1.0c8662637fdeap-39", "-0x1.555555556de08p-3", "-0x1.5555555557281p-2"),
        ("-0x1.1c71c71c5d5cep-3", "-0x1.5555555559d7ap-2", "-0x1.5555555562128p-3", "-0x1.80ba8349a2aa8p-39"),
        ("-0x1.48b0fcd6c02c8p-5", "-0x1.c0c0dbdab2f50p-45", "-0x1.555555553891fp-3", "-0x1.c71c71c71d96ap-4"),
        ("-0x1.c71c71c7a267cp-6", "0x1.b8c492db99d0cp-40", "-0x1.5555555573788p-3", "0x1.2a71ef89e1648p-39"),
        ("-0x1.8f043bb5e86ccp-127", "-0x1.5c28f5c28f5c2p-126", "-0x1.d4f5c28f5c28cp-128", "-0x1.b75c28f5c28f4p-126"),
    ],
    "l2-5": [
        ("0x0.0p+0", "-0x1.eb851eb851eb8p-133", "-0x1.3d70a3d70a3d7p-130", "-0x1.92c5f92c5f92cp-130", "-0x1.bd70a3d70a3d7p-130"),
    ],
    "l2-6": [
        ("0x0.0p+0", "-0x1.eb851eb851eb8p-133", "-0x1.3d70a3d70a3d7p-130", "-0x1.92c5f92c5f92cp-130", "-0x1.bd70a3d70a3d7p-130", "-0x1.d70a3d70a3d70p-130"),
    ],
    "l2-7": [
        ("0x0.0p+0", "-0x1.eb851eb851eb8p-133", "-0x1.3d70a3d70a3d7p-130", "-0x1.92c5f92c5f92cp-130", "-0x1.bd70a3d70a3d7p-130", "-0x1.d70a3d70a3d70p-130", "-0x1.e81b4e81b4e82p-130"),
    ],
    "l2-8": [
        ("0x0.0p+0", "-0x1.eb851eb851eb8p-133", "-0x1.3d70a3d70a3d7p-130", "-0x1.92c5f92c5f92cp-130", "-0x1.bd70a3d70a3d7p-130", "-0x1.d70a3d70a3d70p-130", "-0x1.e81b4e81b4e82p-130", "-0x1.f44c118de5ab2p-130"),
    ],
    "counterexample": [
        ("0x0.0p+0",),
    ],
    "ifs": [
        ("0x0.0p+0",),
        ("0x1.0000000000000p+0",),
    ],
    "ifs3": [
        ("-0x1.745d1745d1746p-2",),
        ("0x1.8000000000000p-3",),
        ("0x1.8000000000001p-1",),
    ],
    "weak-separation": [
        ("0x0.0p+0",),
    ],
}


def _gap(phi, x):
    return _child_gaps(phi, x[None, :], x[None, :])[0]


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_fixed_points_keep_every_nelder_mead_point(name):
    sys_inst = SYSTEMS[name]()
    got = fixed_points(sys_inst.phi, sys_inst.box, seed=17)
    assert np.all(_child_gaps(sys_inst.phi, got, got) <= FIXED_POINT_TOL)
    for row in NELDER_MEAD_POINTS[name]:
        old = np.array([float.fromhex(v) for v in row])
        dist = np.sqrt(((got - old) ** 2).sum(axis=1))
        j = int(np.argmin(dist))
        assert dist[j] <= 10 * FIXED_POINT_TOL
        assert _gap(sys_inst.phi, got[j]) <= _gap(sys_inst.phi, old)


@pytest.mark.parametrize("box", [[[-1.5, 1.5]], [[-1.0, 1.0]]])
def test_fixed_points_skip_states_with_empty_images(box):
    # Phi(x) = [x^2, 1] is empty for |x| > 1; fixed points solve
    # x = x^2 + t (1 - x^2) for the sample fractions t = k / 6
    iv = Interval1D(lambda x: x**2, lambda x: 1.0 + 0.0 * x, samples=7)
    assert iv.expand(np.array([[1.05]]))[0].shape[0] == 0
    got = fixed_points(iv, box)
    assert np.all(_child_gaps(iv, got, got) <= FIXED_POINT_TOL)
    for want in (0.0, 0.2, 0.5, 1.0):
        assert np.abs(got[:, 0] - want).min() <= 1e-6


def _probe_reference(phi, box, samples, seed):
    """The all-pairs probe: one image per point and one Hausdorff
    distance per (probe point, direction) pair, empty images skipped."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    d = box.shape[0]
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        # the first min(2d, 6) axis moves, then one direction r from seed + 1 and -r
        r = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, d)
        r /= np.sqrt((r**2).sum())
        axes = np.concatenate([np.eye(d), -np.eye(d)], axis=0)
        dirs = np.concatenate([axes[: min(2 * d, 6)], [r, -r]], axis=0)

    def image(x):
        children = phi.expand(x[None, :])[0]
        return children if children.shape[0] else None

    bases = [(x, image(x)) for x in _probe_points(box, samples, seed)]
    out = []
    for delta in _ladder(box):
        worst = 0.0
        for x, base in bases:
            for v in dirs if base is not None else ():
                moved = image(x + delta * v)
                if moved is not None:
                    worst = max(worst, hausdorff_distance(base, moved) / delta)
        out.append(worst)
    return out


PROBE_CASES = {
    "l2-3": (TruncatedL2(3), build_l2_truncation(3, np.zeros(3), FIN).box, 64),
    "l2-8": (TruncatedL2(8), build_l2_truncation(8, np.zeros(8), FIN).box, 48),
    # x_1 and x_2 cross 1/i: some base and moved images differ in count
    "l2-crossing": (TruncatedL2(3), [[-0.5, 0.5], [0.6, 1.4], [0.2, 0.8]], 64),
    "flip-or-halve": (FiniteBranch((lambda x: -x, lambda x: x / 2.0), dim=1), [[-2.0, 2.0]], 64),
    "jump": (FiniteBranch((lambda x: np.where(x >= 0, 1.0, -1.0),), dim=1), [[-1.0, 1.0]], 64),
    "empty-interval": (
        Interval1D(lambda x: x**2, lambda x: 1.0 + 0.0 * x, samples=7),
        [[-1.5, 1.5]],
        41,
    ),
}


@pytest.mark.parametrize("name", list(PROBE_CASES))
def test_continuity_probe_rungs_equal_all_pairs_reference(name):
    phi, box, samples = PROBE_CASES[name]
    for seed in (0, 3):
        rep = continuity_probe(phi, box, samples=samples, seed=seed)
        assert [r["max_ratio"] for r in rep.rungs] == _probe_reference(phi, box, samples, seed)


def test_distance_matrix_equals_cdist():
    rng = np.random.default_rng(11)
    for trial in range(96):
        d = 1 + trial % 8
        m, n = rng.integers(1, 40, size=2)
        a = rng.normal(size=(m, d)) * rng.uniform(0.01, 100.0)
        b = rng.normal(size=(n, d))
        b[: min(m, n) // 3] = a[: min(m, n) // 3]
        assert np.array_equal(_distance_matrix(a, b), cdist(a, b))
