"""Distance consumers of Phi read batched ``expand`` output; these tests
pin that the results are the same bits as through the per-point
``images()`` path, and that the batched band expansion of the l2
truncation reproduces the per-state construction exactly."""

import itertools

import numpy as np
import pytest

import turnlab.geometry as geometry

from turnlab.dynamics import (
    FiniteBranch,
    Interval1D,
    TruncatedL2,
    _child_gaps,
    continuity_probe,
    fixed_points,
)
from turnlab.geometry import (
    _distance_matrix,
    _nearest,
    directed_hausdorff,
    hausdorff_distance,
    min_distance,
)
from turnlab.ideals import IdealModel
from turnlab.scenarios import build_counterexample_system, build_ifs_system, build_l2_truncation


def _h(*values):
    return [float.fromhex(v) for v in values]


def _l2_reference(phi: TruncatedL2, x: np.ndarray):
    """Per-state loop construction of one l2 image sample: the halving
    point, then the band block when every coordinate interval is
    nonempty."""
    d = phi.dim
    grid = np.linspace(0.0, 1.0, phi.band_samples)
    frac = np.array(np.meshgrid(*[grid] * (d - 1), indexing="ij")).reshape(d - 1, -1).T
    lo = 2.0 * x[1:]
    hi = x[1:] + 1.0 / np.arange(1, d)
    rows = [x / 2.0]
    if np.all(lo <= hi):
        for f in frac:
            row = np.empty(d)
            row[0] = -(x[1:] ** 2).sum()
            row[1:] = lo + f * (hi - lo)
            rows.append(row)
    return np.array(rows)


def _l2_batch(d: int, seed: int) -> np.ndarray:
    """States inside and outside the band-emptiness boundary x_i = 1/i."""
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.0, 1.0, (12, d))
    states[0::3, 1:] *= 0.5 / np.arange(1, d)  # band set nonempty
    states[1::3, 1:] = 1.0 / np.arange(1, d) + 0.5  # band set empty
    states[2::3, -1] = 1.0 / (d - 1)  # boundary: lo == hi on the last coordinate
    return states


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_l2_batch_expand_equals_row_by_row(d):
    phi = TruncatedL2(dim=d)
    states = _l2_batch(d, seed=d)
    children, parents, branches = phi.expand(states)
    rows = [phi.expand(x[None, :]) for x in states]
    assert np.array_equal(children, np.concatenate([r[0] for r in rows]))
    assert np.array_equal(parents, np.concatenate([np.full(r[1].size, i) for i, r in enumerate(rows)]))
    assert np.array_equal(branches, np.concatenate([r[2] for r in rows]))
    assert parents.dtype == branches.dtype == np.int64
    sizes = np.bincount(parents, minlength=states.shape[0])
    assert sizes.min() == 1 and sizes.max() > 1  # the batch mixes both kinds
    for i, x in enumerate(states):
        assert np.array_equal(children[parents == i], _l2_reference(phi, x))
        assert np.array_equal(branches[parents == i], np.arange(sizes[i]))


RESIDUAL_CASES = [
    (FiniteBranch((lambda x: -x, lambda x: x / 2.0), dim=1), [[0.0], [1.0], [-0.37]]),
    # Phi(0) = {0} nine times over
    (Interval1D(lambda x: -2.0 * x, lambda x: 0.0 * x, samples=9), [[0.0], [0.25], [1.5]]),
    (TruncatedL2(dim=4), list(_l2_batch(4, seed=1))),
]


@pytest.mark.parametrize("phi, points", RESIDUAL_CASES, ids=["finite", "interval", "l2"])
def test_residual_equals_dedup_min_distance(phi, points):
    for x in points:
        x = np.asarray(x, dtype=float)
        assert _child_gaps(phi, x[None, :], x[None, :])[0] == min_distance(x, phi.images(x))[0]


def test_hausdorff_is_larger_directed_distance(monkeypatch):
    # the nearest-point kernel gives the bits of the full distance matrix
    # from row blocks in every dimension (a 50-pair budget puts block seams
    # every few rows); rounding makes ties, and squared
    # differences go subnormal at the 1e-161 scale and to zero at 1e-170
    rng = np.random.default_rng(5)
    shapes = [(1, 1, 1), (3, 17, 1), (33, 9, 2), (129, 129, 8), (40, 5, 3), (200, 90, 1)]
    for block, (m, n, d), scale, ties in itertools.product(
        (geometry._BLOCK_PAIRS, 50), shapes, (1.0, 1e-161, 1e-170), (False, True)
    ):
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block)
        a = rng.normal(size=(m, d))
        b = rng.normal(size=(n, d))
        if ties:
            a, b = np.round(4.0 * a) / 4.0, np.round(4.0 * b) / 4.0
        a, b = scale * a, scale * b
        b[: min(m, n) // 2] = a[: min(m, n) // 2]  # shared and duplicate rows
        full = _distance_matrix(a, b)
        assert np.array_equal(_nearest(a, b), full.min(axis=1))
        assert np.array_equal(_nearest(b, a), full.min(axis=0))
        want = max(directed_hausdorff(a, b), directed_hausdorff(b, a))
        assert want == max(full.min(axis=1).max(), full.min(axis=0).max())
        assert hausdorff_distance(a, b) == want
        assert hausdorff_distance(b, a) == want
        dup = np.concatenate([a, a[::2]])
        assert hausdorff_distance(dup, b) == want


def test_fixed_points_reproduce_recorded_values():
    ce = build_counterexample_system(IdealModel("density", 4096))
    for seed in (0, 17):
        assert fixed_points(ce.phi, ce.box, seed=seed).tolist() == [[0.0]]
    fin = IdealModel("fin", 200, cutoff=64)
    ifs = build_ifs_system([(0.5, 0.0), (0.3, 0.7)], fin)
    for seed in (0, 17):
        assert fixed_points(ifs.phi, ifs.box, seed=seed).tolist() == [[0.0], [1.0]]
    ifs3 = build_ifs_system([(-0.6, 0.3), (0.45, -0.2), (0.8, 0.15)], fin)
    got = fixed_points(ifs3.phi, ifs3.box, seed=17).ravel().tolist()
    assert got == _h("-0x1.745d1745d1746p-2", "0x1.8000000000000p-3", "0x1.8000000000001p-1")


def test_continuity_probe_reproduces_recorded_rungs():
    l2 = build_l2_truncation(3, np.array([0.3, -0.2, 0.1]), IdealModel("density", 4096))
    rep = continuity_probe(l2.phi, l2.box, samples=32, seed=3)
    assert [r["max_ratio"] for r in rep.rungs] == _h(
        "0x1.7333333333339p+1", "0x1.6e97932b82e0ap+1", "0x1.6c4ef5f90c003p+1", "0x1.6b2bfb6ad1ee3p+1"
    )
    assert rep.growth == float.fromhex("0x1.f4ed3778daefcp-1") and rep.passed
    # empty images for |x| > 1: those probes and perturbations are skipped
    iv = Interval1D(lambda x: x**2, lambda x: 1.0 + 0.0 * x, samples=7)
    rep = continuity_probe(iv, [[-1.5, 1.5]], samples=41, seed=2)
    assert [r["max_ratio"] for r in rep.rungs] == _h(
        "0x1.ccccccccccccep+0", "0x1.dfffffffffffap+0", "0x1.e999999999993p+0", "0x1.f800000000010p+0"
    )
    assert rep.growth == float.fromhex("0x1.1800000000008p+0") and rep.passed
