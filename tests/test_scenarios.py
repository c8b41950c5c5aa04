import math

import numpy as np
import pytest

from turnlab import dynamics
from turnlab.dynamics import feasibility_check, feasible_path, fixed_points
from turnlab.ideals import IdealModel
from turnlab.scenarios import (
    block_sequence_length,
    build_block_sequence,
    build_counterexample_system,
    build_ifs_system,
    build_l2_truncation,
    l2_start,
)


def test_counterexample_profile():
    sys_inst = build_counterexample_system(IdealModel("density", 1024))
    pts = fixed_points(sys_inst.phi, sys_inst.box)
    assert pts.shape == (1, 1) and abs(pts[0, 0]) <= 1e-8
    # upper level set contains the positive half line
    assert sys_inst.utilities(np.array([[0.5]]))[0] >= sys_inst.utilities(np.array([[0.0]]))[0]
    # claimed stationary point was validated at construction
    assert sys_inst.eta_star[0] == 0.0
    assert feasibility_check(sys_inst.reference_path, sys_inst.phi)["feasible"]


def test_reference_path_is_built_on_first_use(monkeypatch):
    built = []
    eager = dynamics.feasible_path

    def counting(*args):
        built.append(args)
        return eager(*args)

    monkeypatch.setattr(dynamics, "feasible_path", counting)
    sys_inst = build_ifs_system([(0.5, 0.0), (0.3, 0.7)], IdealModel("fin", 256))
    assert built == []
    ref = sys_inst.reference_path
    assert sys_inst.reference_path is ref and len(built) == 1
    # the orbit of the branch with the largest fixed point, 512 points long
    want = feasible_path(sys_inst.phi, [0.0], 1, 512)
    assert ref.points.tobytes() == want.points.tobytes() and ref.trace == want.trace


def test_block_lengths():
    assert block_sequence_length(1) == 2
    assert block_sequence_length(2) == 7  # |B1| = 2, |B2| = 5
    assert block_sequence_length(10) == 4_038_013
    w = build_block_sequence(4)
    assert w.horizon == block_sequence_length(4)


def test_block_structure_small():
    w = build_block_sequence(2)
    np.testing.assert_allclose(
        w.scalars(), [1.0, -0.5, 1.0, -0.5, 0.25, -0.25, 0.5]
    )


def test_block_extremes_exact():
    # both signed extremes appear once a block starts at an odd index,
    # which happens from the third block on
    for k_max in (3, 5, 8):
        vals = build_block_sequence(k_max).scalars()
        assert vals.min() == -1.0 and vals.max() == 1.0


def test_block_feasibility_under_interval_dynamics():
    vals = build_block_sequence(6).scalars()
    ratio = -vals[1:] / vals[:-1]
    assert np.all(ratio >= 0.5) and np.all(ratio <= 2.0)


def _concatenated_block_sequence(k_max):
    """The block sequence as the concatenation of its parts, signed by
    an alternating sign array (the earlier builder)."""
    parts = []
    for k in range(1, k_max + 1):
        down = 0.5 ** np.arange(0, k)
        mid = np.full(math.factorial(k), 0.5**k)
        up = 0.5 ** np.arange(k - 1, 0, -1)
        parts.extend([down, mid, up])
    z = np.concatenate(parts)
    return np.where(np.arange(z.size) % 2 == 0, 1.0, -1.0) * z


@pytest.mark.parametrize("k_max", range(2, 11))
def test_block_builder_matches_concatenation(k_max):
    got = build_block_sequence(k_max).scalars()
    assert np.array_equal(got, _concatenated_block_sequence(k_max))


def test_block_range_guard():
    with pytest.raises(ValueError):
        build_block_sequence(1)
    with pytest.raises(ValueError):
        build_block_sequence(13)


def test_block_deviation_count_by_direct_count():
    # deviations from 0 at scale 0.1 are the ramp entries >= 0.1 plus the
    # flat middles of the first three blocks; count them directly
    k_max = 8
    vals = build_block_sequence(k_max).scalars()
    observed = int((np.abs(vals) >= 0.1).sum())
    expected = 0
    for k in range(1, k_max + 1):
        ramp = [0.5**j for j in range(k)] + [0.5**j for j in range(k - 1, 0, -1)]
        expected += sum(1 for v in ramp if v >= 0.1)
        if 0.5**k >= 0.1:
            expected += math.factorial(k)
    assert observed == expected


def test_ifs_builder_eta_star():
    assert build_ifs_system(
        [(0.5, 0.0), (0.3, 0.7)], IdealModel("fin", 256)
    ).eta_star[0] == pytest.approx(1.0)
    assert build_ifs_system([(0.5, 0.0)], IdealModel("fin", 256)).eta_star[0] == 0.0
    assert build_ifs_system(
        [(0.9, -0.1), (0.2, 0.4)], IdealModel("fin", 256)
    ).eta_star[0] == pytest.approx(0.5)


def test_ifs_rejects_expansion():
    with pytest.raises(ValueError, match="contraction"):
        build_ifs_system([(1.0, 0.0)], IdealModel("fin", 256))


def test_l2_origin_is_stationary():
    sys_inst = build_l2_truncation(4, np.zeros(4), IdealModel("density", 256))
    imgs = sys_inst.phi.images(np.zeros(4))
    assert np.sqrt(((imgs - 0.0) ** 2).sum(axis=1)).min() == 0.0


def test_l2_fixed_point_scan_finds_origin():
    sys_inst = build_l2_truncation(4, np.zeros(4), IdealModel("density", 256))
    box = np.tile(np.array([-0.4, 0.15]), (4, 1))
    pts = fixed_points(sys_inst.phi, box)
    assert pts.shape[0] >= 1
    assert np.sqrt((pts**2).sum(axis=1)).min() <= 1e-7


def test_l2_reference_path_converges_classically():
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.3, 0.3, 8)
    sys_inst = build_l2_truncation(8, x, IdealModel("density", 256))
    ref = sys_inst.reference_path
    assert np.abs(ref.points[-1]).max() < 1e-12
    np.testing.assert_allclose(ref.points[1], x / 2.0)


def test_l2_band_separation_inequality():
    # for x in the upper level set with positive first coordinate, every
    # band image point satisfies T y = -sum(x_i^2) < x_0 = T x
    rng = np.random.default_rng(3)
    sys_inst = build_l2_truncation(6, np.zeros(6), IdealModel("density", 256))
    for _ in range(50):
        x = rng.uniform(-0.4, 0.4, 6)
        x[0] = abs(x[0]) + 1e-6
        imgs = sys_inst.phi.images(x)
        band = imgs[1:]  # halving branch listed first
        if band.size:
            assert np.all(band[:, 0] < x[0])


def test_l2_dimension_guard():
    with pytest.raises(ValueError):
        build_l2_truncation(1, np.zeros(1), IdealModel("density", 256))
    with pytest.raises(ValueError):
        build_l2_truncation(9, np.zeros(9), IdealModel("density", 256))
    # the start point is checked before anything is drawn, so a huge d fails at once
    for d in (-1, 1, 9, 10**12):
        with pytest.raises(ValueError, match=r"truncation dimension must lie in \[2, 8\]"):
            l2_start(d, 0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        l2_start(8, -1)


@pytest.mark.parametrize("d", range(2, 9))
def test_l2_start_matches_numpy_default_rng(d):
    # numpy's generator stays the reference for the transcribed draw; a seed
    # past 2**128 has more 32-bit words than SeedSequence's pool of four
    seeds = [*range(1000), 2**32, 2**64 - 1, 2**70 + 3, 123456789012345678901234567890, 2**160 + 5]
    for seed in seeds:
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, d)
        want *= 0.9 / max(1.0, float(np.sqrt((want**2).sum())))
        assert l2_start(d, seed).tobytes() == want.tobytes(), seed
