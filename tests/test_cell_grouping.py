"""Grid-cell grouping of the cluster detector.

The n-D path groups window rows into cells with one stable lexsort and
the 1-D path reads its occupied cells off the sorted values. Both must
agree with the structured ``np.unique`` grouping they replace: the same
cell keys in the same lexicographic order, and the members of each cell
in ascending row order, which the d >= 4 anchor fallback reads through
``rows[0]``. Cluster points recorded before the change pin a 3-D levels
window and a 5-D window where that fallback decides."""

import numpy as np
import pytest

import turnlab.analysis as analysis
from turnlab.analysis import cluster_points, default_grid
from turnlab.ideals import IdealModel, burn_in
from turnlab.windows import SequenceWindow


def _reference_members(cells):
    keys, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(len(keys) + 1))
    return {
        tuple(int(c) for c in keys[k]): order[bounds[k] : bounds[k + 1]]
        for k in range(len(keys))
    }


def _lattice_window(seed):
    """Integer points in a small box, so most cells repeat many times."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 5
    n = int(rng.integers(200, 1500))
    return SequenceWindow(rng.integers(-1, 2, (n, d)).astype(float))


def _model(n):
    return IdealModel("density", n, threshold=0.01).at_horizon(n)


def _assert_same_groups(got, want):
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key], want[key])


@pytest.mark.parametrize("seed", range(15))
def test_cell_members_match_structured_unique(seed):
    window = _lattice_window(seed)
    start = burn_in(window.horizon)
    assert start > 0
    cells = (window.values[start:] - window.values.min(axis=0)).astype(np.int64)
    want = _reference_members(cells)
    assert max(len(rows) for rows in want.values()) > 1
    _assert_same_groups(analysis._cell_members(cells), want)


@pytest.mark.parametrize("seed", range(15))
def test_cell_stats_nd_match_structured_unique(seed, monkeypatch):
    window = _lattice_window(seed)
    model = _model(window.horizon)
    start = burn_in(window.horizon)
    got, _ = analysis._cell_stats_nd(window, model, 1.0, start)
    monkeypatch.setattr(analysis, "_cell_members", _reference_members)
    want, _ = analysis._cell_stats_nd(window, model, 1.0, start)
    assert got and list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key]["center"], want[key]["center"])
        assert got[key]["count"] == want[key]["count"]
        assert np.array_equal(got[key]["members"], want[key]["members"])


def _occupied_reference(window, eps):
    vals = window.scalars()
    lo = float(vals.min())
    n_cells = max(1, int(np.ceil((vals.max() - lo) / eps)))
    v = vals[burn_in(window.horizon) :]
    return np.unique(np.clip(((v - lo) / eps).astype(np.int64), 0, n_cells - 1))


def _one_d_windows():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(300, 3000))
        yield SequenceWindow(rng.choice(rng.normal(0, 1, 40), n)), None
    # the maximum sits exactly on the top cell edge and is clipped into
    # the last cell
    yield SequenceWindow(np.tile(np.arange(9) * 0.25, 50)), 0.25
    yield SequenceWindow(np.tile(np.linspace(-1.0, 1.0, 201), 20)), 0.01


@pytest.mark.parametrize("window, eps", list(_one_d_windows()))
def test_one_d_occupied_cells_match_unique(window, eps):
    eps = default_grid(window) if eps is None else eps
    want = _occupied_reference(window, eps)
    stats, _ = analysis._cell_stats_1d(
        window, _model(window.horizon), eps, burn_in(window.horizon)
    )
    assert list(stats) == [(int(c),) for c in want]


def test_top_edge_window_reaches_clipped_cell():
    window = SequenceWindow(np.tile(np.arange(9) * 0.25, 50))
    vals = window.scalars()
    assert (vals.max() - vals.min()) / 0.25 == 8.0
    assert _occupied_reference(window, 0.25)[-1] == 7


def _pinned_windows():
    """(name, window, eps_grid); None takes the default grid."""
    n = 3000
    k = np.arange(n)
    rng = np.random.default_rng(13)
    centers = np.array([[-0.5, 0.5, 0.1], [0.6, 0.2, -0.4], [0.0, -0.7, 0.8]])
    p = centers[k % 3] + rng.normal(0, 1e-3, (n, 3))
    noisy = rng.choice(n, 4, replace=False)
    p[noisy] = rng.uniform(-1, 1, (4, 3))
    yield "levels_3d", SequenceWindow(p), None
    # In five dimensions a point near a cell corner lies farther than eps
    # from every cell center, so candidates are anchored on each cell's
    # earliest post-burn-in visit. Cell 0 holds visits near two opposite
    # corners: the near-(1,1,1,1,1) visits come first and win the anchor.
    n = 3001
    k = np.arange(n)
    rng = np.random.default_rng(17)
    jitter = rng.uniform(0, 0.05, (n, 5))
    corners = np.array([[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [4, 1, 2, 0, 3], [1, 1, 1, 1, 1]], float)
    sign = np.array([1, -1, 1, -1])[k % 4, None]
    q = corners[k % 4] + sign * jitter
    q[0] = 0.0
    yield "corners_5d", SequenceWindow(q / 4), 0.25


def _models(n):
    return {
        "fin": IdealModel("fin", n, cutoff=400),
        "density": IdealModel("density", n, threshold=0.01),
        "finite_trace": IdealModel("finite_trace", n, cutoff=40, trace="evens"),
    }


_LEVELS_3D = [
    ["-0x1.000098bf201b3p-1", "0x1.000316af2b418p-1", "0x1.99cdb03baafb9p-4"],
    ["0x1.222800c5bf756p-16", "-0x1.6661db41caf5ap-1", "0x1.9997eb88de2c0p-1"],
    ["0x1.332d045754f1ep-1", "0x1.9987f833352e2p-3", "-0x1.999567721cb3cp-2"],
]
_CORNER_1 = [
    "0x1.f35961042e74dp-3",
    "0x1.f3612e19dff64p-3",
    "0x1.f3672dabca86ap-3",
    "0x1.f35424fe7e0a4p-3",
    "0x1.f330c1d69ebadp-3",
]
_CORNER_2 = [
    "0x1.01a808b4ed273p+0",
    "0x1.0634b75068b30p-2",
    "0x1.03161f694c228p-1",
    "0x1.a7acf83aefc8fp-8",
    "0x1.833c0f6b28507p-1",
]

RECORDED = {
    ("levels_3d", "fin"): [
        _LEVELS_3D[0],
        ["-0x1.821c48552a9a0p-5", "0x1.9c6182345823ep-1", "-0x1.98e91c07c4946p-1"],
        _LEVELS_3D[1],
        ["0x1.71de3474c5c00p-4", "0x1.72f9a129f0b38p-2", "0x1.b76157a875f80p-4"],
        _LEVELS_3D[2],
    ],
    ("levels_3d", "density"): _LEVELS_3D,
    ("levels_3d", "finite_trace"): _LEVELS_3D,
    ("corners_5d", "fin"): [_CORNER_1, _CORNER_2],
    ("corners_5d", "density"): [_CORNER_1, _CORNER_2],
    # the anchored corner of cell 0 carries odd indices only
    ("corners_5d", "finite_trace"): [_CORNER_2],
}

WINDOWS = {name: (w, eps) for name, w, eps in _pinned_windows()}


@pytest.mark.parametrize("name, kind", sorted(RECORDED))
def test_cluster_points_reproduce_recorded_values(name, kind):
    window, eps = WINDOWS[name]
    pts = cluster_points(window, _models(window.horizon)[kind], eps_grid=eps)
    want = np.array([[float.fromhex(v) for v in row] for row in RECORDED[name, kind]])
    assert pts.shape == want.shape
    assert np.array_equal(pts, want)


def test_corner_window_takes_the_anchor_fallback():
    window, eps = WINDOWS["corners_5d"]
    model = _models(window.horizon)["density"].at_horizon(window.horizon)
    stats, _ = analysis._cell_stats_nd(window, model, eps, burn_in(window.horizon))
    assert stats
    for s in stats.values():
        assert (window.values == s["center"]).all(axis=1).any()
