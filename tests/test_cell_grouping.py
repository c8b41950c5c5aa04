"""Grid-cell grouping, the neighbour index and the candidate grid of the
cluster detector.

The n-D path groups window rows into cells with one stable lexsort and
the 1-D path reads its occupied cells off the sorted values. Both must
agree with the structured ``np.unique`` grouping they replace: the same
cell keys in the same lexicographic order, and the members of each cell
in ascending row order. A brute-force detector, every occupied candidate
against every point, must give the cluster points bit for bit in d = 1..6.
Cluster points recorded earlier pin a 3-D levels window and a 5-D window
whose candidates are sub-cells of side eps/2."""

import time

import numpy as np
import pytest

import turnlab.analysis as analysis
from turnlab.analysis import DEFAULT_POSITIVITY, cluster_points, default_grid
from turnlab.ideals import IdealModel, burn_in, parse_ideal_spec
from turnlab.windows import SequenceWindow


def _reference_groups(cells):
    keys, inverse = np.unique(cells, axis=0, return_inverse=True)
    order = np.argsort(inverse.reshape(-1), kind="stable")
    bounds = np.searchsorted(inverse.reshape(-1)[order], np.arange(len(keys) + 1))
    return order, bounds, keys


def _lattice_window(seed):
    """Integer points in a small box, so most cells repeat many times."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 5
    n = int(rng.integers(200, 1500))
    return SequenceWindow(rng.integers(-1, 2, (n, d)).astype(float))


def _model(n):
    return IdealModel("density", n, threshold=0.01).at_horizon(n)


@pytest.mark.parametrize("seed", range(15))
def test_cell_members_match_structured_unique(seed):
    window = _lattice_window(seed)
    start = burn_in(window.horizon)
    assert start > 0
    cells = (window.values[start:] - window.values.min(axis=0)).astype(np.int64)
    got, want = analysis._group_rows(cells), _reference_groups(cells)
    assert np.diff(want[1]).max() > 1
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("seed", range(15))
def test_cell_stats_nd_match_structured_unique(seed, monkeypatch):
    window = _lattice_window(seed)
    model = _model(window.horizon)
    start = burn_in(window.horizon)
    got = analysis._cell_stats_nd(window, model, 1.0, start)
    monkeypatch.setattr(analysis, "_group_rows", _reference_groups)
    want = analysis._cell_stats_nd(window, model, 1.0, start)
    assert len(got[0]) and np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    every = np.arange(len(got[0]))  # each cell its own component: its ball's rows
    balls = zip(got[2](every, every), want[2](every, every), strict=True)
    assert all(np.array_equal(g, w) for g, w in balls)


def _key_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(-5, 6, (n, d)), axis=0)


def _all_neighbours(keys, reach, limit=np.inf):
    batches = list(analysis._neighbours(keys, reach, limit=limit))
    return [np.concatenate(side) for side in zip(*batches)]


@pytest.mark.parametrize("span", [1 << 16, 7], ids=["one-batch", "batches-of-7"])
@pytest.mark.parametrize("far", [False, True], ids=["box", "far-row"])
@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("reach", [1, 2])
def test_neighbours_match_all_pairs(d, reach, far, span, monkeypatch):
    monkeypatch.setattr(analysis, "PAIR_SPAN", span)
    keys = _key_rows(300, d, d + 10 * reach)
    if far:  # key spans whose mixed-radix code would overflow int64 past one column
        keys = np.unique(np.vstack([keys, np.full((1, d), 2**40)]), axis=0)
    gap = np.abs(keys[:, None] - keys[None])
    # the gather's limit keeps the cells that come within reach cells of the
    # key cell's centre
    spent = (np.maximum(2 * gap - 1, 0) ** 2).sum(axis=2)
    for limit in (np.inf, 4 * reach * reach):
        i, j = _all_neighbours(keys, reach, limit)
        assert (np.diff(i) >= 0).all()
        by_pair = np.lexsort((j, i))
        want_i, want_j = np.nonzero((gap.max(axis=2) <= reach) & (spent <= limit))
        assert np.array_equal(i[by_pair], want_i) and np.array_equal(j[by_pair], want_j)


def _linked_least(n, i, j):
    """Each node's least linked node, by transitive closure of the edges."""
    linked = np.eye(n, dtype=int)
    linked[i, j] = linked[j, i] = 1
    while not np.array_equal(wider := (linked @ linked > 0).astype(int), linked):
        linked = wider
    return linked.argmax(axis=1)


@pytest.mark.parametrize("seed", range(8))
def test_components_match_transitive_closure(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    i, j = rng.integers(0, n, (2, int(rng.integers(0, 2 * n))))
    batches = [(i[k : k + 7], j[k : k + 7]) for k in range(0, len(i), 7)]
    assert np.array_equal(analysis._components(batches, n), _linked_least(n, i, j))


def test_components_of_a_long_path():
    # one batch hooks every node onto its predecessor: a chain of depth n
    n = 5000
    steps = np.arange(n - 1)
    assert not analysis._components([(steps + 1, steps)], n).any()


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
    keys, _, _ = analysis._cell_stats_1d(
        window, _model(window.horizon), eps, burn_in(window.horizon)
    )
    assert keys.tolist() == [[int(c)] for c in want]


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
    # from every cell center, so candidates are sub-cells of side eps/2.
    # Cell 0 holds visits near two opposite corners, which fall in
    # adjacent sub-cells and merge under fin and density; under
    # finite_trace the near-(1,1,1,1,1) corner carries odd indices only.
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
_CORNERS_01 = [
    "0x1.510cff3f0423ep-3",
    "0x1.5117524d2d5c5p-3",
    "0x1.51248afae1a15p-3",
    "0x1.512828d9aeebep-3",
    "0x1.50e31f4712927p-3",
]
_CORNER_0 = [
    "0x1.959376a99d541p-8",
    "0x1.977f3a808499ep-8",
    "0x1.9af446e005863p-8",
    "0x1.a110a9fb58fb5p-8",
    "0x1.90075300a6bdap-8",
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
    ("corners_5d", "fin"): [_CORNERS_01, _CORNER_2],
    ("corners_5d", "density"): [_CORNERS_01, _CORNER_2],
    ("corners_5d", "finite_trace"): [_CORNER_0, _CORNER_2],
}

WINDOWS = {name: (w, eps) for name, w, eps in _pinned_windows()}


@pytest.mark.parametrize("name, kind", sorted(RECORDED))
def test_cluster_points_reproduce_recorded_values(name, kind):
    window, eps = WINDOWS[name]
    pts = cluster_points(window, _models(window.horizon)[kind], eps_grid=eps)
    want = np.array([[float.fromhex(v) for v in row] for row in RECORDED[name, kind]])
    assert pts.shape == want.shape
    assert np.array_equal(pts, want)


def test_five_d_vertex_clusters_are_both_reported():
    # each point sits within 1e-3 of a grid vertex (0.5 or 3 per axis,
    # lo = 0, eps = 1), farther than eps from every eps-cell center; the
    # sub-cell centers of side 1/2 lie within 0.56 of it
    n = 2001
    rng = np.random.default_rng(3)
    q = np.where(np.arange(n)[:, None] % 2 == 0, 0.5, 3.0) + rng.uniform(-1e-3, 1e-3, (n, 5))
    q[0] = 0.0
    window = SequenceWindow(q)
    for kind in ("fin", "density"):
        pts = cluster_points(window, _models(n)[kind], eps_grid=1.0)
        assert pts.shape == (2, 5)
        assert np.abs(pts - [[0.5] * 5, [3.0] * 5]).max() < 1e-3


def _brute_force_clusters(window, model, eps, theta=DEFAULT_POSITIVITY):
    """Every occupied candidate against every post-burn-in point: the
    counted points nearer than eps to its centre (1-D: strictly between
    centre -/+ eps), components of Chebyshev-adjacent qualifying keys, and
    each component's members (1-D: the sorted values of its cells; n-D:
    the union of its balls in row order) averaged."""
    n, d = window.values.shape
    model = model.at_horizon(n)
    start = burn_in(n)
    pts, lo = window.values[start:], window.values.min(axis=0)
    side = eps / (int(np.sqrt(d) / 2) + 1)
    if d == 1:
        n_cells = max(1, int(np.ceil((window.values.max() - lo[0]) / eps)))
        cells = np.clip(np.trunc((pts - lo) / eps), 0, n_cells - 1).astype(np.int64)
    else:
        cells = ((pts - lo) / side).astype(np.int64)
    keys = np.unique(cells, axis=0)
    centers = lo + (keys + 0.5) * side
    if d == 1:
        c, v = centers, pts[:, 0]
        near = (v > c - eps) & (v < c + eps)
    else:
        near = np.sqrt(((centers[:, None] - pts[None]) ** 2).sum(axis=2)) < eps
    counts = (near & model.counted(np.arange(start, n))).sum(axis=1)
    qual = np.flatnonzero(counts > model.budget(theta))
    if not qual.size:
        qual = np.flatnonzero(counts == counts.max())
    linked = np.abs(keys[qual][:, None] - keys[qual][None]).max(axis=2) <= 1
    while True:
        wider = (linked.astype(int) @ linked.astype(int)) > 0
        if np.array_equal(wider, linked):
            break
        linked = wider
    out = []
    for first in np.unique(linked.argmax(axis=1)):
        comp = qual[linked[first]]
        if d == 1:
            sv = np.sort(pts, axis=0)
            top = keys[comp].max() + 1
            inside = sv[:, 0] >= lo[0] + keys[comp].min() * eps
            if top < n_cells:
                inside &= sv[:, 0] < lo[0] + top * eps
            members = sv[inside]
        else:
            members = pts[near[comp].any(axis=0)]
        centroid = members.mean(axis=0)
        dist = np.sqrt(((members - centroid) ** 2).sum(axis=1))
        out.append(centroid if dist.min() < eps else members[dist.argmin()])
    out = np.array(out)
    return out[np.lexsort(out.T[::-1])]


def _anisotropic_window(n, d, seed):
    """Uniform in [0, 1]^(d-1) x [0, 100]: at eps 0.5 the sub-cell keys take
    four values in the leading columns and 400 in the last."""
    p = np.random.default_rng(seed).uniform(0, 1, (n, d))
    p[:, -1] *= 100
    return SequenceWindow(p)


def _brute_force_windows():
    """(name, window, eps_grid) in d = 1..6: noisy levels, lattices on
    cell corners, uniform scatter and, from d = 4, anisotropic scatter."""
    for d in range(1, 7):
        rng = np.random.default_rng(40 + d)
        n = 900
        levels = rng.uniform(-1, 1, (4, d))
        p = levels[np.arange(n) % 4] + rng.normal(0, 0.02, (n, d))
        p[rng.choice(n, 30, replace=False)] = rng.uniform(-1, 1, (30, d))
        yield f"levels-{d}d", SequenceWindow(p), 0.1
        yield f"lattice-{d}d", SequenceWindow(rng.integers(-1, 2, (n, d)).astype(float)), 1.0
        yield f"scatter-{d}d", SequenceWindow(rng.uniform(-1, 1, (600, d))), None
        if d >= 4:
            yield f"anisotropic-{d}d", _anisotropic_window(600, d, 40 + d), 0.5


@pytest.mark.parametrize("name, window, eps", list(_brute_force_windows()))
def test_cluster_points_match_brute_force(name, window, eps):
    eps = default_grid(window) if eps is None else eps
    for model in _models(window.horizon).values():
        got = cluster_points(window, model, eps_grid=eps)
        want = _brute_force_clusters(window, model, eps)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_high_dim_lattice_windows_are_fast():
    # integer lattices at eps 1 put every point on a cell corner, and a cell
    # has 3^d neighbour offsets in d = 6..8, few of them occupied
    windows = [
        SequenceWindow(np.random.default_rng(d).integers(-1, 2, (n, d)).astype(float))
        for d, n in ((6, 1000), (7, 300), (8, 200))
    ]
    start = time.perf_counter()
    for window in windows:
        assert len(cluster_points(window, parse_ideal_spec("fin", window.horizon), eps_grid=1.0))
    assert time.perf_counter() - start < 0.5


def test_anisotropic_windows_are_fast():
    # narrow leading coordinates share few key values; a neighbour index keyed
    # on them would pair most of the ~10^4-10^5 candidates with each other
    start = time.perf_counter()
    for d in (4, 5):
        window = _anisotropic_window(20_000, d, d)
        pts = cluster_points(window, parse_ideal_spec("density:0.01", window.horizon))
        assert len(pts) and (pts >= 0).all() and (pts[:, -1] <= 100).all()
    assert time.perf_counter() - start < 3.0
