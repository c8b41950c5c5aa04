"""Cluster sets recorded before cluster positivity moved onto the
model's smallness budget; the counted-visit test must reproduce them bit
for bit. The windows cover the 1-D sorted path and the n-D grid path,
each ideal kind, and windows dense in an interval or a square, where
positivity never clears theta and the max-visit fallback decides."""

import numpy as np
import pytest

from turnlab.analysis import cluster_points
from turnlab.ideals import IdealModel
from turnlab.windows import SequenceWindow


def _windows():
    """(name, window, eps_grid); None takes the default grid."""
    n = 3000
    k = np.arange(n)
    rng = np.random.default_rng(7)
    v = np.array([-0.8, -0.1, 0.45, 0.9])[k % 4] + rng.normal(0, 1e-3, n)
    noisy = rng.choice(n, 6, replace=False)
    v[noisy] = rng.uniform(-1, 1, 6)
    yield "levels_1d", SequenceWindow(v), None
    # equidistributed in [0, 1): every ball holds about 2% of the visits
    yield "dense_1d", SequenceWindow((k * 0.6180339887498949) % 1.0), 0.01
    rng = np.random.default_rng(11)
    centers = np.array([[-0.5, 0.5], [0.6, 0.2], [0.0, -0.7]])
    p = centers[k % 3] + rng.normal(0, 1e-3, (n, 2))
    noisy = rng.choice(n, 4, replace=False)
    p[noisy] = rng.uniform(-1, 1, (4, 2))
    yield "levels_2d", SequenceWindow(p), None
    square = np.stack([(k * 0.7548776662466927) % 1.0, (k * 0.5698402909980532) % 1.0], axis=1)
    yield "dense_2d", SequenceWindow(square), 0.1


def _models(n):
    return {
        "fin": IdealModel("fin", n, cutoff=400),
        "density": IdealModel("density", n, threshold=0.01),
        "finite_trace": IdealModel("finite_trace", n, cutoff=40, trace="evens"),
    }


RECORDED = {
    ("levels_1d", "fin"): [
        ["-0x1.99969c5fc2e76p-1"],
        ["-0x1.73dfa5cc54770p-1"],
        ["-0x1.f9aba2ac53058p-2"],
        ["-0x1.99ecb03320edep-4"],
        ["0x1.881c8ef38f4f8p-2"],
        ["0x1.ccd9a412ab92bp-2"],
        ["0x1.3050e03478122p-1"],
        ["0x1.a464b77654798p-1"],
        ["0x1.ccc00ab98a3f1p-1"],
    ],
    ("levels_1d", "density"): [
        ["-0x1.99969c5fc2e76p-1"],
        ["-0x1.99ecb03320edep-4"],
        ["0x1.ccd9a412ab92bp-2"],
        ["0x1.ccc00ab98a3f1p-1"],
    ],
    ("levels_1d", "finite_trace"): [
        ["-0x1.99969c5fc2e76p-1"],
        ["0x1.ccd9a412ab92bp-2"],
    ],
    ("dense_1d", "fin"): [
        ["0x1.001b805ed9dd8p-1"],
    ],
    ("dense_1d", "density"): [
        ["0x1.1e2f5f0033911p-5"],
        ["0x1.33adbcab6d889p-4"],
        ["0x1.eba91eb9d974dp-4"],
        ["0x1.51d24064227cdp-3"],
        ["0x1.c2948c296001ep-3"],
        ["0x1.2e0c54841c255p-2"],
        ["0x1.8a61d7020df3cp-2"],
        ["0x1.e65f880943b89p-2"],
        ["0x1.02915efa8a737p-1"],
        ["0x1.1c2f4ef1580dep-1"],
        ["0x1.35c358f76703fp-1"],
        ["0x1.4a2e2774f2f55p-1"],
        ["0x1.5ebaf8bd1e549p-1"],
        ["0x1.7858e8b3ebe00p-1"],
        ["0x1.b84ef75690c23p-1"],
        ["0x1.d48282767faf1p-1"],
        ["0x1.f84af65674d49p-1"],
    ],
    ("dense_1d", "finite_trace"): [
        ["0x1.3d0da5a61aedep-3"],
        ["0x1.0f491e984ae91p-2"],
        ["0x1.c7f423942e977p-2"],
        ["0x1.0500c7c25601dp-1"],
        ["0x1.1c2f4ef1580dep-1"],
        ["0x1.3d7551e3120e8p-1"],
        ["0x1.5ebaf8bd1e549p-1"],
        ["0x1.7858e8b3ebe00p-1"],
        ["0x1.96f035e45f11ap-1"],
        ["0x1.bae4927fb220dp-1"],
        ["0x1.d1fc58ed8ac3cp-1"],
        ["0x1.f319cfa6f2e57p-1"],
    ],
    ("levels_2d", "fin"): [
        ["-0x1.ffea290eaa29cp-2", "0x1.000464dc65dfep-1"],
        ["0x1.44b5db408ab6ap-15", "-0x1.66641ed964f96p-1"],
        ["0x1.4c2b838722380p-5", "0x1.09ff95f3ba556p-1"],
        ["0x1.041efde0fa1d0p-3", "-0x1.9d1999ac02a3cp-2"],
        ["0x1.339d020efd7b0p-3", "-0x1.e9812a19ed1acp-2"],
        ["0x1.332ec08b839d2p-1", "0x1.998f0efc4ebaep-3"],
        ["0x1.d292fd4ec5332p-1", "0x1.dcc056027544cp-1"],
    ],
    ("levels_2d", "density"): [
        ["-0x1.ffea290eaa29cp-2", "0x1.000464dc65dfep-1"],
        ["0x1.44b5db408ab6ap-15", "-0x1.66641ed964f96p-1"],
        ["0x1.332ec08b839d2p-1", "0x1.998f0efc4ebaep-3"],
    ],
    ("levels_2d", "finite_trace"): [
        ["-0x1.ffea290eaa29cp-2", "0x1.000464dc65dfep-1"],
        ["0x1.44b5db408ab6ap-15", "-0x1.66641ed964f96p-1"],
        ["0x1.332ec08b839d2p-1", "0x1.998f0efc4ebaep-3"],
    ],
    ("dense_2d", "fin"): [
        ["0x1.ff8b3d3dec8bbp-2", "0x1.fff16bf0d338ep-2"],
    ],
    ("dense_2d", "density"): [
        ["0x1.b3cf230740e0dp-1", "0x1.b3698b92ee808p-1"],
    ],
    ("dense_2d", "finite_trace"): [
        ["0x1.fa62bc664d128p-2", "0x1.01dd7b5e26093p-1"],
    ],
}

WINDOWS = {name: (w, eps) for name, w, eps in _windows()}


@pytest.mark.parametrize("name, kind", sorted(RECORDED))
def test_cluster_points_reproduce_recorded_values(name, kind):
    window, eps = WINDOWS[name]
    pts = cluster_points(window, _models(window.horizon)[kind], eps_grid=eps)
    want = np.array([[float.fromhex(v) for v in row] for row in RECORDED[name, kind]])
    assert pts.shape == want.shape
    assert np.array_equal(pts, want)
