"""The kernels under the condition battery against their reference forms:
``_dedup_rows`` against ``np.unique(axis=0)``, ``TruncatedL2.expand``
against its elementwise formula, witness re-verification on the raw
refined image against the deduplicated one, and the continuity probe on a
correspondence whose every image is empty."""

import itertools

import numpy as np
import pytest

from test_separation_audit import PLAN, SYSTEMS, _l2
from turnlab import verifier
from turnlab.dynamics import Interval1D, TruncatedL2, _dedup_rows, continuity_probe
from turnlab.verifier import _first_witness, _refined_images, _separation_audit

POOL = np.array([0.0, -0.0, 1.0, -2.5, np.nan, np.inf, -np.inf, 5e-324, -5e-324])


@pytest.mark.parametrize("cols", [1, 2, 3, 8])
def test_dedup_rows_matches_unique_first_occurrences(cols):
    rng = np.random.default_rng(cols)
    for n in (0, 1, 2, 3, 17, 200):
        a = POOL[rng.integers(0, POOL.size, (n, cols))]
        if n <= 1:
            want = a
        else:
            _, first = np.unique(a, axis=0, return_index=True)
            want = a[np.sort(first)]
        got = _dedup_rows(a)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit: -0.0 and NaN kept


def test_dedup_rows_by_keys_keeps_first_rows():
    a = np.array([[0.1], [0.30000001], [0.1000001], [0.3]])
    keys = np.round(a / 1e-3).astype(np.int64)
    np.testing.assert_array_equal(_dedup_rows(a, keys), a[[0, 1]])


def _band_reference(phi: TruncatedL2, states: np.ndarray):
    """Children of each state from the formula: x / 2, then, when every
    2 x_i <= x_i + 1/i, the head -(x_1^2 + ... + x_{d-1}^2) with
    lo + frac * (hi - lo) per band lattice point, product order."""
    d = phi.dim
    grid = np.linspace(0.0, 1.0, phi.band_samples)
    frac = np.array(list(itertools.product(grid, repeat=d - 1)))
    rows, parents, branches = [], [], []
    for i, x in enumerate(states):
        lo, hi = 2.0 * x[1:], x[1:] + 1.0 / np.arange(1, d)
        rows.append(x[None, :] / 2.0)
        if (lo <= hi).all():
            head = np.full((frac.shape[0], 1), -(x[None, 1:] ** 2).sum(axis=1)[0])
            rows.append(np.concatenate([head, lo + frac * (hi - lo)], axis=1))
        count = 1 + frac.shape[0] if (lo <= hi).all() else 1
        parents += [i] * count
        branches += range(count)
    return np.concatenate(rows, axis=0), np.array(parents), np.array(branches)


@pytest.mark.parametrize("batch", [1, 8, 1024])
@pytest.mark.parametrize("d", range(2, 9))
def test_truncated_l2_expand_matches_formula(d, batch):
    phi = TruncatedL2(d)
    rng = np.random.default_rng(10 * d + batch)
    states = rng.uniform(-1.0, 1.0, (batch, d))
    states[rng.random(batch) < 0.3, -1] = 2.0  # x_{d-1} > 1/(d-1): band set empty
    want, want_parent, want_branch = _band_reference(phi, states)
    children, parent, branch = phi.expand(states)
    assert children.tobytes() == want.tobytes()
    np.testing.assert_array_equal(parent, want_parent)
    np.testing.assert_array_equal(branch, want_branch)


def _deduped(phi, x):
    return _dedup_rows(_refined_images(phi, x))


@pytest.mark.parametrize("name", ["weak-separation", "l2-d8"])
def test_witness_on_raw_refined_image_matches_deduplicated(name, monkeypatch):
    sys = _l2(8) if name == "l2-d8" else SYSTEMS[name]()
    # every child of eta_star, each duplicate of the refined image included
    ys = sys.phi.expand(sys.eta_star[None, :])[0]
    xs = np.repeat(sys.eta_star[None, :], ys.shape[0], axis=0)
    raw = _first_witness(sys, xs, ys)
    audit = _separation_audit(sys, PLAN)
    monkeypatch.setattr(verifier, "_refined_images", _deduped)
    assert raw is not None
    assert repr(raw) == repr(_first_witness(sys, xs, ys))
    deduped = _separation_audit(sys, PLAN)
    assert audit[1].strong_witness is not None
    assert repr(audit[0]) == repr(deduped[0])
    assert repr(audit[1].to_dict()) == repr(deduped[1].to_dict())


def test_probe_of_everywhere_empty_images():
    # recorded before the probe sized its chunks from the base images
    phi = Interval1D(lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x, samples=5)
    rep = continuity_probe(phi, [[-1.0, 1.0]], samples=64)
    assert rep.to_dict() == {
        "rungs": [
            {"delta": 0.1, "max_ratio": 0.0},
            {"delta": 0.05, "max_ratio": 0.0},
            {"delta": 0.025, "max_ratio": 0.0},
            {"delta": 0.0125, "max_ratio": 0.0},
        ],
        "growth": 0.0,
        "passed": True,
    }
