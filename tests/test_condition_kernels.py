"""The kernels under the condition battery against their reference forms:
``TruncatedL2.expand`` against its elementwise formula, the chunked
separation audit's witnesses against a whole-sample brute force, and the
continuity probe on a correspondence whose every image is empty."""

import dataclasses
import itertools

import numpy as np
import pytest

from test_expand_chunks import CHUNKS, _late_witness
from test_separation_audit import PLAN, SYSTEMS, _l2
from turnlab import dynamics
from turnlab.dynamics import (
    Correspondence,
    FiniteBranch,
    Interval1D,
    StartAt,
    SystemInstance,
    TruncatedL2,
    continuity_probe,
)
from turnlab.ideals import IdealModel
from turnlab.verifier import SamplingPlan, _separation_audit


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


class _Recorder(Correspondence):
    """Passes ``expand`` through and keeps every batch it was given."""

    def __init__(self, phi: Correspondence):
        self.phi, self.dim, self.fanout, self.batches = phi, phi.dim, phi.fanout, []

    def expand(self, states: np.ndarray):
        self.batches.append(states.copy())
        return self.phi.expand(states)


def _audited_sample(sys: SystemInstance, plan: SamplingPlan) -> np.ndarray:
    """The rows the audit expands, eta_star first, in order."""
    rec = _Recorder(sys.phi)
    recorded = dataclasses.replace(sys, phi=rec)
    rec.batches.clear()  # drop the stationarity check of eta_star
    _separation_audit(recorded, plan)
    return np.concatenate(rec.batches, axis=0)


def _brute_force_witnesses(sys: SystemInstance, pts: np.ndarray) -> dict:
    """First row of the whole-sample expansion that meets T x <= T y with
    a finite y and each kind's eta_star condition, as the audit states them."""
    children, parent, _ = sys.phi.expand(pts)
    tx = pts @ sys.separation
    premise = (tx[parent] <= children @ sys.separation) & np.isfinite(children).all(axis=1)
    scale = 1.0 + float(np.abs(pts).max())
    scale_a5 = 1.0 + float(np.abs(pts[1:]).max(initial=0.0))
    dx = np.sqrt(((pts[parent] - sys.eta_star) ** 2).sum(axis=1))
    dy = np.sqrt(((children - sys.eta_star) ** 2).sum(axis=1))
    masks = {
        "a5": premise & (parent > 0) & ~((dx <= 1e-9 * scale_a5) & (dy <= 1e-9 * scale_a5)),
        "strong": premise & ~((dx <= 1e-9 * scale) & (dy <= 1e-9 * scale)),
        "weak": premise & ~(dx <= 1e-9 * scale),
    }
    out = {}
    for kind, mask in masks.items():
        rows = np.flatnonzero(mask)
        out[kind] = None
        if rows.size:
            out[kind] = {"x": pts[parent[rows[0]]].tolist(), "y": children[rows[0]].tolist()}
    return out


# late-witness has A5 and weak witnesses, which the others lack
WITNESS_SYSTEMS = {**SYSTEMS, "l2-d8": lambda: _l2(8), "late-witness": _late_witness}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(WITNESS_SYSTEMS))
def test_audit_witnesses_are_first_brute_force_rows(name, chunk, monkeypatch):
    sys = WITNESS_SYSTEMS[name]()
    want = _brute_force_witnesses(sys, _audited_sample(sys, PLAN))
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    a5, variants = _separation_audit(sys, PLAN)
    got = {"a5": a5["witness"], "strong": variants.strong_witness, "weak": variants.weak_witness}
    assert repr(got) == repr(want)  # repr keeps the sign of -0.0


def test_brute_force_finds_witnesses():
    # the comparison above is not vacuous: some kinds have witnesses
    found = set()
    for name, build in WITNESS_SYSTEMS.items():
        sys = build()
        witnesses = _brute_force_witnesses(sys, _audited_sample(sys, PLAN))
        found |= {(name, k) for k, w in witnesses.items() if w is not None}
    assert {("l2-d8", "strong"), ("late-witness", "a5"), ("late-witness", "weak")} <= found


def _jump_system(jump) -> SystemInstance:
    """Halving plus a branch that jumps to ``jump(x)`` for x > 1.5."""
    phi = FiniteBranch((lambda x: x / 2.0, lambda x: np.where(x > 1.5, jump(x), x / 2.0)))
    return SystemInstance(
        dim=1,
        phi=phi,
        utility=lambda pts: pts[..., 0],
        ideal=IdealModel("fin", 2048),
        constraint=StartAt([1.0]),
        box=np.array([[-1.0, 2.0]]),
        separation=np.array([1.0]),
        eta_star=np.array([0.0]),
    )


def test_infinite_child_is_no_witness():
    plan = SamplingPlan(n_points=200, seed=0)
    a5, variants = _separation_audit(_jump_system(lambda x: np.inf + 0.0 * x), plan)
    assert a5["verdict"] == "pass" and a5["witness"] is None
    assert variants.strong_witness is None and variants.weak_witness is None
    # the same jump to a finite point is a witness
    a5, variants = _separation_audit(_jump_system(lambda x: x + 1.0), plan)
    assert a5["verdict"] == "fail"
    assert a5["witness"]["y"] == [a5["witness"]["x"][0] + 1.0]
    assert variants.strong_witness == variants.weak_witness == a5["witness"]


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
