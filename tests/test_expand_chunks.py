"""The condition battery streams sample-sized batches through ``expand``
in chunks of ``dynamics.EXPAND_CHUNK`` states. Results must not depend on
the chunk size: every value below was recorded with the whole batch
expanded at once, and each chunk size must reproduce it exactly. The
memory guard fails if a whole-sample expansion comes back."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from test_separation_audit import IFS_A5, IFS_VARIANTS, L2_A5, L2_VARIANTS, PLAN, _ifs, _l2
from turnlab import dynamics
from turnlab.dynamics import (
    FiniteBranch,
    Interval1D,
    StartAt,
    SystemInstance,
    TruncatedL2,
    continuity_probe,
)
from turnlab.ideals import IdealModel
from turnlab.scenarios import build_counterexample_system, build_l2_truncation
from turnlab.verifier import SamplingPlan, _separation_audit, t_hat_batch

CHUNKS = (1, 7, 100_000)

L2_BOX = build_l2_truncation(8, np.zeros(8), IdealModel("fin", 200, cutoff=64)).box
# continuity_probe(phi, box, samples, seed=0) rungs' max_ratio
PROBE_PINS = {
    "l2-8": (
        TruncatedL2(8),
        L2_BOX,
        256,
        [2.8549300706898264, 2.8902688031181554, 2.908081636276723, 2.917023154563596],
    ),
    # base and moved images differ in count where x_i crosses 1/i
    "l2-crossing": (
        TruncatedL2(3),
        [[-0.5, 0.5], [0.6, 1.4], [0.2, 0.8]],
        64,
        [44.83581157958446, 89.83457018319841, 179.8339511883115, 359.83364211813216],
    ),
    "flip-or-halve": (
        FiniteBranch((lambda x: -x, lambda x: x / 2.0), dim=1),
        [[-2.0, 2.0]],
        64,
        [1.0000000000000009] * 4,
    ),
    # some moved points have an empty image
    "empty-interval": (
        Interval1D(lambda x: x**2, lambda x: 1.0 + 0.0 * x, samples=7),
        [[-1.5, 1.5]],
        41,
        [1.8000000000000003, 1.8749999999999987, 1.9124999999999985, 1.9687500000000036],
    ),
}


def _l2_draw(n):
    """The reproduce-l2 draw: uniform on [-1, 1]^8, first coordinate >= 0."""
    draw = np.random.default_rng(1).uniform(-1.0, 1.0, (4 * n, 8))
    return draw[draw[:, 0] >= 0.0][:n]


# sha256 of the t_hat_batch output bytes
T_HAT_PINS = {
    "l2-8": (
        lambda: _l2(8),
        lambda: _l2_draw(2500),
        "e341c01f8344be5698912b90d1f779a451eb2d9ccc38868bf12a1d064d40b442",
    ),
    "counterexample": (
        lambda: build_counterexample_system(IdealModel("density", 2048)),
        lambda: np.linspace(-2.0, 2.0, 3001)[:, None],
        "111efa339f5720600299235b5d9ebb5ae0fb1955948d2a015dd950fcf516fbc6",
    ),
}


def _late_witness():
    """Halving plus a jump up by 1 for x in (1.9, 1.95): the first pair
    that violates separation comes from sample row 19, past the first
    chunk at every tested size but the largest, and later rows violate
    too. Weak separation fails with it, since x is not eta_star."""
    phi = FiniteBranch(
        (
            lambda x: x / 2.0,
            lambda x: np.where((x > 1.9) & (x < 1.95), x + 1.0, x / 2.0),
        ),
        dim=1,
    )
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


LATE_PAIR = {"x": [1.9425060163286902], "y": [2.9425060163286902]}
LATE_A5 = {"verdict": "fail", "pairs_checked": 400, "witness": LATE_PAIR}
LATE_VARIANTS = {
    "strong_holds": False,
    "weak_holds": False,
    "weak_without_strong": False,
    "strong_witness": LATE_PAIR,
    "weak_witness": LATE_PAIR,
    "pairs_checked": 402,
}

AUDIT_PINS = {
    "l2-d8": (lambda: _l2(8), PLAN, L2_A5, L2_VARIANTS),
    "ifs": (_ifs, PLAN, IFS_A5, IFS_VARIANTS),
    "late-witness": (_late_witness, SamplingPlan(n_points=200, seed=0), LATE_A5, LATE_VARIANTS),
}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(AUDIT_PINS))
def test_separation_audit_independent_of_chunk(name, chunk, monkeypatch):
    build, plan, want_a5, want_variants = AUDIT_PINS[name]
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    a5, variants = _separation_audit(build(), plan)
    # repr keeps the sign of -0.0 coordinates
    assert repr(a5) == repr(want_a5)
    assert repr(variants.to_dict()) == repr(want_variants)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(PROBE_PINS))
def test_continuity_probe_independent_of_chunk(name, chunk, monkeypatch):
    phi, box, samples, want = PROBE_PINS[name]
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    rep = continuity_probe(phi, box, samples=samples, seed=0)
    assert [r["max_ratio"] for r in rep.rungs] == want


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(T_HAT_PINS))
def test_t_hat_batch_independent_of_chunk(name, chunk, monkeypatch):
    build, draw, want = T_HAT_PINS[name]
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    gains = t_hat_batch(build(), draw())
    assert hashlib.sha256(gains.tobytes()).hexdigest() == want


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_battery_peaks_stay_below_whole_sample_expansion():
    # whole-sample expansion traced 126 MB (audit) and 101 MB (probe)
    sys = build_l2_truncation(8, np.r_[1.0, np.zeros(7)], IdealModel("density", 4096))
    plan = SamplingPlan()
    audit = _traced_peak_mb(lambda: _separation_audit(sys, plan))
    probe = _traced_peak_mb(
        lambda: continuity_probe(sys.phi, sys.box, plan.continuity_samples, plan.seed)
    )
    assert audit < 64.0
    assert probe < 64.0
