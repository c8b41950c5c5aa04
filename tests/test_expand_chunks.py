"""The condition battery streams sample-sized batches through ``expand``
in row spans of about ``dynamics.EXPAND_CHUNK`` children
(``dynamics.expand_spans``); the continuity probe also takes its probe
points one span-sized block at a time. Results must not depend on the
span size: every value below was recorded with the whole batch expanded
at once, and each ``EXPAND_CHUNK`` must reproduce it exactly. The memory
guard fails if any battery stage, the reference orbit or the whole
battery holds much more than one span of live data again (a whole-batch
expansion, a whole-sample concatenation, a view that keeps a whole image
alive), and the span guard if an ``expand`` call returns more than
``EXPAND_CHUNK`` children plus one widest image."""

import dataclasses
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
    _child_gaps,
    continuity_probe,
    feasibility_check,
    fixed_points,
)
from turnlab.ideals import IdealModel
from turnlab.scenarios import build_counterexample_system, build_l2_truncation
from turnlab.verifier import SamplingPlan, _separation_audit, check_conditions, t_hat_batch

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
    # a NaN distance sticks to its rung through the remaining spans and blocks
    "nan-rung": (
        FiniteBranch((lambda x: np.where(x > 0.5, np.nan, x),)),
        [[-1.0, 1.0]],
        64,
        [float("nan")] * 4,
    ),
    # the image is empty for |x| < 0.5: at EXPAND_CHUNK 7, blocks of four
    # probe points, two whole blocks have no image and no moved points
    "empty-block": (
        Interval1D(lambda x: 0.25 - x**2, lambda x: 0.0 * x, samples=2),
        [[-1.5, 1.5]],
        41,
        [3.149999999999998, 3.0749999999999984, 3.0375000000000085, 3.018750000000002],
    ),
}


# fixed_points(phi, box, seed=17): sha256 of the sorted points' bytes
FIXED_POINT_PINS = {
    "l2-8": (TruncatedL2(8), L2_BOX, "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"),
    "empty-interval": (
        PROBE_PINS["empty-interval"][0],
        [[-1.5, 1.5]],
        "097f0cff26c5c280f66dfeecce64ef51d67574789b9faebdd16da122c2ec6a14",
    ),
    "ifs": (_ifs().phi, _ifs().box, "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d"),
}


def _l2_gap_batch():
    rng = np.random.default_rng(3)
    states = rng.uniform(-1.0, 1.0, (2000, 8))
    return states, states / 2.0 + rng.normal(0.0, 1e-3, states.shape)


def _interval_gap_batch():
    """3,001 states, the 1,000 with |x| > 1 childless (gap inf)."""
    states = np.linspace(-1.5, 1.5, 3001)[:, None]
    return states, states


# sha256 of the _child_gaps(phi, states, targets) output bytes
CHILD_GAP_PINS = {
    "l2-8": (
        TruncatedL2(8),
        _l2_gap_batch,
        "4aa2869a275c24b7cc1b3ec2247155e3dd336e179beaeb15d1b94bf8829ad183",
    ),
    "empty-interval": (
        PROBE_PINS["empty-interval"][0],
        _interval_gap_batch,
        "ec5961bda5b6882da1753f2e39548ec1552b9d0d67a206cfaddce8b31f0a3f5d",
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
    # repr, so that a NaN rung equals its pin
    assert [repr(r["max_ratio"]) for r in rep.rungs] == [repr(w) for w in want]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(T_HAT_PINS))
def test_t_hat_batch_independent_of_chunk(name, chunk, monkeypatch):
    build, draw, want = T_HAT_PINS[name]
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    gains = t_hat_batch(build(), draw())
    assert hashlib.sha256(gains.tobytes()).hexdigest() == want


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(FIXED_POINT_PINS))
def test_fixed_points_independent_of_chunk(name, chunk, monkeypatch):
    phi, box, want = FIXED_POINT_PINS[name]
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    assert hashlib.sha256(fixed_points(phi, box, seed=17).tobytes()).hexdigest() == want


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(CHILD_GAP_PINS))
def test_child_gaps_independent_of_chunk(name, chunk, monkeypatch):
    phi, batch, want = CHILD_GAP_PINS[name]
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    gaps = _child_gaps(phi, *batch())
    assert hashlib.sha256(gaps.tobytes()).hexdigest() == want


SPAN_STATES = {
    "finite-branch": (
        FiniteBranch((lambda x: x / 2.0, lambda x: 0.3 * x + 0.7), dim=1),
        lambda: np.linspace(-3.0, 3.0, 1001)[:, None],
    ),
    "empty-interval": (PROBE_PINS["empty-interval"][0], lambda: _interval_gap_batch()[0]),
    "l2-8": (TruncatedL2(8), lambda: _l2_gap_batch()[0]),
}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(SPAN_STATES))
def test_expand_spans_concatenate_to_expand(name, chunk, monkeypatch):
    phi, states = SPAN_STATES[name]
    states = states()
    want = phi.expand(states)
    monkeypatch.setattr(dynamics, "EXPAND_CHUNK", chunk)
    got = [np.concatenate(part) for part in zip(*dynamics.expand_spans(phi, states))]
    for g, w in zip(got, want, strict=True):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def _interval_system():
    """[x - 1, 2 - x] at 33 samples: empty for x > 1.5, a third of the box;
    x = 0.5 is the fixed point of the middle sample."""
    return SystemInstance(
        dim=1,
        phi=Interval1D(lambda x: x - 1.0, lambda x: 2.0 - x, samples=33),
        utility=lambda p: p[..., 0],
        ideal=IdealModel("density", 2048),
        constraint=StartAt([0.0]),
        box=np.array([[-4.0, 4.0]]),
        separation=np.array([1.0]),
        eta_star=np.array([0.5]),
        reference_branch=0,
    )


# the l2 reference orbit starts at a state whose band set is empty, so
# the first image of the feasibility check is the narrowest one
SPAN_SYSTEMS = {
    "l2-8": lambda: build_l2_truncation(
        8, np.r_[0.0, 1.5, np.zeros(6)], IdealModel("density", 2048)
    ),
    "empty-interval": _interval_system,
}


@pytest.mark.parametrize("name", list(SPAN_SYSTEMS))
def test_battery_expand_calls_stay_within_one_span(name):
    from test_condition_kernels import _Recorder  # that module imports this one

    sys = SPAN_SYSTEMS[name]()
    rec = _Recorder(sys.phi)
    check_conditions(dataclasses.replace(sys, phi=rec), SamplingPlan())
    counts = [np.bincount(sys.phi.expand(b)[1], minlength=b.shape[0]) for b in rec.batches]
    widest = max(int(c.max()) for c in counts)
    sizes = [int(c.sum()) for c in counts]
    assert max(sizes) <= dynamics.EXPAND_CHUNK + widest
    assert max(sizes) > dynamics.EXPAND_CHUNK // 2  # sample-sized batches were streamed
    assert any((c == 0).any() for c in counts) == (name == "empty-interval")


# feasible_path: (points, truncated, sha256 of the points' bytes)
PATH_PINS = {
    "l2-8": (
        lambda: SPAN_SYSTEMS["l2-8"]().reference_path,
        512,
        False,
        "1d20384023fb5c7d39228d2613d7cfca7b27af30c1338e160301a931c5491fda",
    ),
    # the midpoint x -> 1.05 x + 0.1 climbs past 8, where the image empties
    "emptying-interval": (
        lambda: dynamics.feasible_path(
            Interval1D(lambda x: 1.1 * x - 0.3, lambda x: x + 0.5, samples=5), [0.1], 2, 64
        ),
        33,
        True,
        "48c2e746dd6c91d1c878d1730c3695400d64d69b3a8732c05a6b37164c161c7a",
    ),
}


@pytest.mark.parametrize("name", list(PATH_PINS))
def test_feasible_path_bytes(name):
    build, points, truncated, want = PATH_PINS[name]
    path = build()
    assert (path.window.horizon, path.truncated) == (points, truncated)
    assert hashlib.sha256(path.points.tobytes()).hexdigest() == want


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_battery_peaks_stay_below_whole_sample_expansion():
    # whole-batch expansion traced 126 MB (audit), 101 MB (probe), 26 MB
    # (fixed points) and 13 MB (feasibility); one span of live data per
    # stage traces about 2.1-2.8 MB (audit; the upper figure when it runs
    # first, before the band lattice is built), 2.9, 2.3, 1.5, 0.17
    # (reference orbit) and 2.9 MB (battery), and each bound is about 1.5
    # times that
    sys = build_l2_truncation(8, np.r_[1.0, np.zeros(7)], IdealModel("density", 4096))
    plan = SamplingPlan()
    ref = SPAN_SYSTEMS["l2-8"]().reference_path
    peaks = {
        "audit": _traced_peak_mb(lambda: _separation_audit(sys, plan)),
        "probe": _traced_peak_mb(
            lambda: continuity_probe(sys.phi, sys.box, plan.continuity_samples, plan.seed)
        ),
        "scan": _traced_peak_mb(lambda: fixed_points(sys.phi, sys.box, seed=17)),
        "feasibility": _traced_peak_mb(lambda: feasibility_check(ref, sys.phi)),
        "reference": _traced_peak_mb(lambda: SPAN_SYSTEMS["l2-8"]().reference_path),
        "battery": _traced_peak_mb(lambda: check_conditions(sys, plan)),
    }
    bounds = {
        "audit": 4.0,
        "probe": 4.25,
        "scan": 3.4,
        "feasibility": 2.2,
        "reference": 0.3,
        "battery": 4.25,
    }
    assert {k: v for k, v in peaks.items() if v >= bounds[k]} == {}
