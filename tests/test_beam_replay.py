"""A beam step is a function of its input beam and two flags, so a beam
that has settled into a fixed point or a 2-cycle replays the step it
repeats instead of expanding it again. Replay must not change a report:
the counterexample pins below were recorded before replay existed, and
short searches that settle within a few steps must still match the
exhaustive oracle.
"""

import hashlib
import json

import numpy as np
import pytest

from turnlab import optimizer
from turnlab.dynamics import FiniteBranch, StartAt, SystemInstance
from turnlab.ideals import IdealModel, parse_ideal_spec
from turnlab.optimizer import SearchConfig, exhaustive_maxmin, maxmin_search
from turnlab.scenarios import build_counterexample_system

N_LONG = 4096
N_SHORT = 14

# recorded before steps were replayed: SHA-256 of the report JSON, of
# every path point (float.hex), of the whole trace and of every frontier size
# (the report digests were re-recorded when the search config lost
# trim_fraction; the other three did not move)
RECORDED = {
    "density:0.01": (
        "6a9ecae090f95291b02cf4e94482b1fe0252ff3899fbbdca9e41aef6ce66ac1c",
        "3a1d99eb4398e46207fd6c50b82f92e88376fba09509749a91c3d6c0353f64a2",
        "9e765e41df113c643ad3477b2122475e0aff1ee57106f5da9b0f8945d8cf6c2d",
        "ca0a86543d8da8f9c3843016f92dee2b46fe5906681837326cac50dd9c231c55",
    ),
    "finite-trace:auto": (
        "3945ad8b577351e250560a5cee30987418d1db407b31297a124125cc87674e14",
        "0b74a859f6ae668872819abb90ff145a2d6461f9bece789c727d5160a1058b03",
        "f13e1ecda109bb0d7962fd45a9f7a027da265c2ea70b2f06ecaf5d99c128e081",
        "19df603da988e582fa1dc77c288daf991f39196e8cbd261c6ac3f94a83bd6f70",
    ),
}


def _sha256(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


@pytest.mark.parametrize("spec", sorted(RECORDED))
def test_counterexample_replays_most_steps(spec, monkeypatch):
    calls = []
    expand = FiniteBranch.expand

    def counting(self, states):
        calls.append(states.shape[0])
        return expand(self, states)

    sys_inst = build_counterexample_system(parse_ideal_spec(spec, N_LONG))
    monkeypatch.setattr(FiniteBranch, "expand", counting)
    rep = maxmin_search(sys_inst, SearchConfig(N_LONG, beam_width=64))
    # one call per expanded step
    assert len(calls) == rep.counters["beam_steps_expanded"]
    assert len(calls) < (N_LONG - 1) // 4
    assert rep.counters["beam_steps_expanded"] + rep.counters["beam_steps_replayed"] == N_LONG - 1
    got = (
        _sha256([json.dumps(rep.to_dict(), sort_keys=True)]),
        _sha256(float(v).hex() for v in rep.path.points.ravel()),
        _sha256(str(b) for b in rep.path.trace),
        _sha256(f"{c} {k}" for c, k in rep.frontier_sizes),
    )
    assert got == RECORDED[spec]


def _system(maps, utility, x0, model):
    return SystemInstance(
        dim=1,
        phi=FiniteBranch(maps, dim=1),
        utility=utility,
        ideal=model,
        constraint=StartAt([x0]),
        box=np.array([[-8.0, 8.0]]),
    )


def _constant(model):
    # both branches are constant maps, so every lineage sits at a fixed point
    return _system(
        (lambda x: 0.0 * x + 0.5, lambda x: 0.0 * x + 0.25), lambda p: p[..., 0], 1.0, model
    )


def _signed_zero(model):
    # the flip lineage alternates 0.0 and -0.0, which the utility tells
    # apart (+1 against -1), and it is the best one; a replay keyed on
    # values rather than bytes would hand out the other sign
    return _system(
        (lambda x: -x, lambda x: 0.0 * x + 4.0),
        lambda p: np.copysign(1.0, p[..., 0]) - np.abs(p[..., 0]),
        0.0,
        model,
    )


SYSTEMS = {"constant": _constant, "signed_zero": _signed_zero}
MODELS = {
    "fin": parse_ideal_spec("fin", N_SHORT),
    "density": parse_ideal_spec("density:0.01", N_SHORT),
    "finite_trace": IdealModel("finite_trace", N_SHORT, cutoff=0, trace="evens"),
}


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_settled_beam_matches_exhaustive(name, model):
    sys_inst = SYSTEMS[name](MODELS[model])
    rep = maxmin_search(sys_inst, SearchConfig(N_SHORT, beam_width=64))
    assert rep.counters["beam_steps_replayed"] > 0
    ref = exhaustive_maxmin(sys_inst, N_SHORT)
    assert rep.objective == ref.objective
    assert rep.path.trace == ref.path.trace
    assert rep.path.points.tobytes() == ref.path.points.tobytes()


@pytest.mark.parametrize("kind", ["fin", "finite_trace"])
def test_stationary_beam_still_fills_the_tail_profile(kind, monkeypatch):
    # branch 0 walks 0 -> -5 -> 1 and stays at 1, branch 1 resets to 0.
    # A path reaches objective 1 only by sitting at 1 through the tail.
    # The optimum is the smallest such trace with the best full profile:
    # dive at once (fin: every path to 1 counts -5), or one step late
    # (odds trace: -5 then falls on an uncounted index). A beam that
    # replayed its pre-tail steps into the tail would see no tail values
    # and pick the all-0 path by its full profile.
    n = 32
    dive = {0.0: -5.0, -5.0: 1.0, 1.0: 1.0}
    sys_inst = _system(
        (np.vectorize(dive.__getitem__, otypes=[float]), lambda x: 0.0 * x),
        lambda p: p[..., 0],
        0.0,
        IdealModel(kind, n, cutoff=1, trace="odds" if kind == "finite_trace" else ""),
    )
    best = (0,) * (n - 1) if kind == "fin" else (1,) + (0,) * (n - 2)
    computed = []
    beam_step = optimizer._beam_step

    def recording(*args):
        computed.append(args[-1])  # in_tail
        return beam_step(*args)

    monkeypatch.setattr(optimizer, "_beam_step", recording)
    rep = maxmin_search(sys_inst, SearchConfig(n, beam_width=64))
    # stationary before the tail starts at n // 2: some of the n // 2 - 1
    # pre-tail steps replayed, and the first tail step was computed
    pre_tail = computed.count(False)
    assert pre_tail < n // 2 - 1 and computed[pre_tail] is True
    assert rep.objective == 1.0
    assert rep.path.trace == best
