"""One smallness rule: ``IdealModel.counted`` and ``IdealModel.budget``.

The membership oracle, the liminf and the cluster positivity test all
read the ideal through these two methods. These tests pin the budget at
its float boundary, the liminf as the exact order statistic it is, and
the agreement of that order statistic with the oracle's own verdicts.
"""

import numpy as np
import pytest

from turnlab.analysis import UnboundedWindowError, ideal_liminf, ideal_limsup
from turnlab.ideals import IdealModel, burn_in, is_small
from turnlab.windows import SequenceWindow


def test_density_boundary_liminf_follows_oracle():
    # 7 / 100 < 0.07 is false, so the seven indices 10..16 form a positive
    # set and the sequence dips to -1 on it
    model = IdealModel("density", 100, threshold=0.07)
    assert model.budget() == 6
    assert not is_small(np.arange(10, 17), model)
    x = np.zeros(100)
    x[10:17] = -1.0
    assert ideal_liminf(SequenceWindow(x), model) == -1.0
    assert ideal_limsup(SequenceWindow(-x), model) == 1.0


def _counted_reference(model: IdealModel, idx: np.ndarray) -> np.ndarray:
    if model.kind == "fin":
        return idx >= model.cutoff
    if model.kind == "finite_trace":
        return idx % 2 == (0 if model.trace == "evens" else 1)
    return np.ones(idx.size, dtype=bool)


def _random_model(kind: str, n: int, rng: np.random.Generator) -> IdealModel:
    if kind == "fin":
        return IdealModel("fin", n, cutoff=int(rng.integers(0, n // 2 + 1)))
    if kind == "density":
        return IdealModel("density", n, threshold=float(rng.uniform(0.005, 0.3)))
    trace = "evens" if rng.integers(2) else "odds"
    return IdealModel("finite_trace", n, cutoff=int(rng.integers(0, n // 4)), trace=trace)


@pytest.mark.parametrize("kind", ["fin", "density", "finite_trace"])
def test_liminf_is_rank_budget_order_statistic(kind):
    rng = np.random.default_rng({"fin": 1, "density": 2, "finite_trace": 3}[kind])
    raised = 0
    for _ in range(100):
        n = int(rng.integers(8, 400))
        model = _random_model(kind, n, rng)
        # coarse rounding makes ties common
        x = np.round(rng.normal(size=n), int(rng.integers(0, 4)))
        window = SequenceWindow(x)
        idx = np.arange(burn_in(n), n)
        counted = np.sort(x[idx[_counted_reference(model, idx)]])
        k = model.budget()
        if counted.size <= k:
            raised += 1
            with pytest.raises(UnboundedWindowError, match="essential"):
                ideal_liminf(window, model)
            continue
        lo = ideal_liminf(window, model)
        assert lo == counted[k]
        assert ideal_limsup(window, model) == -np.sort(-counted)[k]
        # definition: {n >= burn-in : x_n < r} turns positive exactly at r = liminf
        assert is_small(idx[x[idx] < lo], model)
        assert not is_small(idx[x[idx] <= lo], model)
    assert raised < 100


@pytest.mark.parametrize(
    "model",
    [
        IdealModel("fin", 100, cutoff=37),
        IdealModel("fin", 100, cutoff=0),
        IdealModel("density", 100, threshold=0.07),
        IdealModel("density", 10, threshold=0.3),
        IdealModel("density", 10, threshold=0.1),
        IdealModel("density", 4096, threshold=0.01),
        IdealModel("density", 4_038_013, threshold=0.01),
        IdealModel("finite_trace", 100, cutoff=5, trace="evens"),
        IdealModel("finite_trace", 101, cutoff=0, trace="odds"),
    ],
    ids=lambda m: "-".join(str(v) for v in m.describe().values()),
)
def test_is_small_flips_one_past_budget(model):
    idx = np.arange(model.horizon)
    counted = idx[_counted_reference(model, idx)]
    free = idx[~_counted_reference(model, idx)]  # never counted, never matters
    b = model.budget()
    assert is_small(np.concatenate([counted[:b], free]), model)
    assert not is_small(counted[: b + 1], model)
    if model.kind == "density":
        assert b / model.horizon < model.threshold <= (b + 1) / model.horizon


def test_density_budget_at_positivity_level():
    model = IdealModel("density", 200)
    assert model.budget(0.05) == 9  # 10 / 200 < 0.05 is false
    assert model.budget(0.0) == -1  # every visit set clears theta = 0
    assert model.budget(1.5) == 200  # no visit set clears theta > 1
