import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from turnlab.ideals import (
    IdealModel,
    IdealSpecError,
    _shifted_model,
    as_index_set,
    burn_in,
    check_translation_invariance,
    is_small,
    parse_ideal_spec,
)

EVENS_1K = np.arange(0, 1000, 2)
SQUARES = np.arange(0, 1000) ** 2


@pytest.mark.parametrize(
    "indices",
    [[], [3], [0, 2, 5, 9], [9, 2, 5, 0], [2, 2, 5, 5, 9], [5, 5], np.arange(1000)[::-3]],
    ids=["empty", "single", "sorted", "unsorted", "duplicated", "repeated", "descending"],
)
def test_as_index_set_equals_unique(indices):
    got = as_index_set(indices, 1000)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(np.asarray(indices, dtype=np.int64)))


@pytest.mark.parametrize("indices", [[-1, 3], [3, 1000], [1000], [5, -2, 5]])
def test_as_index_set_rejects_out_of_range(indices):
    with pytest.raises(ValueError):
        as_index_set(indices, 1000)


def test_is_small_examples():
    dens = IdealModel("density", 10**6, threshold=0.01)
    assert not is_small(np.arange(0, 10**6, 2), dens)
    assert is_small(SQUARES, dens)  # density 1e-3 at this horizon
    ft = IdealModel("finite_trace", 1000, cutoff=0, trace="odds")
    assert is_small(EVENS_1K, ft)
    assert not is_small(np.arange(1, 1000, 2), ft)


def test_fin_small_iff_below_cutoff():
    fin = IdealModel("fin", 1000, cutoff=64)
    assert is_small(np.arange(64), fin)
    assert not is_small([63, 64], fin)


def test_positive_and_dual():
    # positive: not small; dual: the complement in [0, horizon) is small
    dens = IdealModel("density", 1000)
    assert not is_small(np.arange(0, 1000, 2), dens)  # evens are positive
    assert not is_small(np.arange(1, 1000, 2), dens)  # so their complement is not dual
    assert is_small(np.arange(5), dens)  # the complement of [5, 1000), which is dual


def test_full_set_never_small():
    for model in (
        IdealModel("fin", 500),
        IdealModel("density", 500),
        IdealModel("finite_trace", 500, trace="evens"),
    ):
        assert not is_small(np.arange(500), model)


def test_finite_sets_small_under_every_model():
    fin_set = np.arange(20)
    for model in (
        IdealModel("fin", 10**5),
        IdealModel("density", 10**5),
        IdealModel("finite_trace", 10**5, trace="evens"),
    ):
        assert is_small(fin_set, model)


def _model(kind, horizon, cutoff, trace):
    return IdealModel(kind, horizon, cutoff=cutoff, trace=trace if kind == "finite_trace" else "")


def _assert_slice_is_mask(model, start, stop):
    idx = np.arange(start, stop)
    rows = model.counted_slice(start, stop)
    assert np.arange(model.horizon)[rows].tolist() == idx[model.counted(idx)].tolist()
    assert len(range(stop)[rows]) == int(model.counted(idx).sum())


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["fin", "density", "finite_trace"]),
    trace=st.sampled_from(["evens", "odds"]),
)
def test_counted_slice_is_the_counted_mask(data, kind, trace):
    horizon = data.draw(st.integers(2, 300))
    cutoff = data.draw(st.integers(0, horizon - 1))
    try:
        model = _model(kind, horizon, cutoff, trace)
    except IdealSpecError:
        assume(False)
    stop = data.draw(st.integers(0, horizon))
    _assert_slice_is_mask(model, data.draw(st.integers(0, stop)), stop)


@pytest.mark.parametrize("kind", ["fin", "density", "finite_trace"])
@pytest.mark.parametrize("trace", ["evens", "odds"])
@pytest.mark.parametrize("start, stop", [(0, 0), (7, 7), (3, 20), (0, 30), (21, 40), (50, 100)])
def test_counted_slice_past_the_cutoff_and_empty(kind, trace, start, stop):
    # cutoff 30 lies past the stop of some windows and inside the others
    _assert_slice_is_mask(_model(kind, 100, 30, trace), start, stop)


@pytest.mark.parametrize("trace", ["evens", "odds"])
def test_finite_trace_validation_counts_as_the_mask_did(trace):
    # the trace class must hold more than the cutoff and grow past horizon // 2
    for horizon in range(2, 160):
        for cutoff in {0, 1, horizon // 2 - 1, horizon // 2, horizon // 2 + 1, 64}:
            if not 0 <= cutoff < horizon:
                continue
            idx = np.arange(horizon)
            in_class = idx % 2 == (0 if trace == "evens" else 1)
            full, half = int(in_class.sum()), int(in_class[: horizon // 2].sum())
            valid = full > cutoff and full > half
            try:
                IdealModel("finite_trace", horizon, cutoff=cutoff, trace=trace)
            except IdealSpecError:
                assert not valid, (horizon, cutoff)
            else:
                assert valid, (horizon, cutoff)


def draw_small(model, rng):
    """A random small set: a random share of the uncounted indices plus
    at most ``budget()`` counted ones."""
    idx = np.arange(model.horizon)
    counted = model.counted(idx)
    pool = idx[counted]
    keep = ~counted & (rng.random(model.horizon) < rng.uniform(0.1, 0.5))
    k = min(int(rng.integers(0, model.budget() + 1)), pool.size)
    return np.union1d(idx[keep], rng.choice(pool, size=k, replace=False))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["fin", "density", "finite_trace"]))
def test_downward_closure(seed, kind):
    model = IdealModel(kind, 2000, trace="evens" if kind == "finite_trace" else "")
    rng = np.random.default_rng(seed)
    a = draw_small(model, rng)
    assert is_small(a, model)
    if a.size:
        sub = a[rng.random(a.size) < 0.5]
        assert is_small(sub, model)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_fin_union_closure(seed):
    # the max-element rendering is exactly union closed
    model = IdealModel("fin", 2000)
    rng = np.random.default_rng(seed)
    a = draw_small(model, rng)
    b = draw_small(model, rng)
    assert is_small(np.union1d(a, b), model)


def test_budgeted_union_closure():
    # density and trace-count smallness are budget renderings: unions of
    # sets that jointly stay below the budget remain small
    dens = IdealModel("density", 10**5, threshold=0.01)
    rng = np.random.default_rng(3)
    a = rng.choice(10**5, size=200, replace=False)
    b = rng.choice(10**5, size=200, replace=False)
    assert is_small(a, dens) and is_small(b, dens)
    assert is_small(np.union1d(a, b), dens)

    ft = IdealModel("finite_trace", 2000, cutoff=64, trace="evens")
    a = np.arange(0, 60, 2)  # 30 even elements
    b = np.arange(100, 160, 2)  # 30 more
    assert is_small(a, ft) and is_small(b, ft)
    assert is_small(np.union1d(a, b), ft)


def test_translation_invariance_density_and_fin():
    assert check_translation_invariance(IdealModel("density", 10**5)).invariant
    assert check_translation_invariance(IdealModel("fin", 10**5)).invariant
    # under fin:0 every index counts, so only the empty set is small
    assert check_translation_invariance(IdealModel("fin", 1000, cutoff=0)).invariant


def test_translation_invariance_trace_fails_odd_shift():
    rep = check_translation_invariance(
        IdealModel("finite_trace", 10**5, trace="odds"), shifts=(1,)
    )
    assert not rep.invariant
    assert rep.witness is not None and rep.witness["shift"] == 1


def test_translation_invariance_trace_even_shift_ok():
    rep = check_translation_invariance(
        IdealModel("finite_trace", 10**5, trace="odds"), shifts=(2, -2)
    )
    assert rep.invariant


EXHAUSTIVE_SHIFTS = (1, -1, 2, -2, 5, -5)


def _exhaustive_models(n):
    # the largest cutoffs put a shifted set's count right at the budget,
    # where clipping at the horizon decides the verdict
    for cutoff in (0, 3, n // 2, n - 3):
        yield IdealModel("fin", n, cutoff=cutoff)
    for threshold in (0.01, 0.2, 0.35):
        yield IdealModel("density", n, threshold=threshold)
    for trace in ("evens", "odds"):
        for cutoff in (0, 1, 2, n // 2 - 1):
            yield IdealModel("finite_trace", n, cutoff=cutoff, trace=trace)


def _shift_columns(sets, k):
    """Each row of ``sets`` (one boolean column per index) shifted by k
    and clipped to the horizon."""
    out = np.zeros_like(sets)
    if k > 0:
        out[:, k:] = sets[:, :-k]
    else:
        out[:, :k] = sets[:, -k:]
    return out


@pytest.mark.parametrize("n", range(12, 17))
def test_translation_invariance_matches_every_subset(n):
    # every subset of [0, n) as one boolean row
    sets = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    sizes = sets.sum(axis=1)
    heads = np.argsort(~sets, axis=1, kind="stable")[:, :12]  # members first, ascending
    idx = np.arange(n)
    for model in _exhaustive_models(n):
        small = (sets & model.counted(idx)).sum(axis=1) <= model.budget()
        failing = []
        for k in EXHAUSTIVE_SHIFTS:
            target = _shifted_model(model, k)
            image = _shift_columns(sets, k)
            image_small = (image & target.counted(idx)).sum(axis=1) <= target.budget()
            stays = bool(image_small[small].all())
            rep = check_translation_invariance(model, shifts=(k,))
            assert rep.invariant == stays, (model, k)
            if not stays:
                failing.append(k)
                # some small set with the witness's size and head is not
                # small once shifted (the head is the whole set up to 12)
                w = rep.witness
                assert w["shift"] == k
                head = heads[:, : len(w["set_head"])]
                match = (sizes == w["set_size"]) & (head == w["set_head"]).all(axis=1)
                assert (match & small & ~image_small).any(), (model, k)
        rep = check_translation_invariance(model, shifts=EXHAUSTIVE_SHIFTS)
        if failing:
            assert not rep.invariant and rep.witness["shift"] == failing[0]
        else:
            assert rep.invariant and rep.witness is None


def test_shift_preconditions():
    model = IdealModel("density", 100)
    with pytest.raises(ValueError):
        check_translation_invariance(model, shifts=(0,))
    with pytest.raises(ValueError):
        check_translation_invariance(model, shifts=(60,))


def test_maximal_ideal_rejected():
    with pytest.raises(IdealSpecError, match="maximal"):
        parse_ideal_spec("maximal", 1000)


def test_parse_ideal_spec_forms():
    assert parse_ideal_spec("fin", 1000).kind == "fin"
    assert parse_ideal_spec("fin:10", 1000).cutoff == 10
    assert parse_ideal_spec("density", 1000).threshold == 0.01
    assert parse_ideal_spec("density:0.05", 1000).threshold == 0.05
    assert parse_ideal_spec("finite-trace:odds", 1000).trace == "odds"
    # auto resolves to the evens trace (odd indices small)
    assert parse_ideal_spec("finite-trace:auto", 1000).trace == "evens"
    with pytest.raises(IdealSpecError):
        parse_ideal_spec("weird", 1000)


def test_invalid_models_rejected():
    with pytest.raises(IdealSpecError):
        IdealModel("density", 1000, threshold=1.5)
    with pytest.raises(IdealSpecError):
        IdealModel("fin", 100, cutoff=100)
    with pytest.raises(IdealSpecError):
        IdealModel("finite_trace", 1000, trace="weekdays")
    with pytest.raises(IdealSpecError):
        # trace class too thin below the horizon: full set would be small
        IdealModel("finite_trace", 100, cutoff=64, trace="evens")


def test_at_horizon_clamps_cutoff():
    model = IdealModel("fin", 10**5, cutoff=64)
    short = model.at_horizon(12)
    assert short.horizon == 12 and short.cutoff == 6


def test_burn_in_bounds():
    assert burn_in(4) == 1
    assert burn_in(10_000) == 100
    assert burn_in(9) <= 9 // 4 + 1
