import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnlab.ideals import (
    IdealModel,
    IdealSpecError,
    as_index_set,
    burn_in,
    check_translation_invariance,
    is_dual,
    is_positive,
    is_small,
    parse_ideal_spec,
    small_set_sampler,
    upper_density,
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


def test_upper_density_evens():
    assert upper_density(EVENS_1K, 1000) == 0.5


def test_upper_density_squares_enumeration():
    # oracle: direct enumeration of perfect squares below 10^4
    count = sum(1 for k in range(200) if k * k < 10_000)
    assert count == 100
    assert upper_density(SQUARES[SQUARES < 10_000], 10_000) == count / 10_000


def test_upper_density_empty():
    assert upper_density([], 17, horizon=100) == 0.0


def test_upper_density_range_error():
    with pytest.raises(ValueError):
        upper_density(EVENS_1K, 0, horizon=1000)
    with pytest.raises(ValueError):
        upper_density(EVENS_1K, 1001, horizon=1000)


def test_evens_density_error_bound():
    # |density(evens, n) - 1/2| <= 1/n
    evens = np.arange(0, 10**6, 2)
    for n in (10, 101, 999, 12345, 10**6):
        assert abs(upper_density(evens, n, horizon=10**6) - 0.5) <= 1.0 / n


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
    dens = IdealModel("density", 1000)
    evens = np.arange(0, 1000, 2)
    assert is_positive(evens, dens)
    assert not is_dual(evens, dens)  # complement (odds) is not small
    near_full = np.arange(5, 1000)
    assert is_dual(near_full, dens)


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["fin", "density", "finite_trace"]))
def test_downward_closure(seed, kind):
    model = IdealModel(kind, 2000, trace="evens" if kind == "finite_trace" else "")
    rng = np.random.default_rng(seed)
    a = small_set_sampler(model)(rng)
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
    draw = small_set_sampler(model)
    a = draw(rng)
    b = draw(rng)
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


# sizes and SHA-256 of five draws from default_rng(7) at horizon 300,
# recorded when every draw rebuilt its index pools
SMALL_SET_DRAWS = {
    "fin": ([18, 17, 9, 15, 28], "9ee9e6a4d8aee5205e42329a6e6fca2215a8a65705d30b45816df0b8cfe14273"),
    "fin:0": ([0, 0, 0, 0, 0], "45ca31c3315a5978f40438aab46040d75e99c9b125c2fd01db6e10ac80bef906"),
    "density:0.2": (
        [41, 56, 24, 13, 53],
        "a72c4d2d031f5fafb4ba49cee8e5a3c9eed33f0c0534bc81bbc46576f27bef6d",
    ),
    "finite-trace:odds": (
        [79, 80, 56, 113, 69],
        "95c3c1571513287522ec9814ffcd3f208804556987cf9d8de97f445501f71b05",
    ),
}


@pytest.mark.parametrize("spec", sorted(SMALL_SET_DRAWS))
def test_small_set_draws_are_pinned(spec):
    model = parse_ideal_spec(spec, 300)
    draw = small_set_sampler(model)
    rng = np.random.default_rng(7)
    draws = [draw(rng) for _ in range(5)]
    sizes, digest = SMALL_SET_DRAWS[spec]
    assert [d.size for d in draws] == sizes
    assert hashlib.sha256(b"|".join(d.tobytes() for d in draws)).hexdigest() == digest


def test_translation_invariance_density_and_fin():
    assert check_translation_invariance(IdealModel("density", 10**5), samples=100).invariant
    assert check_translation_invariance(IdealModel("fin", 10**5), samples=100).invariant
    # under fin:0 every index counts, so only the empty set is small
    assert check_translation_invariance(IdealModel("fin", 1000, cutoff=0)).invariant


def test_translation_invariance_trace_fails_odd_shift():
    rep = check_translation_invariance(
        IdealModel("finite_trace", 10**5, trace="odds"), samples=100, shifts=(1,)
    )
    assert not rep.invariant
    assert rep.witness is not None and rep.witness["shift"] == 1


def test_translation_invariance_trace_even_shift_ok():
    rep = check_translation_invariance(
        IdealModel("finite_trace", 10**5, trace="odds"), samples=100, shifts=(2, -2)
    )
    assert rep.invariant


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
