"""The beam step's group selection against a full rank of every child.

``_full_step`` is the step as a rank of every child runs it: insert each
child's value into its parent's profile row, rank all children, and keep
the first ``width`` distinct (cell, profile) keys. ``_select`` ranks
(parent, utility bits) groups instead and takes their children by group
rank, then index. On random steps with tied values, +-0.0, +-inf, NaN,
coarse (colliding) cells and parents with fewer or more children than
the beam, it must keep the same children with the same profile bytes.
"""

import numpy as np
import pytest

from turnlab.optimizer import _profile_insert, _rank, _select


def _full_step(prof, parent, vals, cells, width, k_tail, tail, full):
    """Kept child indices (ascending) and their profile rows."""
    c_prof = prof[parent]
    if full:
        _profile_insert(c_prof[:, k_tail + 1 :], vals)
    if tail:
        _profile_insert(c_prof[:, : k_tail + 1], vals)
    order = _rank(c_prof[:, k_tail + 1 :], c_prof[:, k_tail], utility=vals)
    kept, seen = [], set()
    for i in order:
        key = cells[i].tobytes() + c_prof[i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        kept.append(i)
        if len(kept) >= width:
            break
    kept = np.sort(np.array(kept, dtype=np.int64))
    return kept, c_prof[kept]


def _both(prof, parent, vals, cells, width, k_tail=0, tail=True, full=True):
    """The full step's and ``_select``'s kept indices and profile bytes."""
    step = (prof, parent, vals, cells, width, k_tail)
    want = _full_step(*step, tail, full)
    got = _select(*step, full, tail)
    return [(rows.tolist(), rows_prof.tobytes()) for rows, rows_prof in (want, got)]


VALUES = np.array([-np.inf, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf])
NEG_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(float)[0]
NEG_ZERO_BITS = np.array([-0.0]).view(np.int64)[0]


def _random_step(rng, nan):
    """Profiles of a beam and one step of children grouped by parent."""
    m = int(rng.integers(1, 7))
    k_tail, k_full = (int(k) for k in rng.integers(0, 4, 2))
    prof = rng.choice(VALUES[1:], (m, k_tail + k_full + 2))
    prof[rng.random(prof.shape) < 0.3] = np.inf
    prof[:, : k_tail + 1].sort(axis=1)
    prof[:, k_tail + 1 :].sort(axis=1)
    counts = rng.integers(0, 13, m)
    parent = np.repeat(np.arange(m), counts)
    n = parent.size
    if n == 0:
        return None
    vals = np.where(rng.random(n) < 0.5, rng.choice(VALUES, n), rng.normal(size=n))
    if nan == "some":
        vals[rng.random(n) < 0.2] = np.nan
        vals[rng.random(n) < 0.1] = NEG_NAN
        vals[rng.integers(n)] = np.nan
    elif nan == "all":
        vals[:] = np.nan
    cells = rng.integers(-1, 2, (n, int(rng.integers(1, 4))))
    width = int(rng.integers(1, 6))
    tail, full = bool(rng.random() < 0.7), bool(rng.random() < 0.8)
    return prof, parent, vals, cells, width, k_tail, tail and full, full


@pytest.mark.parametrize("nan", ["none", "some", "all"])
def test_selection_keeps_what_the_full_step_keeps(nan):
    rng = np.random.default_rng({"none": 0, "some": 1, "all": 2}[nan])
    wide = 0
    for _ in range(1500):
        step = _random_step(rng, nan)
        if step is None:
            continue
        want, got = _both(*step)
        assert got == want
        wide += np.bincount(step[1]).max() > step[4]
    assert wide > 500


def test_tied_parents_keep_index_order():
    # two parents with equal rows, each with children of values 2.0, 2.0
    prof = np.array([[0.5, np.inf], [0.5, np.inf]])
    parent = np.array([0, 0, 1, 1])
    vals = np.full(4, 2.0)
    distinct = np.array([[0], [1], [2], [3]])
    for width, kept in ((1, [0]), (3, [0, 1, 2])):
        want, got = _both(prof, parent, vals, distinct, width)
        assert got == want and got[0] == kept
    # the second parent's children repeat the first's keys
    shared = np.array([[0], [1], [0], [1]])
    want, got = _both(prof, parent, vals, shared, 4)
    assert got == want and got[0] == [0, 1]


def test_signed_zeros_and_nans_of_one_parent():
    vals = np.array([np.nan, -0.0, 0.0, NEG_NAN, -0.0])
    parent = np.zeros(5, dtype=np.int64)
    cells = np.arange(5)[:, None]
    # no value enters the row, so the zeros tie and lead, then the NaNs
    low = np.array([[-1.0, -1.0]])
    for width, kept in ((2, [1, 2]), (4, [0, 1, 2, 4]), (5, [0, 1, 2, 3, 4])):
        want, got = _both(low, parent, vals, cells, width)
        assert got == want and got[0] == kept
    # a zero enters the row as +0.0, so both signs share one key in one cell
    high = np.array([[0.5, np.inf]])
    want, got = _both(high, parent, vals, np.zeros((5, 1), dtype=np.int64), 5)
    assert got == want and got[0] == [0, 1]
    assert got[1] == np.array([[0.5, np.inf], [0.0, 0.0]]).tobytes()


def test_all_nan_step_ranks_the_parents_rows():
    prof = np.array([[0.5, 1.0], [0.5, 2.0], [0.25, np.inf]])
    parent = np.array([0, 0, 1, 2, 2])
    vals = np.full(5, np.nan)
    cells = np.arange(5)[:, None]
    want, got = _both(prof, parent, vals, cells, 2)
    assert got == want and got[0] == [0, 2]
    assert got[1] == prof[[0, 1]].tobytes()


def test_profile_insert_is_a_sorted_merge():
    # stored rows hold no -0.0 and no NaN: ``_profile_insert`` writes neither
    rng = np.random.default_rng(3)
    stored = VALUES[VALUES.view(np.int64) != NEG_ZERO_BITS]
    for _ in range(2000):
        prof = np.sort(rng.choice(stored, (int(rng.integers(1, 9)), int(rng.integers(1, 6)))), axis=1)
        vals = rng.choice(np.append(VALUES, np.nan), prof.shape[0])
        merged = np.sort(np.concatenate([prof, vals[:, None] + 0.0], axis=1), axis=1)[:, :-1]
        want = np.where(np.isnan(vals)[:, None], prof, merged)
        _profile_insert(prof, vals)
        assert prof.tobytes() == want.tobytes()
