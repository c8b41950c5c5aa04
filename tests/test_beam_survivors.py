"""The beam step's survivor selection against a full rank of every child.

``_full_step`` is the step as it ran before the selection: insert each
child's value into its parent's profile row, rank all children, and keep
the first ``width`` distinct (cell, profile) keys. On random steps with
tied values, +-0.0, +-inf, NaN, coarse (colliding) cells and parents
with fewer children than the beam, ``_survivors`` must return a superset
of what the full step keeps, and the full step run on that superset
alone must keep the same children with the same profiles.
"""

import numpy as np
import pytest

from turnlab.optimizer import _profile_insert, _rank, _survivors


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


VALUES = np.array([-np.inf, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf])


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
        vals[rng.integers(n)] = np.nan
    elif nan == "all":
        vals[:] = np.nan
    cells = rng.integers(-1, 2, (n, int(rng.integers(1, 4))))
    width = int(rng.integers(1, 6))
    tail, full = bool(rng.random() < 0.7), bool(rng.random() < 0.8)
    return prof, parent, vals, cells, width, k_tail, tail and full, full


@pytest.mark.parametrize("nan", ["none", "some", "all"])
def test_survivors_keep_every_child_the_full_step_keeps(nan):
    rng = np.random.default_rng({"none": 0, "some": 1, "all": 2}[nan])
    selected = 0
    for _ in range(1500):
        step = _random_step(rng, nan)
        if step is None:
            continue
        prof, parent, vals, cells, width, k_tail, tail, full = step
        kept, kept_prof = _full_step(*step)
        rows = _survivors(parent, vals, cells, width)
        if rows is None:
            assert nan != "none" or np.bincount(parent).max() <= width
            continue
        assert nan == "none"
        selected += 1
        assert np.all(rows[1:] > rows[:-1])
        assert np.isin(kept, rows).all()
        sub = _full_step(prof, parent[rows], vals[rows], cells[rows], width, k_tail, tail, full)
        assert np.array_equal(rows[sub[0]], kept)
        assert sub[1].tobytes() == kept_prof.tobytes()
    assert nan != "none" or selected > 500


def test_survivors_are_a_prefix_up_to_the_width_th_distinct_cell():
    # one parent; by value, ties by index: 1 (cell a), 0 (a), 3 (b), 2 (b), 4 (c)
    parent = np.zeros(5, dtype=np.int64)
    vals = np.array([2.0, 3.0, 1.0, 2.0, 0.0])
    cells = np.array([[0], [0], [1], [1], [2]])
    assert _survivors(parent, vals, cells, 1).tolist() == [1]
    assert _survivors(parent, vals, cells, 2).tolist() == [0, 1, 3]
    assert _survivors(parent, vals, cells, 3).tolist() == [0, 1, 2, 3, 4]
    assert _survivors(parent, vals, cells, 5) is None
