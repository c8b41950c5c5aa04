"""``geometry.run_starts`` and ``geometry.distinct``, the sort-based
primitives behind the cell passes, the continuity probe, the beam's
survivor marks and ``as_index_set``, checked against ``np.unique``."""

import numpy as np
import pytest

from turnlab.geometry import distinct, run_starts


def _keys(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-3, 4, n),
        rng.integers(-(2**62), 2**62, n),
        np.full(n, 7, dtype=np.int64),
        np.round(rng.normal(size=n), 1),
        rng.normal(size=n),
        np.full(n, -0.0),
    ]


@pytest.mark.parametrize("n", [0, 1, 2, 50, 3000])
@pytest.mark.parametrize("seed", range(4))
def test_run_starts_and_distinct_match_unique_1d(seed, n):
    for keys in _keys(seed, n):
        grouped = np.sort(keys, kind="stable")
        want, first = np.unique(grouped, return_index=True)
        got = run_starts(grouped)
        assert got.dtype == np.intp
        assert np.array_equal(got, first)
        assert np.array_equal(distinct(keys), want)
        assert distinct(keys).dtype == keys.dtype


@pytest.mark.parametrize("n", [0, 1, 2, 50, 3000])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_run_starts_matches_unique_rows(d, n):
    rng = np.random.default_rng(10 * d + n)
    for rows in (rng.integers(-2, 3, (n, d)), np.zeros((n, d), dtype=np.int64)):
        grouped = rows[np.lexsort(rows.T[::-1])]
        want, first = np.unique(grouped, axis=0, return_index=True)
        got = run_starts(grouped)
        assert np.array_equal(got, first)
        assert np.array_equal(grouped[got], want.reshape(-1, d))


def test_run_starts_marks_runs_not_distinct_values():
    # keys that are grouped but not sorted: each run starts anew
    assert run_starts(np.array([3, 3, 1, 1, 1, 3])).tolist() == [0, 2, 5]
    rows = np.array([[1, 2], [1, 2], [1, 3], [0, 3], [0, 3]])
    assert run_starts(rows).tolist() == [0, 2, 3]
