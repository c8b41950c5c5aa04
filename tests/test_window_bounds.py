"""A window carries its extent: ``bounds`` holds each axis's [min, max],
taken once at construction, and decides finiteness. Min and max are
exact, so the bounds equal NumPy's axis-0 reductions to the value."""

import numpy as np
import pytest

from turnlab.windows import SequenceWindow


def _seeded(shape, seed):
    x = np.random.default_rng(seed).normal(size=shape)
    flat = x.reshape(len(x), -1)
    flat[1::7] = 0.0
    flat[2::7] = -0.0
    flat[3, 0], flat[4, -1] = 1e308, -1e308
    flat[5, 0], flat[6, -1] = -1.7976931348623157e308, np.nextafter(1e308, np.inf)
    return x


@pytest.mark.parametrize("shape", [(500,), (500, 2), (500, 5)])
@pytest.mark.parametrize("seed", [0, 1])
def test_bounds_equal_axis_reductions(shape, seed):
    x = _seeded(shape, seed)
    window = SequenceWindow(x)
    want = np.stack([window.values.min(axis=0), window.values.max(axis=0)], axis=1)
    assert window.bounds.shape == (window.dim, 2)
    assert np.array_equal(window.bounds, want)


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_in_any_column_is_refused(dim, bad):
    for col in range(dim):
        x = np.random.default_rng(col).normal(size=(50, dim))
        x[17, col] = bad
        with pytest.raises(ValueError, match=r"window entries must be finite \(no NaN/inf\)"):
            SequenceWindow(x)


def test_bounds_are_read_only():
    window = SequenceWindow(np.arange(12.0).reshape(6, 2))
    assert window.bounds.tolist() == [[0.0, 10.0], [1.0, 11.0]]
    with pytest.raises(ValueError):
        window.bounds[0, 0] = -1.0
