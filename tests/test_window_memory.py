"""Window memory: who owns a window's values, and the traced peak of the
paper's block-sequence analysis.

A window adopts a read-only array that owns its data and copies
anything else, so a caller's later writes never reach it. The 1-D
analysis of the 4,038,013-point block window (30.8 MiB of float64)
holds the window plus one sorted copy of it, which also yields liminf
and limsup, with every other temporary bounded by a span of rows: its
traced peak is 63.4 MiB under density and 62.4 MiB under fin. Under
finite-trace the counted values are a masked copy, sorted on its own,
and the peak is 80.9 MiB.
"""

import tracemalloc

import numpy as np
import pytest

import turnlab.windows as windows
from turnlab.analysis import analyze_window
from turnlab.ideals import parse_ideal_spec
from turnlab.scenarios import block_sequence_length, build_block_sequence
from turnlab.windows import SequenceWindow


def test_writable_input_is_copied():
    x = np.linspace(-1.0, 1.0, 50)
    window = SequenceWindow(x)
    x[:] = 7.0
    assert not np.shares_memory(window.values, x)
    assert window.scalars()[0] == -1.0 and window.scalars()[-1] == 1.0
    assert not window.values.flags.writeable


def test_read_only_view_of_writable_base_is_copied():
    base = np.arange(20.0).reshape(10, 2)
    view = base[2:]
    view.setflags(write=False)
    window = SequenceWindow(view)
    assert not np.shares_memory(window.values, base)
    base[:] = -1.0
    assert window.values[0].tolist() == [4.0, 5.0]


@pytest.mark.parametrize("shape", [(40,), (40, 3)])
def test_read_only_owning_array_is_adopted(shape):
    x = np.random.default_rng(0).normal(size=shape)
    x.setflags(write=False)
    window = SequenceWindow(x)
    assert np.shares_memory(window.values, x)
    assert window.values.shape == (40, 1 if len(shape) == 1 else 3)
    assert not window.values.flags.writeable


def test_block_builder_hands_its_array_over():
    window = build_block_sequence(4)
    assert not window.values.flags.writeable
    assert window.values.base is not None and window.values.base.flags.owndata


class _Spy(SequenceWindow):
    """Records the array each window is built from."""

    inputs: list = []

    def __post_init__(self):
        _Spy.inputs.append(self.values)
        super().__post_init__()


def test_map_and_from_text_hand_over_fresh_arrays(tmp_path, monkeypatch):
    _Spy.inputs.clear()
    source = SequenceWindow(np.linspace(0.0, 1.0, 30))
    image = source.values * 2.0
    monkeypatch.setattr(windows, "SequenceWindow", _Spy)
    mapped = source.map(lambda v: image)
    assert np.shares_memory(mapped.values, _Spy.inputs[-1])
    assert not np.shares_memory(mapped.values, image)
    image[:] = -1.0
    assert mapped.values[-1, 0] == 2.0

    path = tmp_path / "w.txt"
    source.to_text(path)
    loaded = _Spy.from_text(path)
    assert np.shares_memory(loaded.values, _Spy.inputs[-1])
    assert np.array_equal(loaded.values, source.values)


def _block_analysis_peak(spec):
    # the model is built outside the trace: a finite-trace model's own
    # validation peaks at 65.5 MiB of index arrays on this horizon
    model = parse_ideal_spec(spec, block_sequence_length(10))
    tracemalloc.start()
    try:
        window = build_block_sequence(10)
        analyze_window(window, model, limit_eps=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, window.values.nbytes


@pytest.mark.parametrize("spec", ["density:0.01", "fin"])
def test_block_analysis_traced_peak(spec):
    # the window and its sorted copy, and 4 MiB for everything else; before
    # liminf and limsup came off the cluster pass's copy the same run traced
    # 71.5 MiB, and before the 1-D path kept one sorted copy 184.8 MB
    peak, window_bytes = _block_analysis_peak(spec)
    assert peak < 2 * window_bytes + 4 * 2**20


def test_block_analysis_traced_peak_finite_trace():
    # the masked path holds the window, the sorted copy, the counted mask
    # and the counted copy (80.9 MiB); the bound keeps it from growing
    peak, _ = _block_analysis_peak("finite-trace:auto")
    assert peak < 82 * 2**20
