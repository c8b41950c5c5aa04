"""``analyze_window`` reads liminf and limsup off the cluster pass's sorted
counted values, at rank ``budget`` from either end. They must equal the
public ``ideal_liminf`` and ``ideal_limsup`` (a ``partition`` of their own
counted copy) bit for bit, on the view path (density, fin with its cutoff
at or below burn-in), on the masked path (fin with a later cutoff,
finite-trace), on a degenerate window, and in the error they raise on an
unbounded one.
"""

import numpy as np
import pytest

from turnlab.analysis import UnboundedWindowError, analyze_window, ideal_liminf, ideal_limsup
from turnlab.ideals import burn_in, parse_ideal_spec
from turnlab.scenarios import build_block_sequence
from turnlab.windows import SequenceWindow

# fin:8 lies at or below every window's burn-in here, fin:400 above it
SPECS = ("density:0.01", "density:0.2", "fin:8", "fin:400", "finite-trace:auto")


def _windows():
    for seed in range(4):
        rng = np.random.default_rng([seed, 30])
        yield f"random{seed}", SequenceWindow(rng.normal(0.0, 1.0, int(rng.integers(300, 6000))))
        levels = rng.normal(0.0, 1.0, 4)  # heavy ties: every value repeats hundreds of times
        yield f"ties{seed}", SequenceWindow(rng.choice(levels, int(rng.integers(800, 3000))))
    yield "blocks5", build_block_sequence(5)
    yield "constant", SequenceWindow(np.full(500, 0.3))
    # a span below 1e-12 is degenerate, yet its order statistics differ
    jitter = np.random.default_rng(7).integers(-4, 5, 700) * 1e-14
    yield "near-constant", SequenceWindow(1.0 + jitter)


WINDOWS = dict(_windows())


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("name", list(WINDOWS))
def test_read_off_equals_order_statistics(name, spec):
    window = WINDOWS[name]
    model = parse_ideal_spec(spec, window.horizon)
    report = analyze_window(window, model)
    assert report.liminf.hex() == ideal_liminf(window, model).hex()
    assert report.limsup.hex() == ideal_limsup(window, model).hex()
    assert report.degenerate == name.endswith("constant")


def test_near_constant_window_has_distinct_extremes():
    window = WINDOWS["near-constant"]
    report = analyze_window(window, parse_ideal_spec("fin", window.horizon))
    assert report.degenerate and report.liminf < 1.0 < report.limsup


@pytest.mark.parametrize(
    "window",
    [build_block_sequence(2), SequenceWindow(np.random.default_rng(5).normal(size=140))],
    ids=["blocks2", "random140"],
)
def test_unbounded_window_raises_the_same_error(window):
    # finite-trace at these horizons leaves at most ``budget`` counted values
    # after burn-in, so no rank holds the liminf
    model = parse_ideal_spec("finite-trace:auto", window.horizon)
    with pytest.raises(UnboundedWindowError) as direct:
        ideal_liminf(window, model)
    with pytest.raises(UnboundedWindowError) as read_off:
        analyze_window(window, model)
    assert str(read_off.value) == str(direct.value)


def test_signed_zeros_at_rank_k():
    # -0.0 and 0.0 compare equal, so which one an unstable sort leaves at
    # rank k depends on its algorithm (and the CPU it dispatches to); the
    # report carries the one the cluster pass's np.sort left there
    n = 1000
    post = np.r_[[-1.0] * 4, [1.0] * 4, np.tile([-0.0, 0.0], 480)]
    np.random.default_rng(3).shuffle(post)
    window = SequenceWindow(np.r_[np.full(burn_in(n), 2.0), post])
    model = parse_ideal_spec("density:0.01", n)
    k = model.budget()
    assert k == 9
    report = analyze_window(window, model)
    assert report.liminf == 0.0 and report.limsup == 0.0
    sorted_post = np.sort(window.scalars()[burn_in(n):])
    assert report.liminf.hex() == float(sorted_post[k]).hex()
    assert report.limsup.hex() == float(sorted_post[-1 - k]).hex()
