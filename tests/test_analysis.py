import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alternating_window, periodic_noise_window
from turnlab.analysis import (
    analyze_window,
    check_image_cluster_identity,
    check_representation_identity,
    cluster_points,
    default_grid,
    deviation_densities,
    ideal_liminf,
    ideal_limsup,
)
from turnlab.ideals import IdealModel
from turnlab.windows import SequenceWindow

DENS = IdealModel("density", 20_000)
FIN = IdealModel("fin", 20_000)
TRACE_EVENS = IdealModel("finite_trace", 20_000, trace="evens")


def test_alternating_clusters_density():
    pts = cluster_points(alternating_window(), DENS)
    assert pts.shape == (2, 1)
    np.testing.assert_allclose(pts.ravel(), [-1.0, 1.0], atol=1e-12)


def test_alternating_liminf_limsup_density():
    w = alternating_window()
    assert ideal_liminf(w, DENS) == pytest.approx(-1.0, abs=1e-6)
    assert ideal_limsup(w, DENS) == pytest.approx(1.0, abs=1e-6)


def test_alternating_no_limit_density_or_fin():
    w = alternating_window()
    assert analyze_window(w, DENS, limit_eps=0.1).converges_to is None
    assert analyze_window(w, FIN, limit_eps=0.1).converges_to is None


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
def test_limit_scales_must_be_positive_and_finite(bad):
    # a NaN or infinite scale made every deviation set empty, hence small
    w = alternating_window()
    with pytest.raises(ValueError, match="limit_eps"):
        analyze_window(w, TRACE_EVENS, limit_eps=bad)
    with pytest.raises(ValueError, match="deviation scales"):
        deviation_densities(w, np.ones(1), TRACE_EVENS, (0.1, bad))
    with pytest.raises(ValueError, match="eps_grid must be positive and finite"):
        cluster_points(w, TRACE_EVENS, eps_grid=bad)


def test_alternating_under_evens_trace():
    # odd indices are small, so the sequence settles at +1
    w = alternating_window()
    assert ideal_liminf(w, TRACE_EVENS) == pytest.approx(1.0, abs=1e-6)
    pts = cluster_points(w, TRACE_EVENS)
    assert pts.shape == (1, 1)
    lim = analyze_window(w, TRACE_EVENS, limit_eps=0.1).converges_to
    assert lim is not None and lim[0] == pytest.approx(1.0, abs=1e-6)


def test_constant_window_short_circuits():
    w = SequenceWindow(np.full(500, 3.25))
    pts = cluster_points(w, IdealModel("density", 500))
    np.testing.assert_allclose(pts, [[3.25]])
    lim = analyze_window(w, IdealModel("density", 500), limit_eps=0.1).converges_to
    np.testing.assert_allclose(lim, [3.25])


def test_constant_window_report_keeps_its_zero_grid():
    # a constant window's default grid is 0.0; the report carries it as
    # is, and the limit ladder starts at its 1e-9 floor
    rep = analyze_window(SequenceWindow(np.ones(500)), IdealModel("fin", 500))
    assert rep.eps_grid == 0.0 and rep.limit_eps == 1e-9
    assert rep.degenerate and not rep.fallback and rep.theta_effective is None
    assert [r["scale"] for r in rep.ladder] == [1e-9, 5e-10, 2.5e-10]
    np.testing.assert_array_equal(rep.converges_to, [1.0])


GRID_ENTRY_POINTS = {
    "cluster_points": lambda w, m, g: cluster_points(w, m, eps_grid=g),
    "analyze_window": lambda w, m, g: analyze_window(w, m, eps_grid=g),
    "image_identity": lambda w, m, g: check_image_cluster_identity(w, lambda t: 2 * t, m, eps_grid=g),
    "representation_identity": lambda w, m, g: check_representation_identity(
        w, lambda t: t[..., 0], m, eps_grid=g
    ),
}


@pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, np.inf])
@pytest.mark.parametrize("entry", sorted(GRID_ENTRY_POINTS))
def test_constant_window_rejects_a_bad_grid(entry, bad):
    # a constant window short-circuits before any grid is used, so the
    # caller's grid is checked first
    w = SequenceWindow(np.ones(500))
    with pytest.raises(ValueError, match="eps_grid must be positive and finite"):
        GRID_ENTRY_POINTS[entry](w, IdealModel("fin", 500), bad)


@pytest.mark.parametrize("eps_grid", [None, 1.0])
def test_overflowing_span_is_refused_before_any_grid(eps_grid):
    # the span 2e308 overflows: no default grid exists, and no grid is blamed
    w = SequenceWindow(np.tile([-1e308, 1e308, 0.0, 1.0], 100))
    with np.errstate(over="raise"), pytest.raises(ValueError, match="span more than the float range"):
        cluster_points(w, IdealModel("fin", 400), eps_grid=eps_grid)


def test_null_sequence_fin_liminf_near_zero():
    n = 10_000
    w = SequenceWindow(1.0 / (np.arange(n) + 1.0))
    assert abs(ideal_liminf(w, IdealModel("fin", n))) <= 2.0 / n + 1e-9


def test_limsup_is_exact_sign_mirror():
    w, _ = periodic_noise_window(5)
    neg = SequenceWindow(-w.values)
    assert ideal_limsup(w, DENS) == -ideal_liminf(neg, DENS)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_liminf_le_limsup(seed):
    rng = np.random.default_rng(seed)
    w = SequenceWindow(rng.uniform(-3, 3, 400))
    model = IdealModel("density", 400)
    assert ideal_liminf(w, model) <= ideal_limsup(w, model) + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_cluster_nonempty_and_within_grid(seed):
    # every bounded window reports at least one cluster point, and every
    # reported point sits within one grid cell of a visited value
    rng = np.random.default_rng(seed)
    w = SequenceWindow(rng.uniform(-1, 1, (300, 2)))
    eps = default_grid(w)
    pts = cluster_points(w, IdealModel("density", 300), eps_grid=eps)
    assert pts.shape[0] >= 1
    for p in pts:
        assert np.sqrt(((w.values - p) ** 2).sum(axis=1)).min() < eps * (1 + 1e-9)


def test_cluster_monotone_in_ideal():
    # a larger ideal sees fewer cluster points: the density cluster set
    # sits inside the classical one
    w, levels = periodic_noise_window(11, n=20_000, noise_density=0.0)
    eps = default_grid(w)
    fin_pts = cluster_points(w, FIN, eps_grid=eps)
    dens_pts = cluster_points(w, DENS, eps_grid=eps)
    for p in dens_pts:
        assert np.abs(fin_pts - p).min() <= 2 * eps


def test_image_identity_square_on_alternating():
    rep = check_image_cluster_identity(alternating_window(), lambda t: t**2, DENS)
    assert rep.passed
    np.testing.assert_allclose(np.unique(rep.lhs.ravel()), [1.0], atol=1e-9)
    np.testing.assert_allclose(rep.rhs.ravel(), [1.0], atol=1e-9)


def test_image_identity_cube_on_alternating():
    rep = check_image_cluster_identity(alternating_window(), lambda t: t**3, DENS)
    assert rep.passed
    np.testing.assert_allclose(np.sort(rep.rhs.ravel()), [-1.0, 1.0], atol=1e-9)


def test_image_identity_constant_window():
    w = SequenceWindow(np.full(400, 0.7))
    rep = check_image_cluster_identity(w, lambda t: 2 * t + 1, IdealModel("density", 400))
    assert rep.passed
    np.testing.assert_allclose(rep.lhs.ravel(), [2.4], atol=1e-9)


def test_representation_identity_alternating():
    rep = check_representation_identity(alternating_window(), lambda p: p[..., 0], DENS)
    assert rep.passed
    for v in rep.liminf_values.values():
        assert v == pytest.approx(-1.0, abs=0.02)


def test_representation_identity_three_level_cycle():
    levels = np.array([0.2, 0.5, 0.9])
    w = SequenceWindow(levels[np.arange(21_000) % 3])
    model = IdealModel("density", 21_000)
    rep = check_representation_identity(w, lambda p: p[..., 0], model)
    assert rep.passed
    for v in rep.liminf_values.values():
        assert v == pytest.approx(0.2, abs=0.01)
    for v in rep.limsup_values.values():
        assert v == pytest.approx(0.9, abs=0.01)


def test_representation_identity_constant():
    w = SequenceWindow(np.full(500, -0.4))
    rep = check_representation_identity(w, lambda p: p[..., 0], IdealModel("density", 500))
    assert rep.passed
    for v in list(rep.liminf_values.values()) + list(rep.limsup_values.values()):
        assert v == pytest.approx(-0.4, abs=1e-6)


def test_liminf_limsup_gap_tracks_limit_existence():
    # no limit: the gap is macroscopic
    w = alternating_window()
    assert ideal_limsup(w, DENS) - ideal_liminf(w, DENS) > 1.0
    # limit exists: liminf and limsup collapse to within the grid
    n = 20_000
    decaying = SequenceWindow(0.9 ** np.arange(n))
    model = IdealModel("density", n)
    eps = default_grid(decaying)
    assert analyze_window(decaying, model, limit_eps=10 * eps).converges_to is not None
    assert ideal_limsup(decaying, model) - ideal_liminf(decaying, model) <= eps


def test_analyze_window_report_fields():
    rep = analyze_window(alternating_window(), DENS)
    d = rep.to_dict()
    assert d["liminf"] == pytest.approx(-1.0, abs=1e-6)
    assert d["converges_to"] is None
    assert d["model"]["kind"] == "density"
    assert d["eps_grid"] > 0 and d["theta"] == 0.05


def test_liminf_error_when_no_essential_mass():
    # the trace class carries too few post-burn-in indices for any
    # threshold set to come out positive
    from turnlab.analysis import UnboundedWindowError

    model = IdealModel("finite_trace", 20, cutoff=9, trace="evens")
    w = SequenceWindow(np.linspace(0, 1, 20))
    with pytest.raises(UnboundedWindowError, match="essential"):
        ideal_liminf(w, model)


def test_image_identity_vector_map():
    # scalar-to-vector map: the identity holds between the planar cluster
    # sets computed on each side
    h = lambda t: np.stack([t[..., 0], t[..., 0] ** 2], axis=-1)
    rep = check_image_cluster_identity(alternating_window(), h, DENS)
    assert rep.passed
    lhs = {tuple(np.round(p, 6)) for p in rep.lhs}
    assert lhs == {(-1.0, 1.0), (1.0, 1.0)}


def test_window_validation():
    with pytest.raises(ValueError):
        SequenceWindow(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        SequenceWindow(np.empty((0, 1)))


def test_window_text_roundtrip(tmp_path):
    w = SequenceWindow(np.random.default_rng(0).uniform(-1, 1, (50, 3)))
    f = tmp_path / "w.txt"
    np.savetxt(f, w.values, fmt="%.17g")
    back = SequenceWindow.from_text(f)
    np.testing.assert_allclose(back.values, w.values)


def test_window_unreadable_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0\nnot numbers\n")
    with pytest.raises(ValueError, match="unreadable"):
        SequenceWindow.from_text(bad)


def test_report_marks_max_visit_fallback():
    # equidistributed in [0, 1): no eps-ball clears theta, so the most
    # visited cells decide and their visit share is reported
    n, eps = 3000, 0.01
    vals = (np.arange(n) * 0.6180339887498949) % 1.0
    rep = analyze_window(SequenceWindow(vals), IdealModel("density", n), eps_grid=eps)
    post = vals[int(np.ceil(np.sqrt(n))) :]
    lo = vals.min()
    centers = lo + (np.unique((post - lo) // eps) + 0.5) * eps
    top = max(int(((post > c - eps) & (post < c + eps)).sum()) for c in centers)
    d = rep.to_dict()
    assert d["fallback"] is True
    assert d["theta_effective"] == top / n < rep.theta


def test_report_without_fallback():
    window, _ = periodic_noise_window(3, n=5000)
    d = analyze_window(window, IdealModel("density", 5000)).to_dict()
    assert d["fallback"] is False and d["theta_effective"] is None


@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0, 1.5])
def test_theta_outside_unit_interval_rejected(theta):
    w = alternating_window(2000)
    with pytest.raises(ValueError, match="theta"):
        cluster_points(w, DENS, theta=theta)
    with pytest.raises(ValueError, match="theta"):
        analyze_window(w, DENS, theta=theta)


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_below_float_resolution_rejected(dim):
    # the default grid (1e-14) is below the float spacing near 1000 (1.1e-13),
    # so no grid cell holds a float of its own
    vals = np.repeat((1000.0 + np.linspace(0.0, 2e-12, 400))[:, None], dim, axis=1)
    w = SequenceWindow(vals)
    with pytest.raises(ValueError, match="eps_grid"):
        cluster_points(w, IdealModel("fin", 400))
    small = SequenceWindow(np.repeat(np.array([[1.0], [2.0], [3.0]]), dim, axis=1))
    with pytest.raises(ValueError, match="eps_grid"):
        analyze_window(small, IdealModel("fin", 3, cutoff=1), eps_grid=1e-17)
