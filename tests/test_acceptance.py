"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured-output section) and enforces its runtime budget.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from conftest import alternating_window, periodic_noise_window, random_two_branch_system
from turnlab.analysis import (
    analyze_window,
    check_image_cluster_identity,
    check_representation_identity,
    cluster_points,
    default_grid,
    ideal_liminf,
)
from turnlab.dynamics import fixed_points
from turnlab.ideals import IdealModel, parse_ideal_spec
from turnlab.optimizer import SearchConfig, exhaustive_maxmin, maxmin_search
from turnlab.scenarios import (
    build_block_sequence,
    build_counterexample_system,
    build_ifs_system,
    build_l2_truncation,
    build_weak_separation_system,
)
from turnlab.verifier import (
    SamplingPlan,
    check_conditions,
    check_separation_variants,
    t_hat_batch,
    turnpike_verdict,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({self.elapsed:.1f}s / {self.seconds:.0f}s)")
        if exc_type is None:
            assert self.elapsed <= self.seconds, (
                f"{self.name} exceeded its runtime budget: "
                f"{self.elapsed:.1f}s > {self.seconds:.0f}s"
            )
        return False


def test_criterion_1_block_sequence_reproduction():
    with Budget("1 block-sequence reproduction", 30):
        window = build_block_sequence(10)
        assert window.horizon == 4_038_013
        vals = window.scalars()
        assert vals.min() == -1.0 and vals.max() == 1.0

        dens = IdealModel("density", window.horizon, threshold=0.01)
        report = analyze_window(window, dens, limit_eps=0.1)
        assert report.converges_to is not None
        assert abs(report.converges_to[0]) <= 0.1
        rung = report.ladder[0]
        assert rung["scale"] == 0.1
        assert rung["upper_density"] <= 0.02
        assert rung["small"]

        fin = IdealModel("fin", window.horizon)
        report_fin = analyze_window(window, fin, limit_eps=0.1)
        assert report_fin.converges_to is None


def test_criterion_2_cluster_and_representation_oracles():
    with Budget("2 cluster/representation oracles", 10):
        window = alternating_window(20_000)
        dens = IdealModel("density", 20_000)
        eps = default_grid(window)
        pts = cluster_points(window, dens, eps_grid=eps)
        assert pts.shape == (2, 1)
        assert abs(pts[0, 0] - (-1.0)) <= eps and abs(pts[1, 0] - 1.0) <= eps
        assert abs(ideal_liminf(window, dens) - (-1.0)) <= eps

        for seed in range(20):
            w, _ = periodic_noise_window(seed, n=20_000, noise_density=0.001)
            rep = check_representation_identity(w, lambda p: p[..., 0], IdealModel("density", 20_000))
            assert rep.passed, f"seed {seed}: {rep.to_dict()}"


def test_criterion_3_image_cluster_identity():
    maps = {
        "square": lambda t: t**2,
        "cube": lambda t: t**3,
        "abs": lambda t: np.abs(t),
    }
    with Budget("3 image-cluster identity", 20):
        for seed in range(25):
            w, _ = periodic_noise_window(seed + 300, n=12_000, noise_density=0.0005, spread=2.0)
            model = IdealModel("density", 12_000)
            for name, h in maps.items():
                rep = check_image_cluster_identity(w, h, model)
                assert rep.passed, (
                    f"seed {seed} map {name}: distance {rep.distance} "
                    f"above tolerance {rep.tolerance}"
                )


def test_criterion_4_counterexample_reproduction():
    with Budget("4 counterexample reproduction", 60):
        n = 4096
        cfg = SearchConfig(horizon=n, beam_width=64, state_grid=1e-3)
        plan = SamplingPlan(n_points=10_000, seed=0)

        trace_model = parse_ideal_spec("finite-trace:auto", n)
        sys_trace = build_counterexample_system(trace_model)
        rep_trace = maxmin_search(sys_trace, cfg)
        assert rep_trace.objective >= 1.0 - 1e-9
        assert set(rep_trace.path.trace) == {0}  # pure alternation
        verdict_trace = turnpike_verdict(
            rep_trace.path, sys_trace.eta_star, trace_model, (1e-1, 1e-2, 1e-3)
        )
        assert verdict_trace.verdict is False
        cond_trace = check_conditions(sys_trace, plan)
        assert cond_trace.verdict("A3") == "fail"

        dens_model = parse_ideal_spec("density:0.01", n)
        sys_dens = build_counterexample_system(dens_model)
        rep_dens = maxmin_search(sys_dens, cfg)
        assert rep_dens.objective <= 1e-3
        verdict_dens = turnpike_verdict(
            rep_dens.path, sys_dens.eta_star, dens_model, (1e-1, 1e-2, 1e-3)
        )
        assert verdict_dens.verdict is True
        cond_dens = check_conditions(sys_dens, plan)
        assert cond_dens.all_pass, {
            k: v["verdict"] for k, v in cond_dens.conditions.items()
        }


def test_criterion_5_optimizer_oracle_equivalence():
    with Budget("5 optimizer oracle equivalence", 30):
        n = 12
        ideals = (
            None,  # the system's own fin model
            IdealModel("density", n, threshold=0.2),
            IdealModel("finite_trace", n, cutoff=1, trace="evens"),
        )
        for seed, ideal in itertools.product(range(10), ideals):
            sys_inst = random_two_branch_system(seed, n)
            if ideal is not None:
                sys_inst = dataclasses.replace(sys_inst, ideal=ideal)
            oracle = exhaustive_maxmin(sys_inst, n)
            beam = maxmin_search(
                sys_inst,
                SearchConfig(horizon=n, beam_width=2048, state_grid=1e-12),
            )
            case = f"seed {seed}, {sys_inst.ideal.kind}"
            assert beam.objective == oracle.objective, case
            assert beam.path.trace == oracle.path.trace, case


def test_criterion_6_ifs_turnpike():
    with Budget("6 IFS turnpike", 5):
        n = 200
        fin = IdealModel("fin", n)
        sys_inst = build_ifs_system([(0.5, 0.0), (0.3, 0.7)], fin)
        pts = fixed_points(sys_inst.phi, sys_inst.box)
        np.testing.assert_allclose(pts.ravel(), [0.0, 1.0], atol=1e-8)
        assert sys_inst.eta_star[0] == pytest.approx(1.0, abs=1e-12)

        rep = maxmin_search(sys_inst, SearchConfig(horizon=n, beam_width=64, state_grid=1e-6))
        assert abs(rep.path.points[-1, 0] - 1.0) <= 1e-6
        verdict = turnpike_verdict(rep.path, sys_inst.eta_star, fin, (1e-3, 1e-4))
        assert verdict.verdict is True


def test_criterion_7_l2_truncation():
    with Budget("7 l2 truncation", 60):
        d, n = 8, 10_000
        rng = np.random.default_rng(7)
        x_star = rng.uniform(-1.0, 1.0, d)
        x_star *= 0.9 / max(1.0, float(np.sqrt((x_star**2).sum())))
        assert np.sqrt((x_star**2).sum()) <= 1.0
        dens = IdealModel("density", n)
        sys_inst = build_l2_truncation(d, x_star, dens)

        conditions = check_conditions(sys_inst, SamplingPlan(n_points=10_000, seed=0))
        assert conditions.all_pass, {
            k: v["verdict"] for k, v in conditions.conditions.items()
        }

        assert t_hat_batch(sys_inst, sys_inst.eta_star[None, :])[0] == 0.0

        probes = rng.uniform(-1.0, 1.0, (4 * 10_000, d))
        probes = probes[probes[:, 0] > 0.0][:10_000]
        assert probes.shape[0] == 10_000
        gains = t_hat_batch(sys_inst, probes)
        assert np.all(gains < 0.0)

        rep = maxmin_search(
            sys_inst, SearchConfig(horizon=n, beam_width=8, state_grid=1e-3)
        )
        verdict = turnpike_verdict(rep.path, sys_inst.eta_star, dens, (1e-3,))
        assert verdict.verdict is True


def test_criterion_8_separation_variant_discrimination():
    with Budget("8 separation-variant discrimination", 5):
        plan = SamplingPlan(n_points=4000, seed=1)
        crafted = build_weak_separation_system(IdealModel("fin", 4096))
        rep = check_separation_variants(crafted, plan)
        assert rep.weak_holds and not rep.strong_holds
        assert rep.strong_witness == {"x": [0.0], "y": [1.0]}

        flip = build_counterexample_system(IdealModel("density", 4096))
        rep2 = check_separation_variants(flip, plan)
        assert rep2.strong_holds and rep2.weak_holds
