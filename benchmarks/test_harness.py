"""Tests of the benchmark harness itself: span arithmetic, the expected
verdict table, report digests and the span wrappers.

Run with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tracing import LAYER_METRICS, Tracer, covered, instrumented, layer_metrics, summarize
from workloads import (
    CLI_SEEDS,
    WORKLOADS,
    Invocation,
    check_results,
    cli_seed,
    invocations,
    make_levels,
    results_digest,
)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


# ---------------------------------------------------------------------------
# self time: a span minus the union of its children


def test_covered_merges_overlapping_children_and_clips_to_the_span():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert covered([(2, 4), (2, 4)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_subtracts_children_and_totals_skip_recursion():
    t = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 8, 10))
    with t.span("outer"):  # 0 .. 10
        with t.span("inner"):  # 1 .. 3
            pass
        with t.span("inner"):  # 4 .. 8
            with t.span("inner"):  # 5 .. 6, a recursive call
                pass
    rows = summarize(t.spans)
    assert rows["outer"]["calls"] == 1
    assert rows["outer"]["total_s"] == pytest.approx(10.0)
    assert rows["outer"]["self_s"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert rows["inner"]["calls"] == 3
    assert rows["inner"]["total_s"] == pytest.approx(2.0 + 4.0)  # recursion counted once
    assert rows["inner"]["self_s"] == pytest.approx(2.0 + (4.0 - 1.0) + 1.0)


def test_wrapped_calls_record_payloads_and_metrics_cover_every_name():
    t = Tracer(clock=fake_clock(*range(100)))
    fake_report = type("R", (), {"frontier_sizes": ((1, 1), (4, 2), (8, 2))})()
    search = t.wrap("optimizer.maxmin_search", lambda: fake_report)
    with t.span("cli"):
        search()
    values = layer_metrics(t.spans, cpu_s=1.5, report_bytes=10, overhead_s=0.25)
    assert [n for n, _, _ in LAYER_METRICS] == list(values)
    assert values["optimizer.steps"] == 2
    assert values["optimizer.candidates"] == 12
    assert values["optimizer.kept"] == 4
    assert values["optimizer.kept_ratio"] == pytest.approx(4 / 12)
    assert values["optimizer.maxmin_search_s"] == pytest.approx(1.0)
    assert values["cli.self_s"] == pytest.approx(3.0 - 1.0)
    assert values["dynamics.expand_calls"] == 0  # layer never called


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == LAYER_METRICS


def test_instrumented_rebinds_every_binding_and_restores_it():
    import turnlab.analysis
    import turnlab.cli
    import turnlab.optimizer
    from turnlab.ideals import parse_ideal_spec
    from turnlab.windows import SequenceWindow

    search = turnlab.optimizer.maxmin_search
    liminf = turnlab.analysis.ideal_liminf
    t = Tracer()
    with instrumented(t):
        assert turnlab.cli.maxmin_search is turnlab.optimizer.maxmin_search
        assert turnlab.cli.maxmin_search is not search
        window = SequenceWindow(np.array([0.0, 1.0] * 50))
        turnlab.analysis.ideal_limsup(window, parse_ideal_spec("density:0.01", 100))
    assert [s[0] for s in t.spans] == ["analysis.ideal_liminf"]  # limsup calls liminf
    assert turnlab.cli.maxmin_search is search
    assert turnlab.optimizer.maxmin_search is search
    assert turnlab.analysis.ideal_liminf is liminf


# ---------------------------------------------------------------------------
# expected verdicts


def test_expected_verdict_table():
    blocks = invocations("analyze", 0, Path("levels.txt"))[:2]
    assert all(i.expect == {"reproduced": True} and i.exit_code == 0 for i in blocks)
    search = invocations("search", 0, None)
    assert [i.expect["turnpike.verdict"] for i in search] == [True, False, True, True]
    verify = {i.name: i for i in invocations("verify", 0, None)}
    trace = verify["verify-counterexample-trace"]
    assert trace.exit_code == 1
    assert trace.expect["conditions.conditions.A3.verdict"] == "fail"
    for inv in verify.values():
        assert len(inv.expect) == 6
        others = {k: v for k, v in inv.expect.items() if inv is not trace or ".A3." not in k}
        assert set(others.values()) == {"pass"}


def test_seed_maps_into_checked_cli_seeds():
    assert {cli_seed(s) for s in range(100)} == set(CLI_SEEDS)
    argv = invocations("verify", 7, None)[0].argv
    assert argv[argv.index("--seed") + 1] == str(cli_seed(7))


def conditions(**verdicts):
    return {"conditions": {"conditions": {k: {"verdict": v} for k, v in verdicts.items()}}}


def test_check_results_flags_wrong_missing_and_mistyped_values():
    inv = invocations("verify", 0, None)[1]
    good = conditions(A1="pass", A2="pass", A3="fail", A4="pass", A5="pass", A6="pass")
    assert check_results(inv, good, None) == []
    bad = conditions(A1="pass", A2="pass", A3="pass", A4="pass", A5="pass")
    problems = check_results(inv, bad, None)
    assert any("A3" in p for p in problems) and any("A6" in p and "missing" in p for p in problems)
    typed = Invocation("x", (), "x.json", expect={"reproduced": True})
    assert check_results(typed, {"reproduced": 1}, None) != []


def test_level_checks():
    levels = make_levels(3)
    gaps = np.sqrt(((levels[:, None] - levels[None]) ** 2).sum(-1))
    assert gaps[~np.eye(len(levels), dtype=bool)].min() >= 0.3
    exact = Invocation("d", (), "analyze.json", levels="exact")
    cover = Invocation("f", (), "analyze.json", levels="cover")
    found = {"cluster_points": (levels + 1e-4).tolist(), "eps_grid": 0.01}
    assert check_results(exact, found, levels) == []
    extra = {**found, "cluster_points": found["cluster_points"] + [[5.0, 5.0]]}
    assert check_results(exact, extra, levels) != []
    assert check_results(cover, extra, levels) == []
    missing = {**found, "cluster_points": found["cluster_points"][1:]}
    assert check_results(cover, missing, levels) != []


# ---------------------------------------------------------------------------
# digests


def test_digest_ignores_meta_and_config_but_not_results():
    report = {"config": {"out_dir": "a"}, "results": {"x": [1.0, 2.0]}, "meta": {"t": "1"}}
    moved = {"config": {"out_dir": "b"}, "results": {"x": [1.0, 2.0]}, "meta": {"t": "2"}}
    changed = {**report, "results": {"x": [1.0, 2.0000001]}}
    assert results_digest(report) == results_digest(moved)
    assert results_digest(report) != results_digest(changed)


def test_levels_file_is_seeded(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "POINTS", 2000)
    a, b, c = (tmp_path / f"{name}.txt" for name in "abc")
    la, lb = workloads.write_levels_file(a, 4), workloads.write_levels_file(b, 4)
    workloads.write_levels_file(c, 5)
    assert np.array_equal(la, lb) and a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    rows = np.loadtxt(a)
    assert rows.shape == (2000, 2)
    near = np.sqrt(((rows[:, None] - la[None]) ** 2).sum(-1)).min(axis=1) < 0.01
    assert near.sum() >= 2000 - int(workloads.NOISE_FRACTION * 2000)
