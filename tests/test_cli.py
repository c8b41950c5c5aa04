import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import turnlab
import turnlab.cli as cli
from turnlab.cli import build_parser, main, resolve_config


@pytest.fixture()
def alt_file(tmp_path):
    f = tmp_path / "seq.txt"
    np.savetxt(f, np.where(np.arange(4000) % 2 == 0, 1.0, -1.0))
    return f


def _load(path):
    return json.loads(path.read_text())


def test_analyze_classical(alt_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["analyze", "--input", str(alt_file), "--ideal", "fin", "--out-dir", str(out)]
    )
    assert code == 0
    rep = _load(out / "analyze.json")
    pts = sorted(p[0] for p in rep["results"]["cluster_points"])
    assert pts == [-1.0, 1.0]
    assert rep["results"]["converges_to"] is None
    assert rep["config"]["ideal"] == "fin"


def test_analyze_csv_columns(alt_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            str(alt_file),
            "--ideal",
            "density:0.01",
            "--output",
            "both",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    header = (out / "analyze.csv").read_text().splitlines()[0]
    assert header == "n,x_0,u,dist_to_eta_star"


def test_reproduce_counterexample_trace_small_horizon(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "reproduce",
            "counterexample",
            "--ideal",
            "finite-trace:auto",
            "--horizon",
            "512",
            "--probes",
            "1000",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rep = _load(out / "reproduce-counterexample.json")
    assert rep["results"]["reproduced"] is True
    assert rep["results"]["optimizer"]["objective"] >= 1 - 1e-9
    assert rep["results"]["turnpike"]["verdict"] is False
    assert rep["results"]["conditions"]["conditions"]["A3"]["verdict"] == "fail"


def test_reproduce_ifs(tmp_path):
    out = tmp_path / "out"
    code = main(["reproduce", "ifs", "--out-dir", str(out)])
    assert code == 0
    rep = _load(out / "reproduce-ifs.json")
    assert rep["results"]["reproduced"] is True
    assert rep["results"]["fixed_points"] == [[pytest.approx(0.0, abs=1e-8)], [pytest.approx(1.0, abs=1e-8)]]
    assert rep["results"]["final_gap"] <= 1e-6


def test_optimize_command_csv(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "optimize",
            "--scenario",
            "counterexample",
            "--ideal",
            "density:0.01",
            "--horizon",
            "256",
            "--beam",
            "16",
            "--output",
            "both",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rep = _load(out / "optimize-counterexample.json")
    assert rep["results"]["optimizer"]["consistent"] is True
    header = (out / "optimize-counterexample.csv").read_text().splitlines()[0]
    assert header == "n,x_0,u,dist_to_eta_star"


def test_verify_command(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "verify",
            "--scenario",
            "counterexample",
            "--ideal",
            "density:0.01",
            "--horizon",
            "1024",
            "--probes",
            "1000",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rep = _load(out / "verify-counterexample.json")
    verdicts = {k: v["verdict"] for k, v in rep["results"]["conditions"]["conditions"].items()}
    assert all(v == "pass" for v in verdicts.values())
    assert rep["results"]["separation"]["strong_holds"] is True


def test_verify_finds_the_worst_small_set(tmp_path, capsys):
    # the 100 odd indices are small under finite-trace:auto (evens, cutoff
    # 64); shifted by 1 they hold 99 evens below the horizon
    out = tmp_path / "out"
    argv = ["verify", "--scenario", "counterexample", "--ideal", "finite-trace:auto"]
    assert main(argv + ["--horizon", "200", "--out-dir", str(out)]) == 1
    assert "A3: fail" in capsys.readouterr().out
    a3 = _load(out / "verify-counterexample.json")["results"]["conditions"]["conditions"]["A3"]
    assert a3["witness"] == {"shift": 1, "set_size": 100, "set_head": list(range(1, 24, 2))}


def test_verify_ifs_reference_orbit_follows_its_expand_branch(tmp_path, capsys):
    # branches 0 and 1 coincide at the start x0 = 0 (both give 0.5); the
    # reference orbit follows branch 1, whose fixed point 1.25 is the largest
    out = tmp_path / "out"
    argv = ["verify", "--scenario", "ifs", "--branches", "0.1,0.5:0.6,0.5:0.2,0"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert "A6: pass" in capsys.readouterr().out
    a6 = _load(out / "verify-ifs.json")["results"]["conditions"]["conditions"]["A6"]
    assert a6["reference_liminf"] == pytest.approx(1.25) and a6["u_eta_star"] == 1.25


def test_report_determinism_excludes_meta(alt_file, tmp_path):
    out = tmp_path / "out"
    args = ["analyze", "--input", str(alt_file), "--ideal", "fin", "--out-dir", str(out)]
    assert main(args) == 0
    first = (out / "analyze.json").read_text()
    assert main(args) == 0
    second = (out / "analyze.json").read_text()
    a, b = json.loads(first), json.loads(second)
    a.pop("meta"), b.pop("meta")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_config_file_ini(alt_file, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nideal = fin\ninput = {alt_file}\nout_dir = {tmp_path/'o'}\n")
    assert main(["analyze", "--input", str(alt_file), "--config", str(cfg)]) == 0


def test_config_file_json(alt_file, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ideal": "fin", "out_dir": str(tmp_path / "o")}))
    assert main(["analyze", "--input", str(alt_file), "--config", str(cfg)]) == 0


def test_unknown_config_key_rejected(alt_file, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"idael": "fin"}))
    assert main(["analyze", "--input", str(alt_file), "--config", str(cfg)]) == 2


def test_unknown_scenario_exit_2(tmp_path):
    assert main(["reproduce", "counterexample", "--ideal", "maximal"]) == 2


def test_unreadable_input_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("one two three\nnot a number\n")
    assert main(["analyze", "--input", str(bad)]) == 2


def test_missing_input_exit_2(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "nope.txt")]) == 2


OPT = ["optimize", "--scenario", "counterexample"]


@pytest.mark.parametrize(
    "argv, config, says",
    [
        (["verify", "--scenario", "l2", "--dim", "9"], None, ""),
        (["optimize", "--scenario", "l2", "--beam", "0"], None, ""),
        (["verify", "--scenario", "ifs", "--branches", "1.5,0"], None, ""),
        (["verify", "--scenario", "counterexample", "--ideal", "fin:abc"], None, ""),
        (["reproduce", "blocks", "--k-max", "13"], None, ""),
        (["reproduce", "l2", "--horizon", "-3"], None, ""),
        (["optimize", "--scenario", "l2", "--dim", "-1"], None, ""),
        # the dimension is checked before anything is drawn or allocated
        (["optimize", "--scenario", "l2", "--dim", "100000000", "--horizon", "8"], None, "[2, 8]"),
        (["optimize", "--scenario", "l2", "--dim", "1000000000000", "--horizon", "8"], None, "[2, 8]"),
        (["reproduce", "blocks", "--theta", "2"], None, ""),
        (["optimize", "--scenario", "l2", "--seed", "-1"], None, ""),
        (["reproduce", "l2", "--seed", "-1"], None, ""),
        (["optimize", "--scenario", "l2", "--grid", "1e-300", "--horizon", "256"], None, ""),
        # branch 0's fixed point b/(1 - a) overflows, a one-point file has no window to analyze
        (["optimize", "--scenario", "ifs", "--branches", "0.5,1e308:0.2,0"], None, "branch 0"),
        # finite fixed points +-2e154 and +-1.6e308, box spans whose squares overflow
        (["verify", "--scenario", "ifs", "--branches", "0.5,1e154:0.5,-1e154"], None, "branch 0"),
        (["optimize", "--scenario", "ifs", "--branches", "0.5,1e154:0.5,-1e154"], None, "branch 0"),
        (["verify", "--scenario", "ifs", "--branches", "0.5,8e307:0.5,-8e307"], None, "branch 0"),
        (["analyze", "--input", "one-point.txt"], None, "at least two"),
        (OPT, b'{"beam": 2.7}', ""),
        (OPT, b'{"beam": true}', ""),
        (OPT, b'{"output": "xml"}', ""),
        (OPT, b"[run]\nbeam = 2.7\n", ""),
        (OPT, b"[run]\noutput = xml\n", ""),
        (OPT, b"beam = 3\n", ""),
        (OPT, b"[run]\nbeam = 3\n  garbage\nnot an option line\n", ""),
        (OPT, b"\x80\xff", ""),
        # trim is no config key: the ideal's threshold sets the search trim
        (OPT, b'{"trim": 0.1}', "trim"),
        (OPT, b"[run]\ntrim = 0.1\n", "trim"),
        # an --out-dir naming a file, or a path under one, fails before any stage runs
        (OPT + ["--horizon", "64", "--out-dir", "a-file"], None, "--out-dir"),
        (OPT + ["--horizon", "64", "--out-dir", "a-file/out"], None, "--out-dir"),
        (["verify", "--scenario", "ifs", "--out-dir", "a-file"], None, "--out-dir"),
        (["verify", "--scenario", "ifs", "--out-dir", "a-file/out"], None, "--out-dir"),
        (["analyze", "--input", "two-points.txt", "--out-dir", "a-file"], None, "--out-dir"),
        (["analyze", "--input", "two-points.txt", "--out-dir", "a-file/out"], None, "--out-dir"),
    ],
    ids=[
        "dim-9", "beam-0", "branches-slope-1.5", "ideal-fin-abc", "k-max-13", "horizon-neg-3",
        "dim-neg-1", "dim-1e8", "dim-1e12", "blocks-theta-2", "optimize-seed-neg-1", "reproduce-seed-neg-1",
        "grid-past-int64-cells", "branches-fixed-point-overflow",
        "verify-branches-span-1e154", "optimize-branches-span-1e154", "verify-branches-span-8e307",
        "analyze-one-point",
        "json-beam-2.7", "json-beam-true", "json-output-xml",
        "ini-beam-2.7", "ini-output-xml", "ini-no-section", "ini-parse-error", "config-not-text",
        "json-trim", "ini-trim",
        "optimize-out-dir-file", "optimize-out-dir-under-file",
        "verify-out-dir-file", "verify-out-dir-under-file",
        "analyze-out-dir-file", "analyze-out-dir-under-file",
    ],
)
def test_bad_setting_exit_2_one_line_error(argv, config, says, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one-point.txt").write_text("0.5\n")
    (tmp_path / "two-points.txt").write_text("0.5\n0.25\n")
    (tmp_path / "a-file").write_text("")
    if config is not None:
        (tmp_path / "run.cfg").write_bytes(config)
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    if "--out-dir" not in argv:
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err
    assert not (tmp_path / "out").exists()


TOO_FEW = "trace class has too few elements below the horizon"
NO_LIMINF = "search: no threshold r makes liminf finite"


@pytest.mark.parametrize(
    "horizon, code, says",
    [(64, 2, TOO_FEW), (100, 2, TOO_FEW), (128, 2, TOO_FEW), (140, 2, NO_LIMINF), (141, 0, "")],
)
def test_finite_trace_short_horizons(horizon, code, says, tmp_path, capsys):
    # the trace cutoff is min(64, N // 2): for an even N up to 128 the even
    # class holds exactly the cutoff, and up to N = 140 the even indices past
    # the burn-in of ceil(sqrt(N)) are at most 64, so the liminf is unbounded
    argv = OPT + ["--ideal", "finite-trace:auto", "--horizon", str(horizon)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and says in err
    else:
        assert err == ""


@pytest.mark.parametrize(
    "argv, builder, what",
    [
        (["verify", "--scenario", "ifs"], "check_conditions", "condition battery"),
        (OPT, "maxmin_search", "search"),
    ],
    ids=["verify", "optimize"],
)
@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB", ""], ids=["numpy", "bare"])
def test_memory_error_exit_2_one_line_error(
    argv, builder, what, message, tmp_path, capsys, monkeypatch
):
    # a value too large to allocate for (a --probes or --horizon of 1e11)
    # is a configuration error, not a traceback
    def build(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, builder, build)
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {what}: {message or 'out of memory'}\n"
    assert not (tmp_path / "out").exists()


def test_trim_option_is_gone(capsys):
    # the ideal's threshold sets the density trim; no option is parsed for it
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--help"])
    assert exc.value.code == 0 and "--trim" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(OPT + ["--trim", "0.1"])
    assert exc.value.code == 2 and "unrecognized arguments: --trim" in capsys.readouterr().err


def test_verify_ifs_branches_below_the_span_limit_run_clean(tmp_path):
    # fixed points +-2e152: the box span's square stays finite, so no overflow warning
    argv = ["verify", "--scenario", "ifs", "--branches", "0.5,1e152:0.5,-1e152"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("grid", [[], ["--grid", "1"]], ids=["default-grid", "grid-1"])
def test_analyze_span_past_float_range_exit_2_without_warnings(grid, tmp_path, capsys):
    # max - min of +-1e308 overflows; the error names the span, not an eps_grid nobody set
    values = tmp_path / "values.txt"
    values.write_text("1e308\n-1e308\n0.5\n" * 10)
    argv = ["analyze", "--input", str(values), *grid, "--out-dir", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "span more than the float range" in err and "eps_grid" not in err


def test_grid_below_float_resolution_exit_2(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("1\n2\n3\n")
    argv = ["analyze", "--input", str(values), "--grid", "1e-17"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eps_grid" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "counterexample"],
        ["reproduce", "counterexample"],
        ["reproduce", "l2"],
    ],
    ids=["verify-counterexample", "reproduce-counterexample", "reproduce-l2"],
)
def test_zero_probes_exit_2_one_line_error(argv, tmp_path, capsys):
    assert main(argv + ["--probes", "0", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --probes") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exit_2(alt_file, tmp_path, capsys):
    code = main(["analyze", "--input", str(alt_file), "--config", str(tmp_path / "none.ini")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, theta",
    [
        (["analyze"], "-1"),
        (["analyze"], "1.5"),
        (["optimize", "--scenario", "ifs"], "nan"),
        (["optimize", "--scenario", "l2"], "0"),
        (["verify", "--scenario", "ifs"], "2"),
        (["reproduce", "ifs"], "-1"),
        (["reproduce", "l2"], "1"),
    ],
    ids=["-1", "1.5", "optimize-nan", "optimize-0", "verify-2", "reproduce-neg-1", "reproduce-1"],
)
def test_theta_outside_unit_interval_exit_2(command, theta, alt_file, tmp_path, capsys):
    # checked with the other settings, before any stage: every command reads theta into its config
    given = ["--input", str(alt_file)] if command == ["analyze"] else []
    argv = [*command, *given, "--theta", theta]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "optimize", "verify", "reproduce"])
def test_negative_grid_exit_2(command, alt_file, tmp_path, capsys):
    target = {
        "analyze": ["--input", str(alt_file)],
        "optimize": ["--scenario", "ifs"],
        "verify": ["--scenario", "ifs"],
        "reproduce": ["ifs"],
    }
    argv = [command, *target[command], "--grid", "-0.5"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--scenario", "l2", "--grid", "nan"],
        ["optimize", "--scenario", "l2", "--grid", "inf"],
        ["reproduce", "counterexample", "--grid", "nan"],
        ["analyze", "--grid", "nan"],
        ["analyze", "--grid", "inf"],
    ],
    ids=lambda argv: "-".join(argv[i] for i in (0, -1)),
)
def test_non_finite_grid_exit_2(argv, alt_file, tmp_path, capsys):
    if argv[0] == "analyze":
        argv = [*argv, "--input", str(alt_file)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive and finite" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "counterexample"],
        ["verify", "--scenario", "ifs"],
        ["verify", "--scenario", "l2"],
        ["reproduce", "counterexample"],
        ["reproduce", "l2"],
    ],
    ids=lambda argv: "-".join(argv[i] for i in (0, -1)),
)
def test_horizon_below_translation_shifts_exit_2(argv, tmp_path, capsys):
    # the A3 check shifts by +-7, which needs a horizon of at least 15
    assert main(argv + ["--horizon", "14", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shift" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_zero_horizon_means_default(tmp_path):
    # resolve_config fills the per-scenario ideal and horizon: fin and 200
    # for ifs, density:0.01 and 4096 otherwise; analyze has no scenario,
    # not even one named in a config file
    cfg = tmp_path / "ifs.json"
    cfg.write_text(json.dumps({"scenario": "ifs"}))
    commands = {
        "analyze": (["analyze", "--input", "seq.txt"], "", "density:0.01", 4096),
        "analyze-config": (["analyze", "--input", "seq.txt", "--config", str(cfg)], "", "density:0.01", 4096),
        "verify-ifs": (["verify", "--scenario", "ifs"], "ifs", "fin", 200),
        "optimize-l2": (["optimize", "--scenario", "l2"], "l2", "density:0.01", 4096),
        "reproduce-blocks": (["reproduce", "blocks"], "blocks", "density:0.01", 4096),
    }
    for name, (argv, scenario, ideal, default) in commands.items():
        for horizon, want in (([], default), (["--horizon", "0"], default), (["--horizon", "300"], 300)):
            config = resolve_config(build_parser().parse_args(argv + horizon))
            got = (config.scenario, config.ideal, config.horizon)
            assert got == (scenario, ideal, want), (name, horizon)
        config = resolve_config(build_parser().parse_args(argv + ["--ideal", "fin:3"]))
        assert config.ideal == "fin:3", name


def test_beam_step_counters_go_to_meta(tmp_path):
    out = tmp_path / "out"
    opt = ["optimize", "--scenario", "counterexample", "--horizon", "256", "--beam", "16"]
    assert main([*opt, "--out-dir", str(out)]) == 0
    assert main(["reproduce", "ifs", "--out-dir", str(out)]) == 0
    for name in ("optimize-counterexample.json", "reproduce-ifs.json"):
        rep = _load(out / name)
        counters = rep["meta"]["counters"]
        assert sorted(counters) == ["beam_steps_expanded", "beam_steps_replayed"]
        assert sum(counters.values()) == rep["results"]["optimizer"]["path_length"] - 1
        assert "counters" not in json.dumps(rep["results"])
    # the ifs beam settles on the fixed point 1 long before its 200 steps end
    assert counters["beam_steps_replayed"] > 0


@pytest.mark.parametrize(
    "argv, name, dim",
    [
        (["analyze", "--ideal", "fin"], "analyze", 1),
        (["optimize", "--scenario", "counterexample"], "optimize-counterexample", 1),
        (["reproduce", "blocks", "--k-max", "6"], "reproduce-blocks", 1),
        (["reproduce", "counterexample"], "reproduce-counterexample", 1),
        (["reproduce", "ifs"], "reproduce-ifs", 1),
        (["reproduce", "l2"], "reproduce-l2", 8),
        (["verify", "--scenario", "counterexample"], "verify-counterexample", None),
    ],
    ids=[
        "analyze", "optimize", "reproduce-blocks", "reproduce-counterexample", "reproduce-ifs",
        "reproduce-l2", "verify",
    ],
)
def test_output_both_writes_the_path_csv(argv, name, dim, alt_file, tmp_path):
    # analyze and reproduce blocks tabulate their window, the commands
    # that search their optimizer path; verify has no path
    if argv[0] == "analyze":
        argv = [*argv, "--input", str(alt_file)]
    elif argv[1] != "blocks":
        argv = [*argv, "--horizon", "256", "--probes", "200"]
    out = tmp_path / "out"
    assert main([*argv, "--output", "both", "--out-dir", str(out)]) in (0, 1)
    if dim is None:
        assert sorted(p.name for p in out.iterdir()) == [f"{name}.json"]
        return
    results = _load(out / f"{name}.json")["results"]
    lines = (out / f"{name}.csv").read_text().splitlines()
    assert lines[0] == ",".join(["n", *(f"x_{i}" for i in range(dim)), "u", "dist_to_eta_star"])
    if "optimizer" in results:
        assert len(lines) - 1 == results["optimizer"]["path_length"]
    else:
        assert len(lines) - 1 == results.get("length", 4000)


def test_config_file_scenario_leaves_analyze_alone(alt_file, tmp_path):
    # analyze has no scenario: ifs's defaults (fin, horizon 200) must not apply
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "ifs"}))
    reports = []
    for extra in ([], ["--config", str(cfg)]):
        out = tmp_path / f"out{len(reports)}"
        assert main(["analyze", "--input", str(alt_file), "--out-dir", str(out), *extra]) == 0
        rep = _load(out / "analyze.json")
        rep["config"].pop("out_dir")
        reports.append({k: rep[k] for k in ("config", "results")})
    assert reports[1]["config"]["ideal"] == "density:0.01"
    assert reports[1]["config"]["scenario"] == ""
    assert reports[0] == reports[1]


def _path_csv_by_rows(file, pts, u_values, eta_star):
    """The path CSV written one row at a time through ``csv.writer``:
    the reference ``write_path_csv`` must match byte for byte."""
    import csv

    d = pts.shape[1]
    target = None if eta_star is None else np.asarray(eta_star, dtype=float).ravel()
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"x_{i}" for i in range(d)] + ["u", "dist_to_eta_star"])
        for n in range(pts.shape[0]):
            dist = "" if target is None else f"{float(np.sqrt(((pts[n] - target) ** 2).sum())):.12g}"
            writer.writerow(
                [n] + [f"{v:.12g}" for v in pts[n]] + [f"{float(u_values[n]):.12g}", dist]
            )


@pytest.mark.parametrize("with_target", [False, True], ids=["no-target", "target"])
@pytest.mark.parametrize("d", [1, 2, 8])
def test_path_csv_bytes_match_row_writer(d, with_target, tmp_path):
    from turnlab.cli import RunConfig, write_path_csv

    rng = np.random.default_rng(d)
    n = 20_000  # more than one formatting span
    pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-30, 30, (n, d))
    pts[rng.random((n, d)) < 0.05] = -0.0
    pts[rng.random((n, d)) < 0.05] = 5e-324
    pts[rng.random((n, d)) < 0.05] = -2.2e-310
    pts[:3, 0] = [np.nan, np.inf, -np.inf]
    u_values = pts[:, -1] / 3.0
    target = rng.normal(size=d) if with_target else None
    _path_csv_by_rows(tmp_path / "rows.csv", pts, u_values, target)
    file = write_path_csv(RunConfig(command="analyze", out_dir=str(tmp_path)), pts, u_values, target, "path")
    assert file.read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, unbuffered):
    # `turnlab optimize ... | head -0`: the reader is gone before the first line
    src = str(Path(turnlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # Python reads an empty PYTHONUNBUFFERED as unset
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1" if unbuffered else "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "turnlab.cli", "optimize", "--scenario", "ifs", "--out-dir", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
