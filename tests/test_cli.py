import json

import numpy as np
import pytest

from turnlab.cli import main


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "l2", "--dim", "9"],
        ["optimize", "--scenario", "l2", "--beam", "0"],
        ["verify", "--scenario", "ifs", "--branches", "1.5,0"],
        ["verify", "--scenario", "counterexample", "--ideal", "fin:abc"],
        ["reproduce", "blocks", "--k-max", "13"],
    ],
    ids=["dim-9", "beam-0", "branches-slope-1.5", "ideal-fin-abc", "k-max-13"],
)
def test_bad_setting_exit_2_one_line_error(argv, tmp_path, capsys):
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("theta", ["-1", "1.5"])
def test_theta_outside_unit_interval_exit_2(theta, alt_file, tmp_path, capsys):
    argv = ["analyze", "--input", str(alt_file), "--theta", theta]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "optimize"])
def test_negative_grid_exit_2(command, alt_file, tmp_path, capsys):
    target = {"analyze": ["--input", str(alt_file)], "optimize": ["--scenario", "ifs"]}
    argv = [command, *target[command], "--grid", "-0.5"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid" in err and err.count("\n") == 1
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
    # the A3 probe shifts by +-7, which needs a horizon of at least 15
    assert main(argv + ["--horizon", "14", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shift" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
