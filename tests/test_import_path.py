"""SciPy and numpy.random stay off the CLI import path,
and beam paths stay feasible.

SciPy is a test-only dependency. The runtime needs NumPy alone: only the
``dynamics.minimize`` wrapper, which no command calls, would load SciPy.
So ``analyze``, ``optimize`` and ``verify`` never import it. Every seeded
draw comes from ``dynamics.UniformStream``, not ``numpy.random``, whose
import alone costs a command about 6 MB of peak RSS.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import turnlab
import turnlab.dynamics
from turnlab.dynamics import feasibility_check
from turnlab.ideals import parse_ideal_spec
from turnlab.optimizer import SearchConfig, maxmin_search
from turnlab.scenarios import build_counterexample_system, build_l2_truncation, l2_start


def _modules_after(code: str, package: str) -> list[str]:
    """Modules of ``package`` loaded in a fresh interpreter after running ``code``."""
    script = (
        "import contextlib, io, json, sys\n"
        f"{code}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith({package!r} + '.'))))\n"
    )
    # the child imports the same turnlab as this test process
    src = str(Path(turnlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_run(argv: list[str]) -> str:
    """Code that runs ``turnlab.cli.main`` quietly and keeps its exit code."""
    return (
        "import turnlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = turnlab.cli.main({argv!r})\n"
    )


PUBLIC = [
    "IdealModel",
    "is_small",
    "check_translation_invariance",
    "parse_ideal_spec",
    "SequenceWindow",
    "ClusterReport",
    "analyze_window",
    "cluster_points",
    "ideal_liminf",
    "ideal_limsup",
    "check_image_cluster_identity",
    "check_representation_identity",
    "FiniteBranch",
    "Interval1D",
    "TruncatedL2",
    "SystemInstance",
    "StartAt",
    "Free",
    "Path",
    "fixed_points",
    "continuity_probe",
    "feasible_path",
    "feasibility_check",
    "SearchConfig",
    "OptimReport",
    "maxmin_search",
    "exhaustive_maxmin",
    "path_objective",
    "SamplingPlan",
    "ConditionReport",
    "TurnpikeVerdict",
    "check_conditions",
    "check_separation_variants",
    "turnpike_verdict",
    "build_counterexample_system",
    "build_block_sequence",
    "build_ifs_system",
    "build_l2_truncation",
]


def test_public_surface_is_pinned():
    # a new public name is a deliberate edit of this list
    assert turnlab.__all__ == PUBLIC
    exec("from turnlab import *", {})  # every entry imports


def test_cli_import_loads_no_scipy():
    assert _modules_after("import turnlab.cli", "scipy") == []


def test_optimize_loads_no_scipy(tmp_path):
    run = _cli_run(["optimize", "--scenario", "ifs", "--out-dir", str(tmp_path)])
    assert _modules_after(run + "assert code == 0", "scipy") == []
    assert (tmp_path / "optimize-ifs.json").is_file()


def test_analyze_loads_no_scipy(tmp_path):
    data = tmp_path / "window.txt"
    np.savetxt(data, np.where(np.arange(2000) % 2 == 0, 1.0, -1.0))
    run = _cli_run(["analyze", "--input", str(data), "--out-dir", str(tmp_path)])
    assert _modules_after(run + "assert code == 0", "scipy") == []
    assert (tmp_path / "analyze.json").is_file()


def test_verify_loads_no_scipy(tmp_path):
    runs = {
        "l2": (["--ideal", "density:0.01"], 0),
        "counterexample": (["--ideal", "finite-trace:auto"], 1),
        "ifs": ([], 0),
    }
    code = "".join(
        _cli_run(["verify", "--scenario", name, *extra, "--out-dir", str(tmp_path)])
        + f"assert code == {want}\n"
        for name, (extra, want) in runs.items()
    )
    assert _modules_after(code, "scipy") == []
    for name in runs:
        assert (tmp_path / f"verify-{name}.json").is_file()


def test_commands_load_no_numpy_random(tmp_path):
    runs = {
        f"optimize-{name}": (["optimize", "--scenario", name, "--horizon", "64"], 0)
        for name in ("counterexample", "ifs", "l2")
    }
    runs |= {
        "verify-counterexample": (
            ["verify", "--scenario", "counterexample", "--ideal", "finite-trace:auto"], 1
        ),
        "verify-ifs": (["verify", "--scenario", "ifs"], 0),
        "verify-l2": (["verify", "--scenario", "l2", "--ideal", "density:0.01"], 0),
        # the short horizon fails the turnpike verdict; the draws all run
        "reproduce-l2": (["reproduce", "l2", "--horizon", "64", "--probes", "200"], 1),
    }
    code = "".join(
        _cli_run([*argv, "--out-dir", str(tmp_path)]) + f"assert code == {want}\n"
        for argv, want in runs.values()
    )
    assert _modules_after(code, "numpy.random") == []
    for name in runs:
        assert (tmp_path / f"{name}.json").is_file()


def test_minimize_is_a_module_attribute_with_nfev():
    out = turnlab.dynamics.minimize(
        lambda z: float(((z - 1.5) ** 2).sum()), np.zeros(2), method="Nelder-Mead"
    )
    assert out.nfev > 0
    assert np.allclose(out.x, 1.5, atol=1e-3)


def _l2_system(ideal):
    return build_l2_truncation(4, l2_start(4, 0), ideal)


@pytest.mark.parametrize(
    "build, spec, beam",
    [
        (_l2_system, "density:0.01", 8),
        (build_counterexample_system, "density:0.01", 16),
        (build_counterexample_system, "finite-trace:auto", 16),
    ],
)
def test_beam_path_is_feasible_branch_by_branch(build, spec, beam):
    horizon = 512
    sys_inst = build(parse_ideal_spec(spec, horizon))
    report = maxmin_search(sys_inst, SearchConfig(horizon=horizon, beam_width=beam))
    path = report.path
    assert path.points.shape[0] == horizon
    assert len(path.trace) == horizon - 1
    assert feasibility_check(path, sys_inst.phi)["feasible"]
    # every step is exactly the traced branch's child of the previous point
    for k, b in enumerate(path.trace):
        children, _, branch = sys_inst.phi.expand(path.points[k][None, :])
        assert np.array_equal(path.points[k + 1], children[np.nonzero(branch == b)[0][0]])
