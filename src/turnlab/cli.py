"""Command-line front end.

Four commands:

* ``analyze`` -- cluster/limit report for a sequence window read from a
  text file (one point per line, whitespace-separated coordinates).
* ``optimize`` -- maxmin path search on a built-in scenario.
* ``verify`` -- condition battery (A1-A6) plus separation variants.
* ``reproduce`` -- full pipeline for one scenario, checked against its
  documented expected profile.

Reports are JSON (deterministic for a fixed config and seed; timestamps
live in a separate ``meta`` field) plus, with ``--output csv|both``, a
CSV path table with columns ``n, x_0..x_{d-1}, u, dist_to_eta_star``:
the window for ``analyze`` and ``reproduce blocks``, the optimizer path
for the other commands that search, none for ``verify``. Exit status: 0 for
pass verdicts, 1 for fail verdicts, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path as FilePath

import numpy as np

from turnlab import __version__
from turnlab.analysis import DEFAULT_POSITIVITY, analyze_window
from turnlab.dynamics import _sample_kept, fixed_points
from turnlab.geometry import row_spans
from turnlab.ideals import IdealSpecError, parse_ideal_spec
from turnlab.optimizer import SearchConfig, maxmin_search
from turnlab.report import Report, plain
from turnlab.scenarios import (
    SCENARIO_NAMES,
    build_block_sequence,
    build_counterexample_system,
    build_ifs_system,
    build_l2_truncation,
    l2_start,
)
from turnlab.verifier import (
    SamplingPlan,
    check_conditions,
    t_hat,
    t_hat_batch,
    turnpike_verdict,
)
from turnlab.windows import SequenceWindow


class ConfigError(ValueError):
    pass


OUTPUTS = ("json", "csv", "both")


def _checked(what: str, build, *args, **kwargs):
    """Call a library builder on command-line values.

    The scenario builders, ``SearchConfig``, ``maxmin_search`` (whose
    state grid must keep every child's cell within int64),
    ``analyze_window``, ``check_conditions`` (whose translation-invariance
    check needs a horizon above twice its largest shift) and ideal-spec
    parsing raise ValueError on values they cannot use, and MemoryError on
    values too large to allocate for; at this boundary either is a
    configuration error (exit 2), reported with ``what`` as its subject.
    """
    try:
        return build(*args, **kwargs)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{what}: {str(exc) or 'out of memory'}") from exc


@dataclass
class RunConfig(Report):
    command: str
    scenario: str = ""
    input: str = ""
    ideal: str = ""  # empty -> the scenario's default, filled by resolve_config
    horizon: int = 0  # 0 -> the scenario's default, filled by resolve_config
    beam: int = SearchConfig.beam_width
    grid: float = 0.0  # 0 -> per-command default
    theta: float = DEFAULT_POSITIVITY
    seed: int = 0
    k_max: int = 10
    dim: int = 8
    branches: str = "0.5,0:0.3,0.7"
    probes: int = SamplingPlan.n_points
    output: str = "json"
    out_dir: str = "."


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _load_config_file(path: str) -> dict:
    try:
        text = FilePath(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.reason}") from exc
    data: dict
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    except json.JSONDecodeError:
        parser = configparser.ConfigParser()
        data = {}
        try:
            parser.read_string(text)
            for section in parser.sections():
                data.update(dict(parser.items(section)))
        except configparser.Error as exc:
            message = " ".join(str(exc).split())  # configparser's span lines
            raise ConfigError(f"malformed config file {path}: {message}") from exc
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {sorted(unknown)}")
    return data


def write_report(
    config: RunConfig, results: dict, name: str, counters: dict | None = None
) -> FilePath:
    """Write ``{name}.json``: resolved config, results, and a ``meta``
    field with the timestamp and, when given, the run's work counters."""
    meta = {"created_utc": datetime.now(timezone.utc).isoformat(), "version": __version__}
    if counters:
        meta["counters"] = dict(counters)
    report = {"config": plain(config), "results": plain(results), "meta": meta}
    path = FilePath(config.out_dir) / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def write_path_csv(
    config: RunConfig, pts: np.ndarray, u_values: np.ndarray, eta_star, name: str
) -> FilePath:
    """Write ``{name}.csv``: one ``n, x_0..x_{d-1}, u, dist_to_eta_star``
    row per point in ``.12g``, the distance empty without a target, with
    csv's ``\r\n`` line ends. Rows are formatted 16,384 at a time, so
    their Python lists stay a few MB."""
    d = pts.shape[1]
    u_values = np.asarray(u_values, dtype=float).ravel()
    target = None if eta_star is None else np.asarray(eta_star, dtype=float).ravel()
    row = "%d" + ",%.12g" * (d + 1) + ("," if target is None else ",%.12g") + "\r\n"
    file = FilePath(config.out_dir) / f"{name}.csv"
    with open(file, "w", newline="") as fh:
        fh.write(",".join(["n", *(f"x_{i}" for i in range(d)), "u", "dist_to_eta_star"]) + "\r\n")
        for span in row_spans(pts.shape[0], 1 << 14):
            table = [pts[span], u_values[span, None]]
            if target is not None:
                table.append(np.sqrt(((pts[span] - target) ** 2).sum(axis=1))[:, None])
            rows = np.concatenate(table, axis=1).tolist()
            fh.writelines(row % (n, *r) for n, r in zip(range(span.start, span.stop), rows))
    return file


# ---------------------------------------------------------------------------
# scenario assembly


def _parse_ideal(config: RunConfig, horizon: int):
    return _checked(f"--ideal {config.ideal!r}", parse_ideal_spec, config.ideal, horizon)


def _build_system(config: RunConfig):
    ideal = _parse_ideal(config, config.horizon)
    what = f"scenario {config.scenario}"
    if config.scenario == "counterexample":
        return _checked(what, build_counterexample_system, ideal)
    if config.scenario == "ifs":
        pairs = []
        try:
            for chunk in config.branches.split(":"):
                a, b = chunk.split(",")
                pairs.append((float(a), float(b)))
        except ValueError as exc:
            raise ConfigError(f"malformed --branches value {config.branches!r}") from exc
        return _checked(what, build_ifs_system, pairs, ideal)
    # l2: argparse admits no other scenario here
    x_star = _checked(what, l2_start, config.dim, config.seed)
    return _checked(what, build_l2_truncation, config.dim, x_star, ideal)


# ---------------------------------------------------------------------------
# stages: each returns its results and, where it has one, its path table
# ``(points, u values, target)`` for the CSV


def _analysis(config: RunConfig, window: SequenceWindow, **kw):
    """Cluster/limit report of ``window``; its table is the window with
    the first coordinate as u and the limit as target."""
    model = _parse_ideal(config, window.horizon)
    report = _checked(
        "analyze", analyze_window, window, model,
        eps_grid=config.grid or None, theta=config.theta, **kw,
    )
    return report, (window.values, window.values[:, 0], report.converges_to)


def _search(config: RunConfig, sys_inst, ladder=None, beam: int | None = None, grid=1e-3):
    """Maxmin search and turnpike verdict; its table is the optimizer's
    path. ``grid`` is the default state grid, ``beam`` overrides the
    configured beam width and ``ladder`` the default turnpike ladder."""
    cfg = _checked(
        "search settings",
        SearchConfig,
        horizon=config.horizon,
        beam_width=config.beam if beam is None else beam,
        state_grid=config.grid or grid,
    )
    opt = _checked("search", maxmin_search, sys_inst, cfg)
    ladder = ladder or ((1e-3,) if config.scenario == "l2" else (1e-1, 1e-2, 1e-3))
    verdict = turnpike_verdict(opt.path, sys_inst.eta_star, sys_inst.ideal, ladder)
    table = (opt.path.points, opt.path.utilities(sys_inst.utility), sys_inst.eta_star)
    return {"optimizer": opt, "turnpike": verdict}, table


def _conditions(config: RunConfig, sys_inst):
    plan = _checked("--probes", SamplingPlan, n_points=config.probes, seed=config.seed)
    return _checked("condition battery", check_conditions, sys_inst, plan)


def _finish(config: RunConfig, name: str, results: dict, table=None, passed=True) -> int:
    """Write ``{name}.json`` (with the optimizer's work counters in
    ``meta``) and, when ``--output`` asks for it and the run has a path
    table, ``{name}.csv``; print the report line; return the exit code."""
    opt = results.get("optimizer")
    FilePath(config.out_dir).mkdir(parents=True, exist_ok=True)
    out = write_report(config, results, name, opt.counters if opt else None)
    if table is not None and config.output in ("csv", "both"):
        write_path_csv(config, *table, name)
    print(f"  report: {out}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(config: RunConfig) -> int:
    if not config.input:
        raise ConfigError("analyze needs --input FILE")
    try:
        window = SequenceWindow.from_text(config.input)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if window.horizon < 2:
        raise ConfigError(f"sequence file {config.input}: analyze needs at least two points")
    report, table = _analysis(config, window)
    results = report.to_dict()
    print(f"analyze: {window.horizon} points, dim {window.dim}, ideal {config.ideal}")
    print(f"  cluster points: {results['cluster_points']}")
    if report.liminf is not None:
        print(f"  liminf {report.liminf:.6g}  limsup {report.limsup:.6g}")
    print(f"  converges_to: {results['converges_to']}")
    return _finish(config, "analyze", results, table)


def cmd_optimize(config: RunConfig) -> int:
    results, table = _search(config, _build_system(config))
    opt = results["optimizer"]
    print(
        f"optimize {config.scenario}: objective {opt.objective:.6g}, "
        f"liminf {opt.revalidated_liminf:.6g}, turnpike {results['turnpike'].verdict}"
    )
    passed = opt.consistent and not opt.collapsed
    return _finish(config, f"optimize-{config.scenario}", results, table, passed)


def cmd_verify(config: RunConfig) -> int:
    conditions = _conditions(config, _build_system(config))
    separation = conditions.separation
    for name in sorted(conditions.conditions):
        print(f"  {name}: {conditions.conditions[name]['verdict']}")
    print(
        f"  separation: strong={separation.strong_holds} weak={separation.weak_holds}"
    )
    results = {"conditions": conditions, "separation": separation}
    return _finish(config, f"verify-{config.scenario}", results, passed=conditions.all_pass)


# each ``reproduce`` scenario runs its stages and checks the documented
# claim: (results, reproduced, path table)


def _reproduce_blocks(config: RunConfig) -> tuple[dict, bool, tuple]:
    window = _checked("scenario blocks", build_block_sequence, config.k_max)
    report, table = _analysis(config, window, limit_eps=0.1)
    lo, hi = window.bounds[0]
    results = {"length": window.horizon, "classical_min": lo, "classical_max": hi, "analysis": report}
    extremes_ok = lo == -1.0 and hi == 1.0
    if report.model["kind"] == "density":
        limit_ok = report.converges_to is not None and abs(report.converges_to[0]) <= 0.1
    else:
        limit_ok = report.converges_to is None
    return results, extremes_ok and limit_ok, table


def _reproduce_counterexample(config: RunConfig) -> tuple[dict, bool, tuple]:
    sys_inst = _build_system(config)
    results, table = _search(config, sys_inst)
    opt, verdict = results["optimizer"], results["turnpike"]
    conditions = results["conditions"] = _conditions(config, sys_inst)
    if sys_inst.ideal.kind == "finite_trace":
        reproduced = (
            opt.objective >= 1.0 - 1e-9
            and not verdict.verdict
            and conditions.verdict("A3") == "fail"
        )
    else:
        reproduced = (
            opt.objective <= 1e-3 and verdict.verdict and conditions.all_pass
        )
    return results, reproduced, table


def _reproduce_ifs(config: RunConfig) -> tuple[dict, bool, tuple]:
    sys_inst = _build_system(config)
    pts = fixed_points(sys_inst.phi, sys_inst.box)
    results, table = _search(config, sys_inst, ladder=(1e-3, 1e-4), grid=1e-6)
    final_gap = float(np.abs(results["optimizer"].path.points[-1] - sys_inst.eta_star).max())
    results.update(fixed_points=pts, eta_star=sys_inst.eta_star, final_gap=final_gap)
    return results, final_gap <= 1e-6 and results["turnpike"].verdict, table


def _reproduce_l2(config: RunConfig) -> tuple[dict, bool, tuple]:
    sys_inst = _build_system(config)
    conditions = _conditions(config, sys_inst)
    origin_gain = t_hat(sys_inst, sys_inst.eta_star)
    box = np.tile([-1.0, 1.0], (config.dim, 1))
    rng = np.random.default_rng(config.seed + 1)
    draw = _sample_kept(box, config.probes, rng, lambda p: p[:, 0] >= 0.0, 4)
    gains = t_hat_batch(sys_inst, draw)
    results, table = _search(config, sys_inst, beam=min(config.beam, 8))
    results.update(
        conditions=conditions,
        t_hat_origin=origin_gain,
        t_hat_max_on_F=gains.max() if gains.size else None,
    )
    reproduced = (
        conditions.all_pass
        and origin_gain == 0.0
        and gains.size > 0
        and float(gains.max()) < 0.0
        and results["turnpike"].verdict
    )
    return results, reproduced, table


REPRODUCE = {
    "blocks": _reproduce_blocks,
    "counterexample": _reproduce_counterexample,
    "ifs": _reproduce_ifs,
    "l2": _reproduce_l2,
}


def cmd_reproduce(config: RunConfig) -> int:
    results, reproduced, table = REPRODUCE[config.scenario](config)
    reproduced = results["reproduced"] = bool(reproduced)
    print(f"reproduce {config.scenario}: {'ok' if reproduced else 'MISMATCH'}")
    return _finish(config, f"reproduce-{config.scenario}", results, table, reproduced)


COMMANDS = {
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "verify": cmd_verify,
    "reproduce": cmd_reproduce,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default="", help="config file (INI sections or JSON)")
    p.add_argument("--ideal", default=None, help="fin | density:<thr> | finite-trace:<class>")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--grid", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--output", choices=OUTPUTS, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turnlab",
        description="ideal-convergence and turnpike experiments at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="cluster/limit report for a sequence file")
    p.add_argument("--input", required=True, help="text file, one point per line")
    _add_common(p)

    for name, text in (("optimize", "maxmin path search on a scenario"),
                       ("verify", "condition battery A1-A6 plus separation variants")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", required=True, choices=("counterexample", "ifs", "l2"))
        p.add_argument("--branches", default=None, help="ifs branches as a,b:a,b")
        p.add_argument("--dim", type=int, default=None)
        _add_common(p)

    p = sub.add_parser("reproduce", help="full documented pipeline for one scenario")
    p.add_argument("scenario", choices=SCENARIO_NAMES)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--branches", default=None, help="ifs branches as a,b:a,b")
    p.add_argument("--dim", type=int, default=None)
    _add_common(p)

    return parser


def _config_value(key: str, value, kind: type):
    """``value`` as ``kind``: strings (every INI value) are parsed and an
    int may be a float; nothing else converts, so 2.7 and true are no int."""
    bad = ConfigError(f"bad value for config key {key}: {value!r}")
    if isinstance(value, str) and kind is not str:
        try:
            return kind(value)
        except ValueError:
            raise bad from None
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise bad
    return value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    base = RunConfig(command=args.command)
    if getattr(args, "config", ""):
        for key, value in _load_config_file(args.config).items():
            setattr(base, key, _config_value(key, value, type(getattr(base, key))))
    for key in _CONFIG_FIELDS:
        if hasattr(args, key):
            value = getattr(args, key)
            if value is not None:
                setattr(base, key, value)
    if base.horizon < 0:
        raise ConfigError(f"--horizon must be positive, or 0 for the default; got {base.horizon}")
    if base.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {base.seed}")
    if not 0 < base.theta < 1:
        raise ConfigError(f"--theta must lie in (0, 1), got {base.theta!r}")
    if base.grid != 0 and not 0 < base.grid < np.inf:
        raise ConfigError(f"--grid must be positive and finite, or 0 for the default; got {base.grid!r}")
    if base.output not in OUTPUTS:
        raise ConfigError(f"output must be one of {', '.join(OUTPUTS)}; got {base.output!r}")
    # analyze has no scenario: one named in a config file picks no defaults
    if base.command == "analyze":
        base.scenario = ""
    ifs = base.scenario == "ifs"
    base.ideal = base.ideal or ("fin" if ifs else "density:0.01")
    base.horizon = base.horizon or (200 if ifs else 4096)
    # a bad --out-dir fails before any stage runs; it is made only when a
    # report is written, so a configuration error leaves nothing behind
    ancestor = FilePath(base.out_dir)
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise ConfigError(f"--out-dir {base.out_dir}: {ancestor} is not a directory")
    return base


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return COMMANDS[config.command](config)
    except (ConfigError, IdealSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
