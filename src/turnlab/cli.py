"""Command-line front end.

Four commands:

* ``analyze`` -- cluster/limit report for a sequence window read from a
  text file (one point per line, whitespace-separated coordinates).
* ``optimize`` -- maxmin path search on a built-in scenario.
* ``verify`` -- condition battery (A1-A6) plus separation variants.
* ``reproduce`` -- full pipeline for one scenario, checked against its
  documented expected profile.

Reports are JSON (deterministic for a fixed config and seed; timestamps
live in a separate ``meta`` field) plus optional CSV path tables with
columns ``n, x_0..x_{d-1}, u, dist_to_eta_star``. Exit status: 0 for
pass verdicts, 1 for fail verdicts, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path as FilePath

import numpy as np

from turnlab import __version__
from turnlab.analysis import analyze_window
from turnlab.dynamics import Path, fixed_points
from turnlab.ideals import IdealSpecError, parse_ideal_spec
from turnlab.optimizer import SearchConfig, maxmin_search
from turnlab.report import Report, plain
from turnlab.scenarios import (
    SCENARIO_NAMES,
    build_block_sequence,
    build_counterexample_system,
    build_ifs_system,
    build_l2_truncation,
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

    The scenario builders, ``SearchConfig``, ``analyze_window``,
    ``check_conditions`` (whose translation probe needs a horizon above
    twice its largest shift) and ideal-spec parsing raise ValueError on
    values they cannot use; at this boundary that is a configuration
    error (exit 2), reported with ``what`` as its subject.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


@dataclass
class RunConfig(Report):
    command: str
    scenario: str = ""
    input: str = ""
    ideal: str = ""  # empty -> per-command default
    horizon: int = 0  # 0 -> per-command default
    beam: int = 64
    trim: float = 0.01
    grid: float = 0.0  # 0 -> per-command default
    theta: float = 0.05
    seed: int = 0
    k_max: int = 10
    dim: int = 8
    branches: str = "0.5,0:0.3,0.7"
    probes: int = 10000
    output: str = "json"
    out_dir: str = "."

    def resolved_ideal(self) -> str:
        if self.ideal:
            return self.ideal
        return "fin" if self.scenario == "ifs" else "density:0.01"

    def resolved_horizon(self) -> int:
        if self.horizon > 0:
            return self.horizon
        return 200 if self.scenario == "ifs" else 4096


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
    out_dir = FilePath(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = dataclasses.replace(
        config, ideal=config.resolved_ideal(), horizon=config.resolved_horizon()
    )
    meta = {"created_utc": datetime.now(timezone.utc).isoformat(), "version": __version__}
    if counters:
        meta["counters"] = dict(counters)
    report = {"config": plain(resolved), "results": plain(results), "meta": meta}
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def write_path_csv(
    config: RunConfig, path: Path, u_values: np.ndarray, eta_star, name: str
) -> FilePath:
    out_dir = FilePath(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pts = path.points
    d = pts.shape[1]
    target = None if eta_star is None else np.asarray(eta_star, dtype=float).ravel()
    file = out_dir / f"{name}.csv"
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"x_{i}" for i in range(d)] + ["u", "dist_to_eta_star"])
        for n in range(pts.shape[0]):
            dist = "" if target is None else f"{float(np.sqrt(((pts[n] - target) ** 2).sum())):.12g}"
            writer.writerow(
                [n]
                + [f"{v:.12g}" for v in pts[n]]
                + [f"{float(u_values[n]):.12g}", dist]
            )
    return file


# ---------------------------------------------------------------------------
# scenario assembly


def _parse_ideal(config: RunConfig, horizon: int):
    spec = config.resolved_ideal()
    return _checked(f"--ideal {spec!r}", parse_ideal_spec, spec, horizon)


def _build_system(config: RunConfig, horizon: int):
    ideal = _parse_ideal(config, horizon)
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
    if config.scenario == "l2":
        rng = np.random.default_rng(config.seed)
        # a negative --dim draws nothing and is left to the builder to reject
        x_star = rng.uniform(-1.0, 1.0, max(config.dim, 0))
        x_star *= 0.9 / max(1.0, float(np.sqrt((x_star**2).sum())))
        return _checked(what, build_l2_truncation, config.dim, x_star, ideal)
    raise ConfigError(
        f"unknown scenario {config.scenario!r}; choose from {', '.join(SCENARIO_NAMES)}"
    )


def _search_config(
    config: RunConfig, horizon: int, beam: int | None = None, grid: float = 1e-3
) -> SearchConfig:
    """Search settings from the run config; ``grid`` is the default state
    grid and ``beam`` overrides the configured beam width."""
    return _checked(
        "search settings",
        SearchConfig,
        horizon=horizon,
        beam_width=config.beam if beam is None else beam,
        state_grid=config.grid or grid,
        trim_fraction=config.trim,
    )


def _sampling_plan(config: RunConfig) -> SamplingPlan:
    return _checked("--probes", SamplingPlan, n_points=config.probes, seed=config.seed)


def _turnpike_ladder(config: RunConfig) -> tuple[float, ...]:
    if config.scenario == "l2":
        return (1e-3,)
    return (1e-1, 1e-2, 1e-3)


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(config: RunConfig) -> int:
    if not config.input:
        raise ConfigError("analyze needs --input FILE")
    try:
        window = SequenceWindow.from_text(config.input)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    model = _parse_ideal(config, window.horizon)
    eps = config.grid or None
    report = _checked("analyze", analyze_window, window, model, eps_grid=eps, theta=config.theta)
    results = report.to_dict()
    out = write_report(config, results, "analyze")
    print(f"analyze: {window.horizon} points, dim {window.dim}, ideal {config.resolved_ideal()}")
    print(f"  cluster points: {results['cluster_points']}")
    if report.liminf is not None:
        print(f"  liminf {report.liminf:.6g}  limsup {report.limsup:.6g}")
    print(f"  converges_to: {results['converges_to']}")
    if config.output in ("csv", "both"):
        u_vals = window.values[:, 0]
        target = report.converges_to
        write_path_csv(config, Path(window, ()), u_vals, target, "analyze")
    print(f"  report: {out}")
    return 0


def cmd_optimize(config: RunConfig) -> int:
    horizon = config.resolved_horizon()
    sys_inst = _build_system(config, horizon)
    cfg = _search_config(config, horizon)
    report = maxmin_search(sys_inst, cfg)
    verdict = turnpike_verdict(
        report.path, sys_inst.eta_star, sys_inst.ideal, _turnpike_ladder(config)
    )
    results = {"optimizer": report, "turnpike": verdict}
    out = write_report(config, results, f"optimize-{config.scenario}", report.counters)
    print(
        f"optimize {config.scenario}: objective {report.objective:.6g}, "
        f"liminf {report.revalidated_liminf:.6g}, turnpike {verdict.verdict}"
    )
    if config.output in ("csv", "both"):
        write_path_csv(
            config,
            report.path,
            report.path.utilities(sys_inst.utility),
            sys_inst.eta_star,
            f"optimize-{config.scenario}",
        )
    print(f"  report: {out}")
    return 0 if (report.consistent and not report.collapsed) else 1


def cmd_verify(config: RunConfig) -> int:
    sys_inst = _build_system(config, config.resolved_horizon())
    plan = _sampling_plan(config)
    conditions = _checked("condition battery", check_conditions, sys_inst, plan)
    separation = conditions.separation
    results = {"conditions": conditions, "separation": separation}
    out = write_report(config, results, f"verify-{config.scenario}")
    for name in sorted(conditions.conditions):
        print(f"  {name}: {conditions.conditions[name]['verdict']}")
    print(
        f"  separation: strong={separation.strong_holds} weak={separation.weak_holds}"
    )
    print(f"  report: {out}")
    return 0 if conditions.all_pass else 1


def _reproduce_blocks(config: RunConfig) -> tuple[dict, bool, None]:
    window = _checked("scenario blocks", build_block_sequence, config.k_max)
    model = _parse_ideal(config, window.horizon)
    report = _checked(
        "analyze", analyze_window, window, model,
        eps_grid=config.grid or None, theta=config.theta, limit_eps=0.1,
    )
    vals = window.scalars()
    results = {
        "length": window.horizon,
        "classical_min": vals.min(),
        "classical_max": vals.max(),
        "analysis": report,
    }
    extremes_ok = vals.min() == -1.0 and vals.max() == 1.0
    if model.kind == "density":
        limit_ok = report.converges_to is not None and abs(report.converges_to[0]) <= 0.1
        reproduced = bool(extremes_ok and limit_ok)
    else:
        reproduced = bool(extremes_ok and report.converges_to is None)
    return results, reproduced, None


def _reproduce_counterexample(config: RunConfig) -> tuple[dict, bool, dict]:
    horizon = config.resolved_horizon()
    sys_inst = _build_system(config, horizon)
    cfg = _search_config(config, horizon)
    plan = _sampling_plan(config)
    opt = maxmin_search(sys_inst, cfg)
    verdict = turnpike_verdict(
        opt.path, sys_inst.eta_star, sys_inst.ideal, _turnpike_ladder(config)
    )
    conditions = _checked("condition battery", check_conditions, sys_inst, plan)
    results = {
        "optimizer": opt,
        "turnpike": verdict,
        "conditions": conditions,
    }
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
    return results, bool(reproduced), opt.counters


def _reproduce_ifs(config: RunConfig) -> tuple[dict, bool, dict]:
    horizon = config.resolved_horizon()
    sys_inst = _build_system(config, horizon)
    pts = fixed_points(sys_inst.phi, sys_inst.box)
    cfg = _search_config(config, horizon, grid=1e-6)
    opt = maxmin_search(sys_inst, cfg)
    final_gap = float(np.abs(opt.path.points[-1] - sys_inst.eta_star).max())
    verdict = turnpike_verdict(opt.path, sys_inst.eta_star, sys_inst.ideal, (1e-3, 1e-4))
    results = {
        "fixed_points": pts,
        "eta_star": sys_inst.eta_star,
        "optimizer": opt,
        "final_gap": final_gap,
        "turnpike": verdict,
    }
    reproduced = final_gap <= 1e-6 and verdict.verdict
    return results, bool(reproduced), opt.counters


def _reproduce_l2(config: RunConfig) -> tuple[dict, bool, dict]:
    horizon = config.resolved_horizon()
    sys_inst = _build_system(config, horizon)
    plan = _sampling_plan(config)
    conditions = _checked("condition battery", check_conditions, sys_inst, plan)
    origin_gain = t_hat(sys_inst, sys_inst.eta_star)
    rng = np.random.default_rng(config.seed + 1)
    draw = rng.uniform(-1.0, 1.0, (4 * config.probes, config.dim))
    draw = draw[draw[:, 0] >= 0.0][: config.probes]
    gains = t_hat_batch(sys_inst, draw)
    cfg = _search_config(config, horizon, beam=min(config.beam, 8))
    opt = maxmin_search(sys_inst, cfg)
    verdict = turnpike_verdict(opt.path, sys_inst.eta_star, sys_inst.ideal, (1e-3,))
    results = {
        "conditions": conditions,
        "t_hat_origin": origin_gain,
        "t_hat_max_on_F": gains.max() if gains.size else None,
        "optimizer": opt,
        "turnpike": verdict,
    }
    reproduced = (
        conditions.all_pass
        and origin_gain == 0.0
        and gains.size > 0
        and float(gains.max()) < 0.0
        and verdict.verdict
    )
    return results, bool(reproduced), opt.counters


def cmd_reproduce(config: RunConfig) -> int:
    handlers = {
        "blocks": _reproduce_blocks,
        "counterexample": _reproduce_counterexample,
        "ifs": _reproduce_ifs,
        "l2": _reproduce_l2,
    }
    if config.scenario not in handlers:
        raise ConfigError(
            f"unknown scenario {config.scenario!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )
    results, reproduced, counters = handlers[config.scenario](config)
    results["reproduced"] = reproduced
    out = write_report(config, results, f"reproduce-{config.scenario}", counters)
    print(f"reproduce {config.scenario}: {'ok' if reproduced else 'MISMATCH'}")
    print(f"  report: {out}")
    return 0 if reproduced else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default="", help="config file (INI sections or JSON)")
    p.add_argument("--ideal", default=None, help="fin | density:<thr> | finite-trace:<class>")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--trim", type=float, default=None)
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

    p = sub.add_parser("optimize", help="maxmin path search on a scenario")
    p.add_argument("--scenario", required=True, choices=("counterexample", "ifs", "l2"))
    p.add_argument("--branches", default=None, help="ifs branches as a,b:a,b")
    p.add_argument("--dim", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("verify", help="condition battery A1-A6 plus separation variants")
    p.add_argument("--scenario", required=True, choices=("counterexample", "ifs", "l2"))
    p.add_argument("--branches", default=None)
    p.add_argument("--dim", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("reproduce", help="full documented pipeline for one scenario")
    p.add_argument("scenario", choices=SCENARIO_NAMES)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--branches", default=None)
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
    if base.output not in OUTPUTS:
        raise ConfigError(f"output must be one of {', '.join(OUTPUTS)}; got {base.output!r}")
    return base


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if config.command == "analyze":
            return cmd_analyze(config)
        if config.command == "optimize":
            return cmd_optimize(config)
        if config.command == "verify":
            return cmd_verify(config)
        if config.command == "reproduce":
            return cmd_reproduce(config)
        raise ConfigError(f"unknown command {config.command!r}")
    except (ConfigError, IdealSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
