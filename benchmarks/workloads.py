"""The benchmark's workloads: CLI invocation lists, their seeded inputs,
and the expected exit code and verdicts of every invocation.

Each workload is a fixed list of README-style ``turnlab`` invocations.
A pass runs the list once; every invocation writes its JSON report into
its own directory, and ``check_results`` holds the report against the
table below.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Generated 2-D analyze input: points settle on LEVELS well-separated
# levels, with a small fraction of uniform outliers. Under density:0.01
# the outliers are negligible (exactly LEVELS cluster points); under fin
# every late outlier is a cluster point too, so the n-D merge path runs
# on hundreds of components instead of five.
POINTS = 500_000
LEVELS = 5
NOISE_FRACTION = 0.001
LEVEL_JITTER = 2e-4
LEVEL_SEPARATION = 0.3

# CLI --seed values on which the expected verdicts below were checked
# (seeds 0-5 all reproduce the table). The workload seed picks one of
# them, so any benchmark seed yields a configuration with known verdicts.
CLI_SEEDS = (0, 1, 2, 3, 4, 5)

WORKLOADS = ("analyze", "search", "verify")
ALL_PASS = {f"A{i}": "pass" for i in range(1, 7)}


@dataclass(frozen=True)
class Invocation:
    """One CLI run and what its report must say.

    ``expect`` maps dotted paths into the report's ``results`` to their
    required values; ``levels`` asks for the cluster points to be matched
    against the generated levels ("exact": one cluster point per level,
    "cover": every level has a cluster point nearby).
    """

    name: str
    argv: tuple[str, ...]
    report: str
    exit_code: int = 0
    expect: dict = field(default_factory=dict)
    levels: str = ""


def cli_seed(seed: int) -> int:
    return CLI_SEEDS[seed % len(CLI_SEEDS)]


def _conditions(verdicts: dict) -> dict:
    return {f"conditions.conditions.{k}.verdict": v for k, v in verdicts.items()}


def invocations(workload: str, seed: int, levels_file: Path | None) -> list[Invocation]:
    """The invocation list of a workload; ``levels_file`` is the analyze input."""
    s = ("--seed", str(cli_seed(seed)))
    if workload == "analyze":
        blocks = ("reproduce", "blocks", "--k-max", "10")
        return [
            Invocation("blocks-density", (*blocks, "--ideal", "density:0.01"),
                       "reproduce-blocks.json", expect={"reproduced": True}),
            Invocation("blocks-fin", (*blocks, "--ideal", "fin"),
                       "reproduce-blocks.json", expect={"reproduced": True}),
            Invocation("levels-density",
                       ("analyze", "--input", str(levels_file), "--ideal", "density:0.01"),
                       "analyze.json", levels="exact"),
            Invocation("levels-fin", ("analyze", "--input", str(levels_file), "--ideal", "fin"),
                       "analyze.json", levels="cover"),
        ]
    if workload == "search":
        opt = ("optimize", "--scenario")
        return [
            Invocation("optimize-counterexample-density",
                       (*opt, "counterexample", "--ideal", "density:0.01", "--beam", "64", *s),
                       "optimize-counterexample.json", expect={"turnpike.verdict": True}),
            Invocation("optimize-counterexample-trace",
                       (*opt, "counterexample", "--ideal", "finite-trace:auto", "--beam", "64", *s),
                       "optimize-counterexample.json", expect={"turnpike.verdict": False}),
            Invocation("optimize-l2", (*opt, "l2", "--ideal", "density:0.01", "--beam", "8", *s),
                       "optimize-l2.json", expect={"turnpike.verdict": True}),
            Invocation("optimize-ifs", (*opt, "ifs", *s),
                       "optimize-ifs.json", expect={"turnpike.verdict": True}),
        ]
    if workload == "verify":
        return [
            Invocation("verify-l2", ("verify", "--scenario", "l2", "--ideal", "density:0.01", *s),
                       "verify-l2.json", expect=_conditions(ALL_PASS)),
            Invocation("verify-counterexample-trace",
                       ("verify", "--scenario", "counterexample", "--ideal", "finite-trace:auto", *s),
                       "verify-counterexample.json", exit_code=1,
                       expect=_conditions({**ALL_PASS, "A3": "fail"})),
            Invocation("verify-ifs", ("verify", "--scenario", "ifs", *s),
                       "verify-ifs.json", expect=_conditions(ALL_PASS)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# seeded inputs


def make_levels(seed: int) -> np.ndarray:
    """LEVELS points in [-1, 1]^2, pairwise at least LEVEL_SEPARATION apart."""
    rng = np.random.default_rng(seed)
    while True:
        levels = rng.uniform(-1.0, 1.0, (LEVELS, 2))
        gaps = np.sqrt(((levels[:, None] - levels[None]) ** 2).sum(axis=-1))
        if gaps[~np.eye(LEVELS, dtype=bool)].min() >= LEVEL_SEPARATION:
            return levels


def write_levels_file(path: Path, seed: int) -> np.ndarray:
    """Write the seeded 2-D analyze input and return its levels."""
    levels = make_levels(seed)
    rng = np.random.default_rng([seed, 1])
    pts = levels[rng.integers(0, LEVELS, POINTS)] + rng.normal(0.0, LEVEL_JITTER, (POINTS, 2))
    noisy = rng.choice(POINTS, size=int(NOISE_FRACTION * POINTS), replace=False)
    pts[noisy] = rng.uniform(-1.25, 1.25, (noisy.size, 2))
    np.savetxt(path, pts, fmt="%.17g")
    return levels


# ---------------------------------------------------------------------------
# report checks


def results_digest(report: dict) -> str:
    """SHA-256 of the report's ``results``; ``config`` and ``meta`` are
    left out (they hold paths and timestamps)."""
    text = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_MISSING = object()


def _lookup(results: dict, dotted: str):
    node = results
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def check_results(inv: Invocation, results: dict, levels: np.ndarray | None) -> list[str]:
    """Problems with one report's results, empty when it is as expected."""
    problems = []
    for dotted, want in inv.expect.items():
        got = _lookup(results, dotted)
        if got is _MISSING:
            problems.append(f"{dotted} missing")
        elif got != want or type(got) is not type(want):
            problems.append(f"{dotted} = {got!r}, expected {want!r}")
    if inv.levels:
        pts = np.asarray(results["cluster_points"], dtype=float).reshape(-1, 2)
        eps = float(results["eps_grid"])
        if pts.shape[0] == 0:
            return problems + ["no cluster points"]
        dist = np.sqrt(((pts[:, None] - levels[None]) ** 2).sum(axis=-1))
        if not (dist.min(axis=0) <= eps).all():
            problems.append("a generated level has no cluster point within eps_grid")
        if inv.levels == "exact" and not (
            pts.shape[0] == levels.shape[0] and (dist.min(axis=1) <= eps).all()
        ):
            problems.append(
                f"{pts.shape[0]} cluster points, expected one within eps_grid of each of "
                f"{levels.shape[0]} levels"
            )
    return problems
