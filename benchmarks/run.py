"""turnlab benchmark: README-style CLI runs, end to end and layer by layer.

Run from the root of a turnlab checkout:

    python3 benchmarks/run.py --workload analyze --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload's invocation list as child processes,
one at a time, for as many whole passes as fit in ``--seconds`` (at
least one), and reports the end-to-end metrics: wall seconds of a pass
(the sum of each invocation's median), the largest child peak RSS, and
the import time of the CLI (``setup_s``, median of fresh interpreters).
``--trace 1`` runs the same argv in-process through ``turnlab.cli.main``,
once plain and once with span wrappers installed, and reports the
per-layer metrics derived from the spans. Every invocation is checked
against its expected exit code and verdicts; the last line of standard
output is one JSON object with the metrics and the failure count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_digests.json"
SETUP_RUNS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    """One invocation's run and the problems found with it."""

    name: str
    wall_s: float
    exit_code: int
    rss_mb: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def judge(inv, exit_code: int, stderr: str, out_dir: Path, levels) -> tuple[str, list[str]]:
    """Results digest and problems of one finished invocation."""
    from workloads import check_results, results_digest

    problems = []
    if exit_code != inv.exit_code:
        problems.append(f"exit {exit_code}, expected {inv.exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1])
    path = out_dir / inv.report
    if not path.is_file():
        return "", problems + ["no report"]
    try:
        report = json.loads(path.read_text())
        return results_digest(report), problems + check_results(inv, report["results"], levels)
    except (ValueError, KeyError, TypeError) as exc:
        return "", problems + [f"malformed report: {exc!r}"]


def run_child(inv, env: dict, cwd: Path, out_dir: Path, levels) -> Outcome:
    out_dir.mkdir(parents=True)
    err_path = out_dir / "stderr.txt"
    argv = [sys.executable, "-m", "turnlab.cli", *inv.argv, "--out-dir", str(out_dir)]
    with open(os.devnull, "wb") as devnull, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=devnull, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    digest, problems = judge(inv, proc.returncode, stderr, out_dir, levels)
    return Outcome(inv.name, wall, proc.returncode, usage.ru_maxrss / 1024.0, digest, problems)


def run_inprocess(cli, inv, out_dir: Path, levels, around=contextlib.nullcontext) -> Outcome:
    """Run ``cli.main`` on the invocation's argv; ``around`` wraps the call."""
    out_dir.mkdir(parents=True)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            with around():
                code = cli.main([*inv.argv, "--out-dir", str(out_dir)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crashing invocation is a counted failure
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    digest, problems = judge(inv, code, err.getvalue(), out_dir, levels)
    return Outcome(inv.name, wall, code, 0.0, digest, problems)


# ---------------------------------------------------------------------------
# run record


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, threads: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level} {kind}"] = size
    return {
        "commit": git_commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "thread_caps": threads,
    }


def reference_status(key: str, digest: str, references: dict) -> str:
    want = references.get(key)
    if want is None:
        return "no-reference"
    return "match" if want == digest else "differs"


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_setup(env: dict, cwd: Path) -> list[float]:
    """Wall seconds of fresh interpreters that only import the CLI; one
    untimed run first fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import turnlab.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"cannot import turnlab.cli:\n{done.stderr.strip()}")
        if i:
            times.append(time.perf_counter() - start)
    return times


def end_to_end(invs, args, root: Path, work: Path, env: dict, levels) -> tuple[list, dict]:
    setup = measure_setup(env, root)
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        pass_dir = work / f"pass{len(passes)}"
        passes.append([run_child(inv, env, root, pass_dir / inv.name, levels) for inv in invs])
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    for later in passes[1:]:
        for first, out in zip(passes[0], later):
            if out.digest != first.digest:
                out.problems.append("results digest differs from the first pass")
    print(f"# passes {len(passes)}; setup_s samples {[round(t, 4) for t in setup]}")
    # each invocation's median over the passes, so a burst of load on the
    # machine during one child does not move the pass estimate
    runs = list(zip(*passes))
    metrics = {
        "wall_s": (sum(statistics.median(o.wall_s for o in r) for r in runs), "s"),
        "peak_rss_mb": (max(statistics.median(o.rss_mb for o in r) for r in runs), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return [o for p in passes for o in p], metrics


def traced(invs, args, root: Path, work: Path, env: dict, levels) -> tuple[list, dict]:
    from tracing import LAYER_METRICS, Tracer, instrumented, layer_metrics

    sys.path.insert(0, str(root / "src"))
    import turnlab.cli as cli

    tracer = Tracer()
    plain, spanned, cpu_s = [], [], 0.0
    for inv in invs:  # alternate, so slow drift of the machine cancels in the overhead
        before = resource.getrusage(resource.RUSAGE_SELF)
        plain.append(run_inprocess(cli, inv, work / "plain" / inv.name, levels))
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu_s += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        with instrumented(tracer):
            spanned.append(run_inprocess(
                cli, inv, work / "traced" / inv.name, levels, lambda: tracer.span("cli")
            ))
    for a, b in zip(plain, spanned):
        if a.digest != b.digest:
            b.problems.append("traced results digest differs from the untraced run")
    report_bytes = sum(f.stat().st_size for f in (work / "traced").rglob("*.json"))
    overhead = sum(o.wall_s for o in spanned) - sum(o.wall_s for o in plain)
    values = layer_metrics(tracer.spans, cpu_s, report_bytes, overhead)
    return plain + spanned, {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record", action="store_true",
        help="store this run's results digests as the reference for its seed",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update({v: threads for v in THREAD_VARS})  # before NumPy loads here
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "turnlab" / "cli.py").is_file():
        print("error: src/turnlab/cli.py not found; run from a turnlab checkout root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p
    ))
    from workloads import cli_seed, invocations, write_levels_file

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work"))
    try:
        levels_file = work / "levels.txt"
        levels = write_levels_file(levels_file, args.seed) if args.workload == "analyze" else None
        invs = invocations(args.workload, args.seed, levels_file)
        print(
            f"# turnlab benchmark: workload {args.workload}, seed {args.seed} "
            f"(cli --seed {cli_seed(args.seed)}), {args.seconds:g} s, trace {args.trace}"
        )
        print("# env " + json.dumps(environment(root, threads), sort_keys=True))
        measure = traced if args.trace else end_to_end
        outcomes, metrics = measure(invs, args, root, work, env, levels)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()

    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    digests = {}
    for o in outcomes:
        key = f"{args.workload}/{args.seed}/{o.name}"
        digests[key] = o.digest
        state = "FAIL " + "; ".join(o.problems) if o.problems else "ok"
        print(
            f"  {o.name:34s} {o.wall_s:8.3f} s  rss {o.rss_mb or float('nan'):7.1f} MB  exit {o.exit_code}  "
            f"{o.digest[:16] or '-':16s} {reference_status(key, o.digest, references):12s} {state}"
        )
    failed = sum(1 for o in outcomes if o.problems)
    if args.record and not failed:
        references.update(digests)
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_rate = {failed}/{len(outcomes)} = {failed / len(outcomes):.3g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
