"""In-process spans around turnlab's public functions, and the per-layer
metrics derived from them.

The wrappers are installed from here, not from the program: every
binding of an instrumented function in a loaded ``turnlab`` module is
replaced (both ``turnlab.optimizer.maxmin_search`` and the
``turnlab.cli.maxmin_search`` imported from it, say), and methods are
replaced on their classes. Spans live in
memory as ``[name, start, end, parent, payload]`` lists; ``payload`` is
a per-span count taken from the call (children generated, points
loaded, residual evaluations, ...).
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# span name -> (module, function) pairs it times
FUNCTIONS = {
    "scenarios.build": [
        ("turnlab.scenarios", f)
        for f in (
            "build_block_sequence",
            "build_counterexample_system",
            "build_ifs_system",
            "build_l2_truncation",
        )
    ],
    "ideals.check_translation_invariance": [("turnlab.ideals", "check_translation_invariance")],
    "ideals.is_small": [("turnlab.ideals", "is_small")],
    "analysis.analyze_window": [("turnlab.analysis", "analyze_window")],
    # ideal_limsup is the sign mirror of ideal_liminf and calls it
    "analysis.ideal_liminf": [("turnlab.analysis", "ideal_liminf")],
    "analysis.deviation_densities": [("turnlab.analysis", "deviation_densities")],
    "dynamics.fixed_points": [("turnlab.dynamics", "fixed_points")],
    "dynamics.minimize": [("turnlab.dynamics", "minimize")],
    "dynamics.continuity_probe": [("turnlab.dynamics", "continuity_probe")],
    "dynamics.feasibility_check": [("turnlab.dynamics", "feasibility_check")],
    "geometry": [("turnlab.geometry", "hausdorff_distance"), ("turnlab.geometry", "min_distance")],
    "optimizer.maxmin_search": [("turnlab.optimizer", "maxmin_search")],
    "verifier.check_conditions": [("turnlab.verifier", "check_conditions")],
    "verifier.check_separation_variants": [("turnlab.verifier", "check_separation_variants")],
    "verifier.turnpike_verdict": [("turnlab.verifier", "turnpike_verdict")],
}

# span name -> (module, class, method); "expand" is instrumented on every
# Correspondence subclass that defines it
METHODS = {
    "windows.from_text": ("turnlab.windows", "SequenceWindow", "from_text"),
    "dynamics.images": ("turnlab.dynamics", "Correspondence", "images"),
}


def _frontier(report) -> tuple[int, int, int]:
    steps = report.frontier_sizes[1:]
    return (len(steps), sum(c for c, _ in steps), sum(k for _, k in steps))


# span name -> payload of one call, from (args, result)
PAYLOADS = {
    "windows.from_text": lambda args, out: out.horizon,
    "analysis.analyze_window": lambda args, out: args[0].horizon,
    "dynamics.expand": lambda args, out: out[0].shape[0],
    "dynamics.minimize": lambda args, out: out.nfev,
    "optimizer.maxmin_search": lambda args, out: _frontier(out),
}


class Tracer:
    """Records nested spans of one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn):
        payload = PAYLOADS.get(name)

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if payload is not None:
                s[4] = payload(args, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _turnlab_modules():
    return [m for n, m in list(sys.modules.items()) if n == "turnlab" or n.startswith("turnlab.")]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_method(owner, attr, name):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replace(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            replace(owner, attr, tracer.wrap(name, raw))

    try:
        modules = _turnlab_modules()
        for name, targets in FUNCTIONS.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                wrapper = tracer.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            replace(mod, key, wrapper)
        for name, (module, cls, attr) in METHODS.items():
            wrap_method(getattr(sys.modules[module], cls), attr, name)
        base = sys.modules["turnlab.dynamics"].Correspondence
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "expand" in cls.__dict__:
                wrap_method(cls, "expand", "dynamics.expand")
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total seconds (outermost spans of the name
    only, so recursion is not counted twice), self seconds (each span
    minus the union of its children) and summed payloads."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, payload) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "payload": None})
        row["calls"] += 1
        row["self_s"] += (end - start) - covered(children.get(i, ()), start, end)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += end - start
        if payload is not None:
            if isinstance(payload, tuple):
                prev = row["payload"] or (0,) * len(payload)
                row["payload"] = tuple(a + b for a, b in zip(prev, payload))
            else:
                row["payload"] = (row["payload"] or 0) + payload
    return out


# (metric, unit, better); the arrow in each comment is the end-to-end
# metric and workload the layer metric should move
LAYER_METRICS = [
    ("cli.self_s", "s", "lower"),  # -> wall_s, all workloads
    ("cli.report_bytes", "bytes", "lower"),  # -> wall_s, all workloads
    ("cli.cpu_s", "s", "lower"),  # diagnostic: user+sys of the untraced pass
    ("scenarios.build_s", "s", "lower"),  # -> wall_s, peak_rss_mb on analyze
    ("scenarios.build_calls", "count", "lower"),
    ("windows.from_text_s", "s", "lower"),  # -> wall_s on analyze
    ("windows.points_loaded", "count", "higher"),
    ("ideals.translation_invariance_s", "s", "lower"),  # -> wall_s on verify
    ("ideals.is_small_calls", "count", "lower"),  # -> analyze, verify
    ("ideals.is_small_s", "s", "lower"),
    ("analysis.analyze_window_s", "s", "lower"),  # -> wall_s, peak_rss_mb on analyze
    ("analysis.analyze_window.self_s", "s", "lower"),  # cluster detection
    ("analysis.points", "count", "higher"),
    ("analysis.points_per_s", "1/s", "higher"),
    ("analysis.ideal_liminf_s", "s", "lower"),
    ("analysis.ideal_liminf_calls", "count", "lower"),
    ("analysis.deviation_densities_s", "s", "lower"),
    ("dynamics.expand_calls", "count", "lower"),  # -> wall_s on search
    ("dynamics.expand_s", "s", "lower"),
    ("dynamics.children", "count", "lower"),
    ("dynamics.images_calls", "count", "lower"),  # -> wall_s on verify
    ("dynamics.fixed_points_s", "s", "lower"),
    ("dynamics.nm_solves", "count", "lower"),
    ("dynamics.nm_nfev", "count", "lower"),
    ("dynamics.continuity_probe_s", "s", "lower"),
    ("dynamics.feasibility_check_s", "s", "lower"),
    ("geometry.calls", "count", "lower"),  # -> wall_s on verify
    ("geometry.s", "s", "lower"),
    ("optimizer.maxmin_search_s", "s", "lower"),  # -> wall_s on search
    ("optimizer.maxmin_search.self_s", "s", "lower"),
    ("optimizer.steps", "count", "lower"),
    ("optimizer.candidates", "count", "lower"),
    ("optimizer.kept", "count", "lower"),
    ("optimizer.kept_ratio", "ratio", "higher"),
    ("optimizer.self_us_per_step", "us", "lower"),
    ("verifier.check_conditions_s", "s", "lower"),  # -> wall_s on verify
    ("verifier.check_conditions.self_s", "s", "lower"),  # A2/A5 loops
    ("verifier.check_separation_variants_s", "s", "lower"),
    ("verifier.turnpike_verdict_s", "s", "lower"),  # -> wall_s on search
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(spans: list[list], cpu_s: float, report_bytes: int, overhead_s: float) -> dict:
    """Every LAYER_METRICS value; layers a workload never calls read 0."""
    summary = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "payload": None}

    def row(name):
        return summary.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    points = row("analysis.analyze_window")["payload"] or 0
    steps, candidates, kept = row("optimizer.maxmin_search")["payload"] or (0, 0, 0)
    search_self = row("optimizer.maxmin_search")["self_s"]
    values = {
        "cli.self_s": row("cli")["self_s"],
        "cli.report_bytes": report_bytes,
        "cli.cpu_s": cpu_s,
        "scenarios.build_s": row("scenarios.build")["total_s"],
        "scenarios.build_calls": row("scenarios.build")["calls"],
        "windows.from_text_s": row("windows.from_text")["total_s"],
        "windows.points_loaded": row("windows.from_text")["payload"] or 0,
        "ideals.translation_invariance_s": row("ideals.check_translation_invariance")["total_s"],
        "ideals.is_small_calls": row("ideals.is_small")["calls"],
        "ideals.is_small_s": row("ideals.is_small")["total_s"],
        "analysis.analyze_window_s": row("analysis.analyze_window")["total_s"],
        "analysis.analyze_window.self_s": row("analysis.analyze_window")["self_s"],
        "analysis.points": points,
        "analysis.points_per_s": ratio(points, row("analysis.analyze_window")["total_s"]),
        "analysis.ideal_liminf_s": row("analysis.ideal_liminf")["total_s"],
        "analysis.ideal_liminf_calls": row("analysis.ideal_liminf")["calls"],
        "analysis.deviation_densities_s": row("analysis.deviation_densities")["total_s"],
        "dynamics.expand_calls": row("dynamics.expand")["calls"],
        "dynamics.expand_s": row("dynamics.expand")["total_s"],
        "dynamics.children": row("dynamics.expand")["payload"] or 0,
        "dynamics.images_calls": row("dynamics.images")["calls"],
        "dynamics.fixed_points_s": row("dynamics.fixed_points")["total_s"],
        "dynamics.nm_solves": row("dynamics.minimize")["calls"],
        "dynamics.nm_nfev": row("dynamics.minimize")["payload"] or 0,
        "dynamics.continuity_probe_s": row("dynamics.continuity_probe")["total_s"],
        "dynamics.feasibility_check_s": row("dynamics.feasibility_check")["total_s"],
        "geometry.calls": row("geometry")["calls"],
        "geometry.s": row("geometry")["total_s"],
        "optimizer.maxmin_search_s": row("optimizer.maxmin_search")["total_s"],
        "optimizer.maxmin_search.self_s": search_self,
        "optimizer.steps": steps,
        "optimizer.candidates": candidates,
        "optimizer.kept": kept,
        "optimizer.kept_ratio": ratio(kept, candidates),
        "optimizer.self_us_per_step": ratio(1e6 * search_self, steps),
        "verifier.check_conditions_s": row("verifier.check_conditions")["total_s"],
        "verifier.check_conditions.self_s": row("verifier.check_conditions")["self_s"],
        "verifier.check_separation_variants_s": row("verifier.check_separation_variants")["total_s"],
        "verifier.turnpike_verdict_s": row("verifier.turnpike_verdict")["total_s"],
        "trace.overhead_s": overhead_s,
    }
    return {name: values[name] for name, _, _ in LAYER_METRICS}
