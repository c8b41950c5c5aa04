"""Every function and method the benchmark tracer wraps must exist.

``benchmarks/tracing.py`` resolves its targets by name when a traced run
starts, so a renamed or deleted target breaks every ``--trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("turnlab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize(
    "module, attr",
    [target for targets in TRACING_MODULE.FUNCTIONS.values() for target in targets],
)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr", list(TRACING_MODULE.METHODS.values()))
def test_traced_method_resolves(module, cls, attr):
    # the tracer replaces the method in the class's own namespace
    assert attr in vars(getattr(importlib.import_module(module), cls))
