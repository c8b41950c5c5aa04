"""The README commands, run in-process at small sizes: the SHA-256 of each
report's ``results`` (hashed as the benchmark hashes it) and the exit
code, recorded before every report came to be rendered by
``turnlab.report.plain``. A change to how results become JSON must leave
these bytes as they are. Also unit cases of ``plain`` itself.

Run this file as a script to print the table from the current code.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from turnlab.cli import main

SMALL = ("--horizon", "512", "--probes", "500")

COMMANDS = {
    "analyze-2d-fin": ("analyze", "--ideal", "fin"),
    "reproduce-blocks": ("reproduce", "blocks", "--k-max", "7", "--ideal", "density:0.01"),
    "reproduce-counterexample-trace": (
        "reproduce", "counterexample", "--ideal", "finite-trace:auto", *SMALL
    ),
    "reproduce-counterexample-density": (
        "reproduce", "counterexample", "--ideal", "density:0.01", *SMALL
    ),
    "reproduce-ifs": ("reproduce", "ifs", *SMALL),
    "reproduce-l2": ("reproduce", "l2", *SMALL),
    "optimize-counterexample": (
        "optimize", "--scenario", "counterexample", "--ideal", "density:0.01", "--beam", "64",
        *SMALL,
    ),
    "verify-l2": ("verify", "--scenario", "l2", "--ideal", "density:0.01", *SMALL),
    # the benchmark's verify-l2 at its default sizes (horizon 4096, 10,000 probes)
    "verify-l2-default": ("verify", "--scenario", "l2", "--seed", "0"),
}

PINS = {
    "analyze-2d-fin": (
        0, "5c7af0196345630ff5d913851b3b42a0d2225f7643f4b1ed8a2753601ed3e78c"
    ),
    "reproduce-blocks": (
        1, "b976624c8b805cd216fbb48f543a61945e2b0ea14bb1c79ad7ae8866bf0e1789"
    ),
    # re-recorded when A3 became exact: the A3 entry lost samples/fractions,
    # the plan translation_samples/translation_shifts, and the witness is
    # now the worst small set (the 256 odd indices), not a random draw
    # Re-recorded when A2 became the A1 probe of the graph of u: the A2
    # rungs and growth moved and the plan lost delta_ladder; nothing else moved
    # Re-recorded when the search's trim option went: the optimizer config
    # lost trim_fraction; nothing else moved
    "reproduce-counterexample-trace": (
        0, "e366cc6e15cd94cdbac60c658dc612f8fceba8541f6a18bb160d8be1c35e77fc"
    ),
    # re-recorded when A3 became exact: the A3 entry lost samples/fractions
    # and the plan translation_samples/translation_shifts; nothing else moved
    # Re-recorded when A2 became the A1 probe of the graph of u: the A2
    # rungs and growth moved and the plan lost delta_ladder; nothing else moved
    # Re-recorded when the search's trim option went: the optimizer config
    # lost trim_fraction; nothing else moved
    "reproduce-counterexample-density": (
        1, "f57b6ae17346d7f2a6df049a6f43d67d70440069a57a310814541ea2c2c0d340"
    ),
    # Re-recorded when the search's trim option went: the optimizer config
    # lost trim_fraction; nothing else moved
    "reproduce-ifs": (
        0, "ba6256e2b87c845f91cf3212c3c8169ebfc9ed3700b0e9de7bf69c46e41cc6be"
    ),
    # re-recorded when optimizer reports began to carry the system's notes
    # (the l2 band-sampling note); nothing else in its results moved.
    # Re-recorded when A3 became exact: the A3 entry lost samples/fractions
    # and the plan translation_samples/translation_shifts; nothing else moved
    # Re-recorded when A2 became the A1 probe of the graph of u: the A2
    # rungs and growth moved and the plan lost delta_ladder; nothing else moved
    # Re-recorded when the search's trim option went: the optimizer config
    # lost trim_fraction; nothing else moved
    # Re-recorded when the probe's two random directions became one uniform r
    # and -r: the A1 rungs and growth moved; nothing else moved
    "reproduce-l2": (
        1, "79ab280a777de8962b86bdca3c37ba1136c97ae3d8f2375a07ce1789e964884a"
    ),
    # Re-recorded when the search's trim option went: the optimizer config
    # lost trim_fraction; nothing else moved
    "optimize-counterexample": (
        0, "675fa558e50b57bc89101b5fd8d504cf793ccb0db3c83c333c9251e6a2ca1a2a"
    ),
    # re-recorded when A3 became exact: the A3 entry lost samples/fractions
    # and the plan translation_samples/translation_shifts; nothing else moved
    # Re-recorded when A2 became the A1 probe of the graph of u: the A2
    # rungs and growth moved and the plan lost delta_ladder; nothing else moved
    # Re-recorded when the probe's two random directions became one uniform r
    # and -r: the A1 rungs and growth moved; nothing else moved
    "verify-l2": (
        0, "779d90dd32bfd9dbd2c651272cbe4227f3214904dd2c9f8db33437357742a892"
    ),
    # recorded before the l2 band kernel, the probe chunks and the witness
    # image changed; every condition and separation result must keep it.
    # Re-recorded when A3 became exact: the A3 entry lost samples/fractions
    # and the plan translation_samples/translation_shifts; nothing else moved
    # Re-recorded when A2 became the A1 probe of the graph of u: the A2
    # rungs and growth moved and the plan lost delta_ladder; nothing else moved
    # Re-recorded when the probe's two random directions became one uniform r
    # and -r: the A1 rungs and growth moved; nothing else moved
    "verify-l2-default": (
        0, "1a2f0328931accb78642a61f6f224c313805641944c9b5fa4e3996a03e68adfc"
    ),
}


def _run(name, tmp_path):
    argv = list(COMMANDS[name])
    if argv[0] == "analyze":
        seq = tmp_path / "seq.txt"
        rng = np.random.default_rng(7)
        levels = rng.normal(0.0, 1.0, (5, 2))
        np.savetxt(seq, levels[rng.integers(0, 5, 3000)] + rng.normal(0.0, 1e-3, (3000, 2)))
        argv += ["--input", str(seq)]
    out = tmp_path / "out"
    code = main(argv + ["--out-dir", str(out)])
    (report,) = out.glob("*.json")
    results = json.loads(report.read_text())["results"]
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_results_pinned(name, tmp_path):
    assert _run(name, tmp_path) == PINS[name]


def test_plain_renders_json_ready_values():
    from turnlab.report import plain

    out = plain({
        "neg_zero": -0.0,
        "flag": np.bool_(True),
        "count": np.int64(3),
        "inf": np.inf,
        "minus_inf": np.float64(-np.inf),
        "nan": np.nan,
        "by_int": {7: 1.5, -1: None},
        "pair": (1, np.float64(2.5)),
        "scalar": np.array(0.25),
        "row": np.array([1.0, -0.0]),
        "grid": np.array([[1, 2], [3, 4]]),
    })
    assert out == {
        "neg_zero": 0.0,
        "flag": True,
        "count": 3,
        "inf": "inf",
        "minus_inf": "-inf",
        "nan": "nan",
        "by_int": {"7": 1.5, "-1": None},
        "pair": [1, 2.5],
        "scalar": 0.25,
        "row": [1.0, -0.0],
        "grid": [[1, 2], [3, 4]],
    }
    assert math.copysign(1.0, out["neg_zero"]) == -1.0
    assert math.copysign(1.0, out["row"][1]) == -1.0
    assert type(out["flag"]) is bool and type(out["count"]) is int
    assert type(out["scalar"]) is float and type(out["pair"][1]) is float


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {_run(name, Path(tmp))},")
