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
    "reproduce-counterexample-trace": (
        0, "85c9ad3114ab7e693c5c695ecb9c3cd88e83cda3a93748a46fd177d43aa3c1bf"
    ),
    "reproduce-counterexample-density": (
        1, "26d6e4706e3c23edac77c047d76775705dc64cfa748813187e6a14831e4f7ba4"
    ),
    "reproduce-ifs": (
        0, "7b2b0df2f7a7569b1e506bce4e6111e274911c33a5d7a110f27819eba2a8275b"
    ),
    # re-recorded when optimizer reports began to carry the system's notes
    # (the l2 band-sampling note); nothing else in its results moved
    "reproduce-l2": (
        1, "c069c5801a73e0cd8b3e5dffb3124e441e82c04226c0551fc188173c1009873a"
    ),
    "optimize-counterexample": (
        0, "50f976bfb2da824dd4a8a260f7e85a52e5712aeda7937f32c22595e04eb9133b"
    ),
    "verify-l2": (
        0, "c84ad84998ba65a7152eca9ce6a3eb17b85d19a24f2d6d559eca69a4a9be16a9"
    ),
    # recorded before the l2 band kernel, the probe chunks and the witness
    # image changed; every condition and separation result must keep it
    "verify-l2-default": (
        0, "3f6ddd1e8276deb111fdbe2c423056850ec08aa41ffac990299805ccf8c536ca"
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
