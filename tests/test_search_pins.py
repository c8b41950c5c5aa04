"""Beam-search results recorded before the beam was kept in trace order
with one profile row per candidate; the search must reproduce them bit
for bit. The systems start from a lattice of states (l2 and three
branches) or sample an interval image, so several parents share each
step, and each runs under all three ideal kinds.

Run this file as a script to print the table from the current code.
"""

import hashlib

import numpy as np
import pytest

from turnlab.dynamics import FiniteBranch, Free, Interval1D, SystemInstance, TruncatedL2
from turnlab.ideals import parse_ideal_spec
from turnlab.optimizer import SearchConfig, maxmin_search

HORIZON = 512
SPECS = ("fin", "density:0.01", "finite-trace:auto")


def _system(name, spec):
    model = parse_ideal_spec(spec, HORIZON)
    if name == "l2_free":
        return SystemInstance(
            dim=3,
            phi=TruncatedL2(3),
            utility=lambda p: p.sum(axis=-1),
            ideal=model,
            constraint=Free(np.array([[-0.5, 0.5], [-0.3, 0.4], [-0.2, 0.3]])),
            box=np.tile([-1.0, 1.0], (3, 1)),
        ), 8
    if name == "three_branch_free":
        maps = (lambda x: 0.5 * x, lambda x: 0.4 * x[..., ::-1] + 0.3, lambda x: -0.6 * x + 0.1)
        return SystemInstance(
            dim=2,
            phi=FiniteBranch(maps, dim=2),
            utility=lambda p: np.sin(6.0 * p[..., 0]) - p[..., 1] ** 2,
            ideal=model,
            constraint=Free(np.array([[-1.0, 1.0], [-0.5, 0.5]])),
            box=np.tile([-2.0, 2.0], (2, 1)),
        ), 9
    if name == "interval":
        return SystemInstance(
            dim=1,
            phi=Interval1D(lambda x: 0.5 * x - 0.3, lambda x: 0.5 * x + 0.4, samples=5),
            utility=lambda p: np.cos(3.0 * p[..., 0]),
            ideal=model,
            constraint=Free(np.array([[-1.0, 1.0]])),
            box=np.array([[-2.0, 2.0]]),
        ), 6
    raise ValueError(name)


def _sha256(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def _summary(name, spec):
    """Objective and final point as float.hex; every path point (as
    float.hex), the whole trace and every frontier size through their
    SHA-256, with the frontier's children and kept totals."""
    sys_inst, beam = _system(name, spec)
    rep = maxmin_search(sys_inst, SearchConfig(HORIZON, beam_width=beam))
    return {
        "objective": rep.objective.hex(),
        "final_point": [float(v).hex() for v in rep.path.points[-1]],
        "points_sha256": _sha256(float(v).hex() for v in rep.path.points.ravel()),
        "trace_sha256": _sha256(str(b) for b in rep.path.trace),
        "frontier_sha256": _sha256(f"{c} {k}" for c, k in rep.frontier_sizes),
        "frontier_totals": [int(v) for v in np.sum(rep.frontier_sizes, axis=0)],
    }


CASES = [(name, spec) for name in ("l2_free", "three_branch_free", "interval") for spec in SPECS]

RECORDED = {
    ('l2_free', 'fin'): {
        'objective': '0x1.c000000000000p-1',
        'final_point': ['-0x1.4000000000000p-1', '0x1.0000000000000p+0', '0x1.0000000000000p-1'],
        'points_sha256': '8c2f5295f3a2a3718209dec625181df0e1aada457d89254a104b4cc40462cb37',
        'trace_sha256': 'd13810eeb8f4b475931888e8edf026e19367a234d0b0fdb019f859cd3719f4c4',
        'frontier_sha256': '924df64e0e97ee650d55675625a5e734ca1959094d79f596a295fadd0bcb7dd1',
        'frontier_totals': [51730, 3980],
    },
    ('l2_free', 'density:0.01'): {
        'objective': '0x1.c000000000000p-1',
        'final_point': ['-0x1.4000000000000p+0', '0x1.0000000000000p+1', '0x1.fffffffffffffp-1'],
        'points_sha256': '97ff894dd4d16556869a2b1518a354bbc8205df79ae6a1e9a4e80f952b0d48fa',
        'trace_sha256': '4d264aed92b4522a0eb4bbb27720eb79c4559fc990296a059a7275946f828da3',
        'frontier_sha256': '340bbfb55f69795f0593e69d8d3ea2431c4b80c9a0d4130bf8edd50d05b9699a',
        'frontier_totals': [54987, 4087],
    },
    ('l2_free', 'finite-trace:auto'): {
        'objective': '0x1.c000000000000p+0',
        'final_point': ['-0x1.4000000000000p-1', '0x1.0000000000000p+0', '0x1.0000000000000p-1'],
        'points_sha256': '8864b46dd8423490e7cd66d11908427f6e1553e31401553d9ff97d631be7dda8',
        'trace_sha256': '6ebf5c477418a5112c07ac630ceef3c04c34245e37519a2a44d418249dda4799',
        'frontier_sha256': 'a6ff6008b3e252bea85f1e0800bb8e221889b8397b3c935e881dc544a8635709',
        'frontier_totals': [55220, 4095],
    },
    ('three_branch_free', 'fin'): {
        'objective': '0x1.465f9c2d0e3a9p-1',
        'final_point': ['0x1.8000000000000p-3', '0x1.8000000000000p-3'],
        'points_sha256': 'e1d108448293fc7c8e9827bf4dedd10bbc36191deff13d0e5ae4bf749d6b4285',
        'trace_sha256': '7cc69d1ff3825d283f77f41bb72835caf04beeaa704c89727e0b52731c698484',
        'frontier_sha256': '5e51376196c2cbee57471af9f6c8988063501f9bad702b528a80d0a5e1b4e7fd',
        'frontier_totals': [13806, 4608],
    },
    ('three_branch_free', 'density:0.01'): {
        'objective': '0x1.465f9c2d0e3a9p-1',
        'final_point': ['0x1.8000000000000p-2', '0x1.8000000000000p-2'],
        'points_sha256': 'b9d5f68d6fcdd7dd0fcb448bc94413182253fc45ceef5a16e50ae972335de1e3',
        'trace_sha256': '6f3ccd95dc6468d1ee87f7d600170bd7195b38841fd941edf54b95d2034dd84c',
        'frontier_sha256': '5e51376196c2cbee57471af9f6c8988063501f9bad702b528a80d0a5e1b4e7fd',
        'frontier_totals': [13806, 4608],
    },
    ('three_branch_free', 'finite-trace:auto'): {
        'objective': '0x1.d81779897b003p-1',
        'final_point': ['0x1.18c6318c6318cp-3', '0x1.18c6318c6318cp-3'],
        'points_sha256': 'cfd4fcd7e04cb8561d0a5bf2ad7c67a9b9cced2af156596aeda7d20f6fb8f59a',
        'trace_sha256': '62eafb2ef0279dc8ce4a234620d6d977f4b24bff91ad7edeca4293c98dca2810',
        'frontier_sha256': '5e51376196c2cbee57471af9f6c8988063501f9bad702b528a80d0a5e1b4e7fd',
        'frontier_totals': [13806, 4608],
    },
    ('interval', 'fin'): {
        'objective': '0x1.eecaaace8a2efp-1',
        'final_point': ['0x1.b4e81b4e81b50p-5'],
        'points_sha256': '0a57be2302c62a21814a3b57e3feb8b97796a0975b2b09c54e1b345019a72f63',
        'trace_sha256': '0ba5042b0199a88198fa65e8df4051999161889f49c7ff88fc1191414ee62cc0',
        'frontier_sha256': 'e4c6c8c5c94af937f3ba3a7bdabddfaaa28f9da7e304aa2c2466015b2ccca822',
        'frontier_totals': [15336, 3072],
    },
    ('interval', 'density:0.01'): {
        'objective': '0x1.eecaaace8a2efp-1',
        'final_point': ['-0x1.62fc962fc9630p-4'],
        'points_sha256': 'fec56ae050b31563c50fe12313cf2f133c25cf79cd44ed96a8e9a78ea17b9884',
        'trace_sha256': '4e75c958d440d1c8ab6be6b666017693ec84ebf26ebba87c4b7ff11ad326113e',
        'frontier_sha256': 'e4c6c8c5c94af937f3ba3a7bdabddfaaa28f9da7e304aa2c2466015b2ccca822',
        'frontier_totals': [15336, 3072],
    },
    ('interval', 'finite-trace:auto'): {
        'objective': '0x1.ff5c31b289258p-1',
        'final_point': ['-0x1.3bbbbbbbbbbbcp-2'],
        'points_sha256': 'bf40437cbf9689b31d088ef1471ad9de1a6cbaf62162ff9e1eff785d94bf3294',
        'trace_sha256': '904b188f1ed0d3437e3fd340a29539ba9d361c2ca4dcd5eb2ca7eaf46c5ede96',
        'frontier_sha256': 'e4c6c8c5c94af937f3ba3a7bdabddfaaa28f9da7e304aa2c2466015b2ccca822',
        'frontier_totals': [15336, 3072],
    },
}


@pytest.mark.parametrize("name,spec", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_search_reproduces_recorded_result(name, spec):
    assert _summary(name, spec) == RECORDED[(name, spec)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {_summary(*case)!r},")
