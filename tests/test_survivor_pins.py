"""Beam-search results recorded before each step ranked only the children
that can survive; the search must reproduce them bit for bit. Every
system here has more children per parent than the beam is wide, so the
survivor selection runs on (nearly) every step: an interval image
sampled at 33 points, five branch maps under a beam of 2, the l2
truncation in d = 8 (129 children per parent) on two seeds, and the l2
truncation in d = 3 on a grid coarse enough to merge children into
shared cells. Each runs under all three ideal kinds.

Run this file as a script to print the table from the current code.
"""

import hashlib

import numpy as np
import pytest

from turnlab.dynamics import FiniteBranch, Free, Interval1D, SystemInstance
from turnlab.ideals import parse_ideal_spec
from turnlab.optimizer import SearchConfig, maxmin_search
from turnlab.scenarios import build_l2_truncation

SPECS = ("fin", "density:0.01", "finite-trace:auto")


def _l2(dim, seed, model):
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(-1.0, 1.0, dim)
    x_star *= 0.9 / max(1.0, float(np.sqrt((x_star**2).sum())))
    return build_l2_truncation(dim, x_star, model)


def _search(name, spec):
    if name == "interval33":
        model = parse_ideal_spec(spec, 512)
        sys_inst = SystemInstance(
            dim=1,
            phi=Interval1D(lambda x: 0.5 * x - 0.3, lambda x: 0.5 * x + 0.4, samples=33),
            utility=lambda p: np.cos(3.0 * p[..., 0]),
            ideal=model,
            constraint=Free(np.array([[-1.0, 1.0]])),
            box=np.array([[-2.0, 2.0]]),
        )
        return sys_inst, SearchConfig(512, beam_width=4)
    if name == "five_branch":
        maps = (
            lambda x: 0.5 * x,
            lambda x: 0.4 * x[..., ::-1] + 0.3,
            lambda x: -0.6 * x + 0.1,
            lambda x: 0.7 * x - 0.2,
            lambda x: 0.2 * x[..., ::-1] - 0.5,
        )
        sys_inst = SystemInstance(
            dim=2,
            phi=FiniteBranch(maps, dim=2),
            utility=lambda p: np.sin(6.0 * p[..., 0]) - p[..., 1] ** 2,
            ideal=parse_ideal_spec(spec, 512),
            constraint=Free(np.array([[-1.0, 1.0], [-0.5, 0.5]])),
            box=np.tile([-2.0, 2.0], (2, 1)),
        )
        return sys_inst, SearchConfig(512, beam_width=2)
    if name in ("l2_8_seed0", "l2_8_seed3"):
        seed = int(name[-1])
        return _l2(8, seed, parse_ideal_spec(spec, 1024)), SearchConfig(1024, beam_width=8)
    if name == "l2_3_coarse":
        model = parse_ideal_spec(spec, 1024)
        return _l2(3, 0, model), SearchConfig(1024, beam_width=8, state_grid=0.25)
    raise ValueError(name)


def _sha256(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def _summary(name, spec):
    """Objective and final point as float.hex; every path point (as
    float.hex), the whole trace and every frontier size through their
    SHA-256, with the frontier's children and kept totals."""
    rep = maxmin_search(*_search(name, spec))
    return {
        "objective": rep.objective.hex(),
        "final_point": [float(v).hex() for v in rep.path.points[-1]],
        "points_sha256": _sha256(float(v).hex() for v in rep.path.points.ravel()),
        "trace_sha256": _sha256(str(b) for b in rep.path.trace),
        "frontier_sha256": _sha256(f"{c} {k}" for c, k in rep.frontier_sizes),
        "frontier_totals": [int(v) for v in np.sum(rep.frontier_sizes, axis=0)],
    }


NAMES = ("interval33", "five_branch", "l2_8_seed0", "l2_8_seed3", "l2_3_coarse")
CASES = [(name, spec) for name in NAMES for spec in SPECS]

RECORDED = {
    ('interval33', 'fin'): {
        'objective': '0x1.ffbac8a0175d0p-1',
        'final_point': ['0x1.b4e81b4e81c00p-11'],
        'points_sha256': '95a5f280c79e772f1c1139e5d485ff2c180e975a416891d1c8bd7bb7eda6b441',
        'trace_sha256': 'ae740b1290f7b8273cae2ec135c09f76c64ea22faee8ccc83631a0519f84b4b6',
        'frontier_sha256': '58a6cef2accc738652eafa6a37a751ab09ae53eec2bab88cef7b1a782e77b9de',
        'frontier_totals': [67456, 2048],
    },
    ('interval33', 'density:0.01'): {
        'objective': '0x1.ffbac8a0175d0p-1',
        'final_point': ['-0x1.62fc962fc9620p-7'],
        'points_sha256': '49538e82e3f8f628a36bd0ed76f7f5f8ffec86b56e4f6cb9a0ea59defebeea52',
        'trace_sha256': 'deb7f1b668b55cb3030bce734a1cca7813857fa5b8eb68129a22e42189fd60db',
        'frontier_sha256': '58a6cef2accc738652eafa6a37a751ab09ae53eec2bab88cef7b1a782e77b9de',
        'frontier_totals': [67456, 2048],
    },
    ('interval33', 'finite-trace:auto'): {
        'objective': '0x1.fffd70a462d99p-1',
        'final_point': ['-0x1.3bbbbbbbbbbc0p-5'],
        'points_sha256': 'db0a9dfe87be1420b1b0014dcb848787b73f727af7eae49193c821c79dcd7b24',
        'trace_sha256': 'fefe2ab94e65f1852a0d68c1eb7e1911d0d8b2ce97ad1747720fffa7af3ac9ce',
        'frontier_sha256': '58a6cef2accc738652eafa6a37a751ab09ae53eec2bab88cef7b1a782e77b9de',
        'frontier_totals': [67456, 2048],
    },
    ('five_branch', 'fin'): {
        'objective': '0x1.465f9c2d0e3a9p-1',
        'final_point': ['0x1.8000000000000p-3', '0x1.8000000000000p-3'],
        'points_sha256': '842ae18e890b0af2b44c0bf7b4e863193c74e90e1c7b0324c14d82e6cde3de51',
        'trace_sha256': 'e525598dc0349bc2e15b3e601da0bb1a157330890443722d7e7aea6abcc3aefa',
        'frontier_sha256': '3a1e6fcbe348c14ab1f0c91de71cc151a9513967c19da84da4620103ccb2a0f5',
        'frontier_totals': [5112, 1024],
    },
    ('five_branch', 'density:0.01'): {
        'objective': '0x1.465f9c2d0e3a9p-1',
        'final_point': ['0x1.8000000000000p-2', '0x1.8000000000000p-2'],
        'points_sha256': 'f9daca80135d0d543dc5f94d26755819651d34e7bfc080ca91ef3fc76db24629',
        'trace_sha256': '5b36b01d4232b7ce7bb7a978fc35934798dd4d12092eab08a15024a8bbb33bec',
        'frontier_sha256': '3a1e6fcbe348c14ab1f0c91de71cc151a9513967c19da84da4620103ccb2a0f5',
        'frontier_totals': [5112, 1024],
    },
    ('five_branch', 'finite-trace:auto'): {
        'objective': '0x1.bbf604a1cadcep-1',
        'final_point': ['0x1.8000000000000p-4', '0x1.8000000000000p-4'],
        'points_sha256': '8216c62c003e86a5bcc342cbb1e595b085f98e76087ca887a673827ce5f8263d',
        'trace_sha256': '081f78bcbddd57964e98d10d5a66fa6463d8296c3b53ad4019aa194b31b3f942',
        'frontier_sha256': '3a1e6fcbe348c14ab1f0c91de71cc151a9513967c19da84da4620103ccb2a0f5',
        'frontier_totals': [5112, 1024],
    },
    ('l2_8_seed0', 'fin'): {
        'objective': '0x0.11204e8d57d06p-1022',
        'final_point': [
            '0x0.11204e8d57d06p-1022',
            '-0x0.1cc966d376c7ap-1022',
            '-0x0.3965fc0d05410p-1022',
            '-0x0.3c7486cf08d54p-1022',
            '0x0.272c275a0184cp-1022',
            '0x0.339ccc46eba17p-1022',
            '0x0.0d5589cc39a69p-1022',
            '0x0.1cb2755bf94d3p-1022',
        ],
        'points_sha256': '7b7ea1aad52356cf2a8536541670d4601f8710210ddcb21f29729d57866b8415',
        'trace_sha256': '2784f019c0c151549221bcbe4765276b5d3b7792d9b0ec0802da7023be68e0c5',
        'frontier_sha256': '0fe193d2d616a44f8c58f0cb0a5146f2ec42daef26769084b3cfb0bd5b9425f4',
        'frontier_totals': [1012580, 8171],
    },
    ('l2_8_seed0', 'density:0.01'): {
        'objective': '0x1.1204e8d57d05ep-1020',
        'final_point': [
            '0x0.11204e8d57d06p-1022',
            '-0x0.1cc966d376c7ap-1022',
            '-0x0.3965fc0d05410p-1022',
            '-0x0.3c7486cf08d54p-1022',
            '0x0.272c275a0184cp-1022',
            '0x0.339ccc46eba17p-1022',
            '0x0.0d5589cc39a69p-1022',
            '0x0.1cb2755bf94d3p-1022',
        ],
        'points_sha256': '7b7ea1aad52356cf2a8536541670d4601f8710210ddcb21f29729d57866b8415',
        'trace_sha256': '2784f019c0c151549221bcbe4765276b5d3b7792d9b0ec0802da7023be68e0c5',
        'frontier_sha256': '0fe193d2d616a44f8c58f0cb0a5146f2ec42daef26769084b3cfb0bd5b9425f4',
        'frontier_totals': [1012580, 8171],
    },
    ('l2_8_seed0', 'finite-trace:auto'): {
        'objective': '0x1.1204e8d57d05ep-897',
        'final_point': [
            '0x0.11204e8d57d06p-1022',
            '-0x0.1cc966d376c7ap-1022',
            '-0x0.3965fc0d05410p-1022',
            '-0x0.3c7486cf08d54p-1022',
            '0x0.272c275a0184cp-1022',
            '0x0.339ccc46eba17p-1022',
            '0x0.0d5589cc39a69p-1022',
            '0x0.1cb2755bf94d3p-1022',
        ],
        'points_sha256': '7b7ea1aad52356cf2a8536541670d4601f8710210ddcb21f29729d57866b8415',
        'trace_sha256': '2784f019c0c151549221bcbe4765276b5d3b7792d9b0ec0802da7023be68e0c5',
        'frontier_sha256': '9ed363869ff01a11087cb32262cdde59410831de2914405561a49e6f616b6914',
        'frontier_totals': [1009764, 8171],
    },
    ('l2_8_seed3', 'fin'): {
        'objective': '-0x1.c7e8b10fec426p-616',
        'final_point': [
            '-0x0.0p+0',
            '-0x1.33155424b0211p-663',
            '0x1.5f851c6fe3617p-663',
            '0x1.7f757c7875ca7p-665',
            '-0x1.d98fa84054fbep-663',
            '-0x1.381a894f296d5p-665',
            '-0x1.8714499194832p-667',
            '0x1.7844b877d2138p-665',
        ],
        'points_sha256': '1a6e7e7a1411a7dfe789e376fe1fda536fc1c77e22398f6193b1a8fa56f664fa',
        'trace_sha256': 'f3165e2f787cd668e12f93569eccc150abcd0126dfb7579f0076450e308f3f45',
        'frontier_sha256': '1dd8054c7522b20b674b8a90c468b7b723e5bd276241c9a8c7a0babc8776be95',
        'frontier_totals': [1037298, 8185],
    },
    ('l2_8_seed3', 'density:0.01'): {
        'objective': '-0x1.c7e8b10fec426p-623',
        'final_point': [
            '-0x0.0p+0',
            '-0x1.33155424b0211p-663',
            '0x1.5f851c6fe3617p-663',
            '0x1.7f757c7875ca7p-665',
            '-0x1.d98fa84054fbep-663',
            '-0x1.381a894f296d5p-665',
            '-0x1.8714499194832p-667',
            '0x1.7844b877d2138p-665',
        ],
        'points_sha256': '1a6e7e7a1411a7dfe789e376fe1fda536fc1c77e22398f6193b1a8fa56f664fa',
        'trace_sha256': 'f3165e2f787cd668e12f93569eccc150abcd0126dfb7579f0076450e308f3f45',
        'frontier_sha256': '1dd8054c7522b20b674b8a90c468b7b723e5bd276241c9a8c7a0babc8776be95',
        'frontier_totals': [1037298, 8185],
    },
    ('l2_8_seed3', 'finite-trace:auto'): {
        'objective': '-0x1.c7e8b10fec426p-769',
        'final_point': [
            '-0x0.0p+0',
            '-0x1.33155424b0211p-663',
            '0x1.5f851c6fe3617p-663',
            '0x1.7f757c7875ca7p-665',
            '-0x1.d98fa84054fbep-663',
            '-0x1.381a894f296d5p-665',
            '-0x1.8714499194832p-667',
            '0x1.7844b877d2138p-665',
        ],
        'points_sha256': '1a6e7e7a1411a7dfe789e376fe1fda536fc1c77e22398f6193b1a8fa56f664fa',
        'trace_sha256': 'f3165e2f787cd668e12f93569eccc150abcd0126dfb7579f0076450e308f3f45',
        'frontier_sha256': '1dd8054c7522b20b674b8a90c468b7b723e5bd276241c9a8c7a0babc8776be95',
        'frontier_totals': [1037298, 8185],
    },
    ('l2_3_coarse', 'fin'): {
        'objective': '0x0.1daff6dd073b9p-1022',
        'final_point': [
            '0x0.1daff6dd073b9p-1022',
            '-0x0.31e677ef006b4p-1022',
            '-0x0.637f3efc5199cp-1022',
        ],
        'points_sha256': 'a8f0a480f2796c15df793f4301831233894e2d267c3820bcdefb177dfd8cfc07',
        'trace_sha256': '2784f019c0c151549221bcbe4765276b5d3b7792d9b0ec0802da7023be68e0c5',
        'frontier_sha256': 'dbc6c3f0fec340fd0052bc05f7b8fcf15a156b4b82d970667692c4b3a1642d7c',
        'frontier_totals': [212603, 8185],
    },
    ('l2_3_coarse', 'density:0.01'): {
        'objective': '0x1.daff6dd073b95p-1020',
        'final_point': [
            '0x0.1daff6dd073b9p-1022',
            '-0x0.31e677ef006b4p-1022',
            '-0x0.637f3efc5199cp-1022',
        ],
        'points_sha256': 'a8f0a480f2796c15df793f4301831233894e2d267c3820bcdefb177dfd8cfc07',
        'trace_sha256': '2784f019c0c151549221bcbe4765276b5d3b7792d9b0ec0802da7023be68e0c5',
        'frontier_sha256': 'dbc6c3f0fec340fd0052bc05f7b8fcf15a156b4b82d970667692c4b3a1642d7c',
        'frontier_totals': [212603, 8185],
    },
    ('l2_3_coarse', 'finite-trace:auto'): {
        'objective': '0x1.daff6dd073b95p-897',
        'final_point': [
            '0x0.1daff6dd073b9p-1022',
            '-0x0.31e677ef006b4p-1022',
            '-0x0.637f3efc5199cp-1022',
        ],
        'points_sha256': 'a8f0a480f2796c15df793f4301831233894e2d267c3820bcdefb177dfd8cfc07',
        'trace_sha256': '2784f019c0c151549221bcbe4765276b5d3b7792d9b0ec0802da7023be68e0c5',
        'frontier_sha256': 'dbc6c3f0fec340fd0052bc05f7b8fcf15a156b4b82d970667692c4b3a1642d7c',
        'frontier_totals': [212603, 8185],
    },
}


@pytest.mark.parametrize("name,spec", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_search_reproduces_recorded_result(name, spec):
    assert _summary(name, spec) == RECORDED[(name, spec)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {_summary(*case)!r},")
