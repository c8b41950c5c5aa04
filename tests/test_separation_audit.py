"""A5 and the strong/weak separation variants come from one sample,
streamed through ``expand`` in spans of about ``EXPAND_CHUNK`` children
(``dynamics.expand_spans``): ``check_conditions`` carries the variant
report, and both results reproduce the ones recorded before the audit
was merged."""

import dataclasses

import numpy as np
import pytest

from turnlab.ideals import IdealModel
from turnlab.scenarios import (
    build_counterexample_system,
    build_ifs_system,
    build_l2_truncation,
    build_weak_separation_system,
)
from turnlab.verifier import (
    SamplingPlan,
    _separation_audit,
    check_conditions,
    check_separation_variants,
)

PLAN = SamplingPlan(n_points=2000, seed=0, continuity_samples=128)


def _ifs():
    return build_ifs_system([(0.5, 0.0), (0.3, 0.7)], IdealModel("fin", 2048))


def _l2(d):
    return build_l2_truncation(d, np.r_[1.0, np.zeros(d - 1)], IdealModel("density", 2048))


SYSTEMS = {
    "weak-separation": lambda: build_weak_separation_system(IdealModel("fin", 2048)),
    "counterexample": lambda: build_counterexample_system(IdealModel("density", 2048)),
    "ifs": _ifs,
    "l2-d3": lambda: _l2(3),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_condition_report_carries_the_variants(name):
    s = SYSTEMS[name]()
    rep = check_conditions(s, PLAN)
    assert rep.separation == check_separation_variants(s, PLAN)
    assert "separation" not in rep.to_dict()


def test_untestable_a5_has_no_variant_report():
    rep = check_conditions(dataclasses.replace(_ifs(), separation=None), PLAN)
    assert rep.verdict("A5") == "untestable"
    assert rep.separation is None


# Recorded with check_conditions (A5) and check_separation_variants on the
# commit before the merge, under PLAN. On ifs eta_star = 1, so the A5
# scale (draws only) and the variant scale (eta_star included) differ.
IFS_A5 = {"verdict": "pass", "pairs_checked": 4000, "witness": None}
IFS_VARIANTS = {
    "strong_holds": True,
    "weak_holds": True,
    "weak_without_strong": False,
    "strong_witness": None,
    "weak_witness": None,
    "pairs_checked": 4002,
}
# l2 at d=8: the strong witness is at eta_star (a band child of the
# origin), the weak variant holds and A5 over the draws passes.
L2_A5 = {"verdict": "pass", "pairs_checked": 258000, "witness": None}
L2_VARIANTS = {
    "strong_holds": False,
    "weak_holds": True,
    "weak_without_strong": True,
    "strong_witness": {
        "x": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "y": [-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.14285714285714285],
    },
    "weak_witness": None,
    "pairs_checked": 258129,
}


def test_ifs_audit_matches_recorded():
    s = _ifs()
    rep = check_conditions(s, PLAN)
    assert repr(rep.conditions["A5"]) == repr(IFS_A5)
    assert repr(rep.separation.to_dict()) == repr(IFS_VARIANTS)


def test_l2_d8_audit_matches_recorded():
    a5, variants = _separation_audit(_l2(8), PLAN)
    # repr keeps the sign of the -0.0 head coordinate
    assert repr(a5) == repr(L2_A5)
    assert repr(variants.to_dict()) == repr(L2_VARIANTS)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_a5_pairs_exclude_eta_star_children(name):
    s = SYSTEMS[name]()
    a5, variants = _separation_audit(s, PLAN)
    star_children = s.phi.expand(s.eta_star[None, :])[0].shape[0]
    assert a5["pairs_checked"] == variants.pairs_checked - star_children
