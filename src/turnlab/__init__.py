"""Numerical laboratory for ideal convergence and turnpike experiments.

Everything operates at a finite horizon N: ideals on the nonnegative
integers are rendered as explicit membership oracles on {0, ..., N-1},
sequences are finite windows, and set-valued maps are finite image
samples. Every verdict carries the thresholds it was computed with.
"""

from turnlab.ideals import (
    IdealModel,
    is_small,
    check_translation_invariance,
    parse_ideal_spec,
)
from turnlab.windows import SequenceWindow
from turnlab.analysis import (
    ClusterReport,
    analyze_window,
    cluster_points,
    ideal_liminf,
    ideal_limsup,
    check_image_cluster_identity,
    check_representation_identity,
)
from turnlab.dynamics import (
    FiniteBranch,
    Interval1D,
    TruncatedL2,
    SystemInstance,
    StartAt,
    Free,
    Path,
    fixed_points,
    continuity_probe,
    feasible_path,
    feasibility_check,
)
from turnlab.optimizer import (
    SearchConfig,
    OptimReport,
    maxmin_search,
    exhaustive_maxmin,
    path_objective,
)
from turnlab.verifier import (
    SamplingPlan,
    ConditionReport,
    TurnpikeVerdict,
    check_conditions,
    check_separation_variants,
    turnpike_verdict,
)
from turnlab.scenarios import (
    build_counterexample_system,
    build_block_sequence,
    build_ifs_system,
    build_l2_truncation,
)

__version__ = "0.1.0"

__all__ = [
    "IdealModel",
    "is_small",
    "check_translation_invariance",
    "parse_ideal_spec",
    "SequenceWindow",
    "ClusterReport",
    "analyze_window",
    "cluster_points",
    "ideal_liminf",
    "ideal_limsup",
    "check_image_cluster_identity",
    "check_representation_identity",
    "FiniteBranch",
    "Interval1D",
    "TruncatedL2",
    "SystemInstance",
    "StartAt",
    "Free",
    "Path",
    "fixed_points",
    "continuity_probe",
    "feasible_path",
    "feasibility_check",
    "SearchConfig",
    "OptimReport",
    "maxmin_search",
    "exhaustive_maxmin",
    "path_objective",
    "SamplingPlan",
    "ConditionReport",
    "TurnpikeVerdict",
    "check_conditions",
    "check_separation_variants",
    "turnpike_verdict",
    "build_counterexample_system",
    "build_block_sequence",
    "build_ifs_system",
    "build_l2_truncation",
]
