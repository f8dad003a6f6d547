"""Energy-aware censoring detection cascades.

Detection systems built from stages of increasing power and fidelity: each
stage updates a Bayesian belief that a target is present and either censors
the frame (declares absence, letting downstream stages sleep) or wakes the
next stage.  The package solves for the optimal wake thresholds on a belief
grid, hardens stage models against contamination, calibrates the
energy/risk trade-off to a budget, generalizes the chain to DAGs of
detectors, maps the rule onto raw feature thresholds for adaptation at
runtime, and simulates everything reproducibly.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateContaminationError,
    GuidedProcError,
    InfeasibleBandError,
    InfeasibleBudgetError,
    ModelFormatError,
)
from .models import (
    BeliefGrid,
    BeliefTable,
    FeatureModel,
    UncertaintyParams,
    evidence,
    expected_next,
    posterior_update,
    symbol_evidence,
    symbol_posteriors,
)
from .robust import (
    BeliefInterval,
    RobustBand,
    least_favorable,
    model_posterior_bounds,
    solve_band,
)
from .cascade import (
    CascadeOptimality,
    Policy,
    RiskReport,
    StageSpec,
    SystemSpec,
    achievable_energy_range,
    build_system,
    calibrate_lambda,
    check_cascade_optimality,
    evaluate,
    path_graph,
    solve,
    tail_off_costs,
)
from .dutycycle import (
    DominanceVerdict,
    DutyCycleSpec,
    dc_risk,
    dominance_check,
    energy_equivalent_rho,
    ideal_duty_cycle,
    single_stage_risks,
)
from .adaptive import (
    AdaptiveState,
    feature_cut,
    is_monotone_ratio,
    prepare_adaptive,
    stationary_targets,
)
from .graph import (
    DetectionGraph,
    GraphPolicy,
    downstream_off_costs,
    post_order,
    solve_graph,
)
from .sim import CHUNK_FRAMES, SimReport, StreamConfig, simulate

__all__ = [
    "__version__",
    "GuidedProcError",
    "DegenerateContaminationError",
    "InfeasibleBandError",
    "InfeasibleBudgetError",
    "ModelFormatError",
    "FeatureModel",
    "UncertaintyParams",
    "BeliefGrid",
    "BeliefTable",
    "posterior_update",
    "evidence",
    "symbol_posteriors",
    "symbol_evidence",
    "expected_next",
    "RobustBand",
    "BeliefInterval",
    "solve_band",
    "least_favorable",
    "model_posterior_bounds",
    "StageSpec",
    "SystemSpec",
    "Policy",
    "RiskReport",
    "CascadeOptimality",
    "solve",
    "path_graph",
    "evaluate",
    "build_system",
    "calibrate_lambda",
    "achievable_energy_range",
    "check_cascade_optimality",
    "tail_off_costs",
    "DutyCycleSpec",
    "DominanceVerdict",
    "dc_risk",
    "energy_equivalent_rho",
    "dominance_check",
    "ideal_duty_cycle",
    "single_stage_risks",
    "AdaptiveState",
    "stationary_targets",
    "prepare_adaptive",
    "feature_cut",
    "is_monotone_ratio",
    "DetectionGraph",
    "GraphPolicy",
    "post_order",
    "downstream_off_costs",
    "solve_graph",
    "StreamConfig",
    "SimReport",
    "simulate",
    "CHUNK_FRAMES",
]
