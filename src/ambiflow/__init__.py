"""Ambiguity sets for dynamic populations.

Tools for building Wasserstein balls around empirical distributions of
states sampled from an evolving population: finite-sample concentration
radii, numerical-flow pushforward error, effective sampling horizons,
sampling-rate conditions for state reconstruction from partial outputs,
and a two-player UAV tracking study tying the pieces together.
"""

from ambiflow.ambiguity import (
    HorizonResult,
    SamplingSchedule,
    cumulative_empirical,
    effective_horizon,
    pushforward_error,
    pushforward_error_noisy,
    total_radius,
)
from ambiflow.concentration import (
    RadiusConfig,
    ambiguity_radius,
    calibrated_radius,
    critical_rate,
    deviation_bound,
    invert_critical_rate,
)
from ambiflow.distribution import (
    DiscreteDistribution,
    TransportPlan,
    coupling_upper_bound,
    optimal_plan,
    wasserstein_exact,
)
from ambiflow.dynamics import (
    FlowErrorModel,
    GrowthCertificate,
    VectorField,
    builtin_field,
    calibrate_flow_error,
    growth_bound,
    integrate_flow,
)
from ambiflow.observability import (
    EigenStructure,
    LinearTimeVaryingSystem,
    check_schedule_observability,
    eigenvalue_margin,
    estimation_error_bound,
    gramian_floor,
    observability_gramian,
    reconstruct_state,
    robust_sampling_bound,
    sample_observability_matrix,
    weight_matrix,
)
from ambiflow.uav_scenario import (
    AmbiguityBall,
    ScenarioConfig,
    default_config,
    dro_objective,
    reconstruct_red_state,
    run_experiment,
    solve_dro,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityBall",
    "DiscreteDistribution",
    "EigenStructure",
    "FlowErrorModel",
    "GrowthCertificate",
    "HorizonResult",
    "LinearTimeVaryingSystem",
    "RadiusConfig",
    "SamplingSchedule",
    "ScenarioConfig",
    "TransportPlan",
    "VectorField",
    "__version__",
    "ambiguity_radius",
    "builtin_field",
    "calibrate_flow_error",
    "calibrated_radius",
    "check_schedule_observability",
    "coupling_upper_bound",
    "critical_rate",
    "cumulative_empirical",
    "default_config",
    "deviation_bound",
    "dro_objective",
    "effective_horizon",
    "eigenvalue_margin",
    "estimation_error_bound",
    "gramian_floor",
    "growth_bound",
    "integrate_flow",
    "invert_critical_rate",
    "observability_gramian",
    "optimal_plan",
    "pushforward_error",
    "pushforward_error_noisy",
    "reconstruct_red_state",
    "reconstruct_state",
    "robust_sampling_bound",
    "run_experiment",
    "sample_observability_matrix",
    "solve_dro",
    "total_radius",
    "wasserstein_exact",
    "weight_matrix",
]
