"""Fairness-aware cooperative edge inference.

Simulates dual-threshold early-exit classification over per-layer confidence
traces, models the secure uplink and energy costs of offloading critical
events, and solves the joint threshold / assignment / resource-allocation
problem under weighted proportional fairness, with brute-force oracles and
bounds for validation.
"""

from .exitpolicy import (
    ConfusionCounts,
    Decision,
    MetricsReport,
    SoftParams,
    ThresholdPair,
    UndefinedMetricError,
    UtilityCurve,
    classify,
    evaluate,
    optimal_thresholds,
    projected_gradient_search,
    soft_utility,
    utility_curve,
)
from .fairopt import (
    AllocationPlan,
    ENProfile,
    InfeasibleScenarioError,
    Scenario,
    SolveOptions,
    SolveReport,
    UEProfile,
    allocate_compute_dp,
    assignment_search,
    check_feasibility,
    fairness_check,
    lower_bound,
    objective,
    solve_alternating,
    upper_bound,
    weighted_log_objective,
)
from .link import (
    ChannelState,
    DeadlineInfeasibleError,
    EnergyModel,
    InsecureLinkError,
    LinkAllocation,
    OffloadDemand,
    eavesdropper_rate,
    local_inference_energy,
    min_bandwidth_for_deadline,
    offload_energy,
    offload_time,
    secrecy_rate,
    uplink_rate,
)
from .scenario import (
    ResultBundle,
    ScenarioConfig,
    ScenarioParseError,
    load_scenario,
    parse_scenario,
    random_scenario,
    read_bundle,
    write_bundle,
)
from .trace import (
    ConfidenceTrace,
    EventStream,
    GeneratorParams,
    LayerLogits,
    TraceParseError,
    confidence_from_logits,
    generate_stream,
    load_stream,
    save_stream,
    stream_stats,
)

__version__ = "0.1.0"
