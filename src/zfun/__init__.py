"""Exact finite metric spaces, measures, gluing, extension and step functions.

The package keeps everything rational by default (:mod:`fractions`), so
functor laws, isometries and optimal-transport duality hold as literal
equalities — no tolerances unless float mode is requested explicitly.
"""

from .errors import (
    AnchorDiameterNotOne,
    AxiomViolation,
    BadN,
    BadParameters,
    DomainMismatch,
    FormatError,
    InfeasibleMass,
    InvalidMetric,
    InvalidWeights,
    NotInFamily,
    NotSetwiseInvariant,
    SolverFailure,
    SpaceMismatch,
    TargetMismatch,
    UnknownPoint,
    ValueOutsideImage,
    ZfunError,
)
from .kantorovich import (
    LipschitzPotential,
    TransportPlan,
    duality_gap,
    kantorovich,
    kantorovich_dual,
    kantorovich_primal,
    lipschitz_potential,
    potential_gap,
    transport_plan,
)
from .measures import (
    ProbMeasure,
    convex_combination,
    dirac,
    image_weight,
    in_image,
    integrate,
    measures_equal,
    preimage_measure,
    prob_measure,
    pushforward,
)
from .numbers import EXACT, Mode, float_mode, format_number, parse_number
from .scheme import (
    ContinuationContext,
    build_finite_fixture,
    decompose_automorphism,
    extend_map,
    extend_metric,
    member_space,
)
from .spaces import (
    ANCHOR_PREFIX,
    FiniteMetricSpace,
    MetricMap,
    compose,
    default_anchor,
    diameter,
    glue_map,
    glue_space,
    identity_map,
    image,
    invert,
    is_bijective,
    is_injective,
    is_surjective,
    metric_map,
    metric_violations,
    relabel_disjoint,
    sup_distance,
    subspace,
    validate_space,
)
from .stepspace import (
    StepFunction,
    compose_pushforward,
    dirac_const,
    integral_metric,
    phi_n_witness,
    refine,
    select_preimage,
    step_function,
)
from .suites import Report, RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "AnchorDiameterNotOne", "AxiomViolation", "BadN", "BadParameters",
    "DomainMismatch", "FormatError", "InfeasibleMass", "InvalidMetric",
    "InvalidWeights", "NotInFamily", "NotSetwiseInvariant", "SolverFailure",
    "SpaceMismatch", "TargetMismatch", "UnknownPoint", "ValueOutsideImage",
    "ZfunError",
    "LipschitzPotential", "TransportPlan", "duality_gap", "kantorovich",
    "kantorovich_dual", "kantorovich_primal", "lipschitz_potential",
    "potential_gap", "transport_plan",
    "ProbMeasure", "convex_combination", "dirac", "image_weight",
    "in_image", "integrate", "measures_equal", "preimage_measure",
    "prob_measure", "pushforward",
    "EXACT", "Mode", "float_mode", "format_number", "parse_number",
    "ContinuationContext", "build_finite_fixture",
    "decompose_automorphism", "extend_map", "extend_metric", "member_space",
    "ANCHOR_PREFIX", "FiniteMetricSpace", "MetricMap", "compose",
    "default_anchor", "diameter", "glue_map", "glue_space",
    "identity_map", "image", "invert", "is_bijective", "is_injective",
    "is_surjective", "metric_map", "metric_violations", "relabel_disjoint",
    "sup_distance", "subspace", "validate_space",
    "StepFunction", "compose_pushforward", "dirac_const", "integral_metric",
    "phi_n_witness", "refine", "select_preimage", "step_function",
    "Report", "RunConfig", "run_suite",
    "__version__",
]
