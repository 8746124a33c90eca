"""Weighted hyperbolic centers of mass on the Poincare ball.

Find the point x where the Mobius-translated radial field of a finite atomic
measure integrates to zero, by minimizing a renormalized energy that is convex
along hyperbolic geodesics; verify the underlying identities with independent
brute-force scans.
"""

from .energy import (
    EnergyContext,
    energy_context,
    energy_gradient,
    field_V,
    kernel_K,
    renormalized_energy,
)
from .geometry import (
    BallPoint,
    Geodesic,
    Halfspace,
    Locus,
    fold,
    fold_map,
    geodesic,
    geodesic_point,
    geodesic_through,
    halfspace,
    halfspace_contains,
    hyp_distance,
    inverse_exp,
    mobius,
    mobius_inverse,
    mobius_map,
    point,
    reflect,
)
from .measures import (
    AtomicMeasure,
    BallRegion,
    GeodesicSupport,
    Support,
    ValidationReport,
    atomic_measure,
    ball_region,
    pushforward,
    quantize_density,
    validate,
)
from .solver import (
    HypothesisClass,
    SolveOptions,
    SolveResult,
    Strategy,
    Uniqueness,
    UniquenessKind,
    classify_hypotheses,
    continuity_probe,
    multistart_probe,
    solve_center,
)
from .weights import (
    Monotonicity,
    RadialWeight,
    arctanh_power,
    clamped_arctanh,
    clamped_linear,
    eval_G,
    eval_g,
    identity,
    log_damped,
    min_r_arctanh_inv,
    normalized_for_boundary,
    table,
    weight_from_config,
)

__version__ = "0.1.0"
