"""Optimal harvesting policies for a coastline fishery with diffusion.

The package decides, from closed-form optimality conditions, whether a
finite coastline supports a centered no-take reserve, places it, and
cross-checks the answer with independent numerics: an exact edge-value
two-point solve for the steady state and adjoint, brute-force policy
enumeration, an event oracle that bisects the adjoint's horizon with
its exact flow maps through the switching structure, an implicit
parabolic solver, and a spectral stability check.  The checks live in
`coastharvest.lab`, the one module that needs numpy and scipy.linalg;
import them from there.
"""

from .bvp import (
    Profile,
    SegmentSolution,
    evaluate_objective,
    hamiltonian_diagnostic,
    shoot_steady_state,
    solve_adjoint,
)
from .params import (
    ParameterError,
    ScaledParams,
    UnscaledParams,
    to_scaled,
    to_unscaled_length,
    unscale_objective,
)
from .policy import HarvestPolicy, constant_policy, single_reserve_policy
from .switching import (
    DerivedConstants,
    derive_constants,
    hitting_time,
    min_length,
    post_switch_time,
    solve_lambda_bar,
    switch_line_intercept,
)
from .synthesis import (
    OptimalSolution,
    SolutionDiagnostics,
    optimal_policy,
    unscaled_min_length,
    unscaled_reserve_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedConstants",
    "HarvestPolicy",
    "OptimalSolution",
    "ParameterError",
    "Profile",
    "ScaledParams",
    "SegmentSolution",
    "SolutionDiagnostics",
    "UnscaledParams",
    "constant_policy",
    "derive_constants",
    "evaluate_objective",
    "hamiltonian_diagnostic",
    "hitting_time",
    "min_length",
    "optimal_policy",
    "post_switch_time",
    "shoot_steady_state",
    "single_reserve_policy",
    "solve_adjoint",
    "solve_lambda_bar",
    "switch_line_intercept",
    "to_scaled",
    "to_unscaled_length",
    "unscale_objective",
    "unscaled_min_length",
    "unscaled_reserve_boundary",
]
