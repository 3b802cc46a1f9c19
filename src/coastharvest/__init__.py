"""Optimal harvesting policies for a coastline fishery with diffusion.

The package decides, from closed-form optimality conditions, whether a
finite coastline supports a centered no-take reserve, places it, and
cross-checks the answer with independent numerics: an exact edge-value
two-point solve for the steady state and adjoint, brute-force policy
enumeration, an event oracle that bisects the adjoint's horizon with
its exact flow maps through the switching structure, an implicit
parabolic solver, and a spectral stability check.  The checks need
numpy and scipy.linalg only.
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
from .policy import HarvestPolicy, cell_policy, constant_policy, single_reserve_policy
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
    half_length_domain,
    half_length_function,
    optimal_policy,
    unscaled_min_length,
    unscaled_reserve_boundary,
)

__version__ = "0.1.0"

# The verification routes live in `lab`, the only module that imports
# scipy; they load on first access so that the closed-form solves and
# the commands built on them start without scipy.
_LAB_NAMES = frozenset(
    {
        "PdeRun",
        "SweepResult",
        "brute_force_bangbang",
        "integrate_adjoint_with_events",
        "pde_time_stepper",
        "reserve_sweep",
        "stability_eigenvalues",
    }
)


def __getattr__(name: str):
    if name in _LAB_NAMES:
        from . import lab

        return getattr(lab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list(__all__)


__all__ = [
    "DerivedConstants",
    "HarvestPolicy",
    "OptimalSolution",
    "ParameterError",
    "PdeRun",
    "Profile",
    "ScaledParams",
    "SegmentSolution",
    "SolutionDiagnostics",
    "SweepResult",
    "UnscaledParams",
    "brute_force_bangbang",
    "cell_policy",
    "constant_policy",
    "derive_constants",
    "evaluate_objective",
    "half_length_domain",
    "half_length_function",
    "hamiltonian_diagnostic",
    "hitting_time",
    "integrate_adjoint_with_events",
    "min_length",
    "optimal_policy",
    "pde_time_stepper",
    "post_switch_time",
    "reserve_sweep",
    "shoot_steady_state",
    "single_reserve_policy",
    "solve_adjoint",
    "solve_lambda_bar",
    "stability_eigenvalues",
    "switch_line_intercept",
    "to_scaled",
    "to_unscaled_length",
    "unscale_objective",
    "unscaled_min_length",
    "unscaled_reserve_boundary",
]
