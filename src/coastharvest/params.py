"""Dimensional parameters of the coastline model and their scaled form.

The model has six physical inputs: diffusion D, recruitment R, natural
mortality mu, the harvesting cap Hbar, the price-like weight Q, and the
habitat length L.  Dividing rates by mu and lengths by sqrt(D/mu)
collapses them to three numbers (l, q, hbar) that the solver works in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """Raised when a parameter set violates its finiteness or positivity constraints."""


def _require_finite(obj, names: tuple[str, ...]) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ParameterError(f"{name} must be finite, got {getattr(obj, name)!r}")


@dataclass(frozen=True)
class UnscaledParams:
    """Physical inputs. All finite and strictly positive except Q, which may be zero."""

    D: float
    R: float
    mu: float
    Hbar: float
    Q: float
    L: float

    def __post_init__(self) -> None:
        _require_finite(self, ("D", "R", "mu", "Hbar", "Q", "L"))
        for name in ("D", "R", "mu", "Hbar", "L"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.Q < 0.0:
            raise ParameterError(f"Q must be nonnegative, got {self.Q!r}")

    @property
    def length_unit(self) -> float:
        """The diffusion length sqrt(D/mu) that nondimensionalises x."""
        return math.sqrt(self.D / self.mu)


@dataclass(frozen=True)
class ScaledParams:
    """Nondimensional inputs: domain length l, weight q, harvest cap hbar."""

    l: float
    q: float
    hbar: float

    def __post_init__(self) -> None:
        _require_finite(self, ("l", "q", "hbar"))
        if not self.l > 0.0:
            raise ParameterError(f"l must be positive, got {self.l!r}")
        if not self.hbar > 0.0:
            raise ParameterError(f"hbar must be positive, got {self.hbar!r}")
        if self.q < 0.0:
            raise ParameterError(f"q must be nonnegative, got {self.q!r}")


def to_scaled(p: UnscaledParams) -> ScaledParams:
    """Map physical parameters to (l, q, hbar).

    l = L / sqrt(D/mu), q = Q / mu, hbar = Hbar / mu.
    """
    return ScaledParams(l=p.L / p.length_unit, q=p.Q / p.mu, hbar=p.Hbar / p.mu)


def to_unscaled_length(x: float, p: UnscaledParams) -> float:
    """Convert a scaled length or coordinate back to physical units."""
    return x * p.length_unit


def unscale_objective(j: float, p: UnscaledParams) -> float:
    """Scaled objective j is per-recruitment; the physical yield is R*j."""
    J = j * p.R
    if not math.isfinite(J):
        raise ParameterError(f"the physical objective R*j overflows at R = {p.R!r}, j = {j!r}")
    return J
