"""Dimensional parameters of the coastline model and their scaled form.

The model has six physical inputs: diffusion D, recruitment R, natural
mortality mu, the harvesting cap Hbar, the price-like weight Q, and the
habitat length L.  Dividing rates by mu and lengths by sqrt(D/mu)
collapses them to three numbers (l, q, hbar) that the solver works in.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class ParameterError(ValueError):
    """Raised when a parameter set violates its finiteness or positivity constraints."""


def _require_finite(record: tuple) -> None:
    for name, value in zip(record._fields, record):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")


class _UnscaledFields(NamedTuple):
    D: float
    R: float
    mu: float
    Hbar: float
    Q: float
    L: float


class UnscaledParams(_UnscaledFields):
    """Physical inputs. All finite and strictly positive except Q, which may be zero."""

    __slots__ = ()

    def __new__(cls, D: float, R: float, mu: float, Hbar: float, Q: float, L: float):
        self = super().__new__(cls, D, R, mu, Hbar, Q, L)
        _require_finite(self)
        for name in ("D", "R", "mu", "Hbar", "L"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)!r}")
        if Q < 0.0:
            raise ParameterError(f"Q must be nonnegative, got {Q!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def length_unit(self) -> float:
        """The diffusion length sqrt(D/mu) that nondimensionalises x."""
        return math.sqrt(self.D / self.mu)


class _ScaledFields(NamedTuple):
    l: float
    q: float
    hbar: float


class ScaledParams(_ScaledFields):
    """Nondimensional inputs: domain length l, weight q, harvest cap hbar."""

    __slots__ = ()

    def __new__(cls, l: float, q: float, hbar: float):
        self = super().__new__(cls, l, q, hbar)
        _require_finite(self)
        if not l > 0.0:
            raise ParameterError(f"l must be positive, got {l!r}")
        if not hbar > 0.0:
            raise ParameterError(f"hbar must be positive, got {hbar!r}")
        if q < 0.0:
            raise ParameterError(f"q must be nonnegative, got {q!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)


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
