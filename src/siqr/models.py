"""SIQR compartment models: SIR with an explicit quarantine compartment.

Two right-hand-side variants are provided. The full model computes the
infection pressure against the non-quarantined population (denominator
N - Q); the simplified variant divides by N, which is accurate while the
quarantine compartment stays small compared to the population.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

__all__ = [
    "ModelKind",
    "ModelParams",
    "EpidemicState",
    "rhs",
    "vector_field",
    "r0",
    "check_assumptions",
]


class ModelKind(Enum):
    """Which infection-pressure denominator the dynamics use."""

    FULL = "full"
    SIMPLIFIED = "simplified"


@dataclass(frozen=True)
class ModelParams:
    """Epidemic rates (1/day) and the known total population size.

    beta is the infectivity rate, rho the recovery rate (shared by free
    and quarantined infected individuals), alpha the rate of placement
    in quarantine. Each ValueError message starts with the name of the
    field at fault.
    """

    beta: float
    rho: float
    alpha: float
    N: float

    def __post_init__(self):
        for name in ("beta", "rho", "alpha", "N"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class EpidemicState:
    """Compartment sizes (individuals) at one instant."""

    S: float
    I: float
    Q: float
    R: float

    def as_array(self) -> np.ndarray:
        return np.array([self.S, self.I, self.Q, self.R], dtype=float)

    @classmethod
    def from_array(cls, x) -> "EpidemicState":
        return cls(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


def rhs(kind: ModelKind, x, params: ModelParams) -> tuple:
    """Time derivative (dS, dI, dQ, dR) in individuals/day, as a tuple.

    x holds the compartment sizes (S, I, Q, R) as any length-4 sequence
    of numbers (a list of Python floats from the integrator, or an
    array). The four components sum to zero (total population is
    conserved). Raises DomainError for the full model when Q >= N, where
    the susceptible pool N - Q is empty or negative.
    """
    S, I, Q, _ = x
    if kind is ModelKind.FULL:
        pool = params.N - Q
        if pool <= 0:
            raise DomainError(f"full model needs Q < N, got Q={Q!r} with N={params.N!r}")
    else:
        pool = params.N
    infection = params.beta * S * I / pool
    placement = params.alpha * I
    recovery_i = params.rho * I
    recovery_q = params.rho * Q
    return (
        -infection,
        infection - placement - recovery_i,
        placement - recovery_q,
        recovery_i + recovery_q,
    )


def vector_field(kind: ModelKind, params: ModelParams):
    """rhs as a plain callable on length-4 sequences, for the integrator."""

    def field(x):
        return rhs(kind, x, params)

    return field


def r0(params: ModelParams) -> float:
    """Basic reproduction number beta / (rho + alpha)."""
    return params.beta / (params.rho + params.alpha)


def check_assumptions(params: ModelParams) -> dict:
    """Report the two standing hypotheses.

    a1: the epidemic can grow from a near-disease-free state (R0 > 1).
    a2: placement in quarantine is not faster than recovery (alpha <= rho).
    """
    return {"a1": r0(params) > 1.0, "a2": params.alpha <= params.rho}
