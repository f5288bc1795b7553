"""SIQR compartment models: SIR with an explicit quarantine compartment.

Two right-hand-side variants are provided. The full model computes the
infection pressure against the non-quarantined population (denominator
N - Q); the simplified variant divides by N, which is accurate while the
quarantine compartment stays small compared to the population.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DomainError
from .integrator import Field, FieldBody, _real

__all__ = [
    "ModelKind",
    "ModelParams",
    "EpidemicState",
    "vector_field",
    "r0",
    "check_assumptions",
]


class ModelKind(Enum):
    """Which infection-pressure denominator the dynamics use."""

    FULL = "full"
    SIMPLIFIED = "simplified"


def is_full(kind: ModelKind) -> bool:
    """Whether `kind` is the full model. Every dispatch on a kind goes
    through here, so a kind that is not a `ModelKind`, such as the
    string "full", raises a ValueError instead of selecting the
    simplified model."""
    if not isinstance(kind, ModelKind):
        raise ValueError(f"kind must be a ModelKind, got {kind!r}")
    return kind is ModelKind.FULL


@dataclass(frozen=True)
class ModelParams:
    """Epidemic rates (1/day) and the known total population size.

    beta is the infectivity rate, rho the recovery rate (shared by free
    and quarantined infected individuals), alpha the rate of placement
    in quarantine. Each is stored as a Python float, so rates drawn with
    numpy run the fields and recoveries in float arithmetic. Each
    ValueError message starts with the name of the field at fault.
    """

    beta: float
    rho: float
    alpha: float
    N: float

    def __post_init__(self):
        for name in ("beta", "rho", "alpha", "N"):
            real = _real(name, getattr(self, name), lambda v: v > 0, "strictly positive")
            object.__setattr__(self, name, real)


class EpidemicState(NamedTuple):
    """Compartment sizes (individuals) at one instant, a length-4 sequence."""

    S: float
    I: float
    Q: float
    R: float

    @classmethod
    def from_array(cls, x) -> "EpidemicState":
        """The state of a row of four numbers; ValueError for any other length."""
        # A length check and four indexings: unpacking a numpy row costs
        # about 0.5 us more per call.
        if len(x) != 4:
            raise ValueError(f"a state row has 4 entries (S, I, Q, R), got {len(x)}")
        return cls(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


# The SIQR equations, the one place they are written: `vector_field`
# binds them to a run's rates, and `integrate` inlines them at its RK4
# stages.
_SIQR = FieldBody(
    name="model",
    state=EpidemicState._fields,
    constants=("beta", "rho", "alpha", "N", "full"),
    inputs=(),
    source="""\
if full:
    pool = N - Q
    if pool <= 0.0:
        raise DomainError(f"full model needs Q < N, got Q={Q!r} with N={N!r}")
else:
    pool = N
infection = beta * S * I / pool
placement = alpha * I
recovery_i = rho * I
recovery_q = rho * Q
{dx0} = -infection
{dx1} = infection - placement - recovery_i
{dx2} = placement - recovery_q
{dx3} = recovery_i + recovery_q
""",
    env={"DomainError": DomainError},
)


def vector_field(kind: ModelKind, params: ModelParams) -> Field:
    """The SIQR `Field` x -> (dS, dI, dQ, dR) in individuals/day, with the
    rates, N and the kind bound once per run. x is any length-4 sequence
    (S, I, Q, R), such as the integrator's tuple of floats or an array;
    the tuple out sums to zero. Raises DomainError for the full model
    when Q >= N, where the susceptible pool N - Q is empty or negative.
    `integrate` inlines the field's equations instead of calling it.
    Raises ValueError if `kind` is not a `ModelKind`."""
    return Field(_SIQR, (params.beta, params.rho, params.alpha, params.N, is_full(kind)))


def r0(params: ModelParams) -> float:
    """Basic reproduction number beta / (rho + alpha)."""
    return params.beta / (params.rho + params.alpha)


def check_assumptions(params: ModelParams) -> dict:
    """Report the two standing hypotheses.

    a1: the epidemic can grow from a near-disease-free state (R0 > 1).
    a2: placement in quarantine is not faster than recovery (alpha <= rho).
    """
    return {"a1": r0(params) > 1.0, "a2": params.alpha <= params.rho}
