"""Measured outputs of the SIQR models and their exact derivative jets.

The measurements are y1 = alpha*I (daily flow into quarantine) and
y2 = Q (quarantine population). Parameter recovery needs the time
derivatives of these outputs up to order three; they are produced
analytically by propagating truncated Taylor coefficients of the state
through the model right-hand side, never by numerical differencing.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, DomainError
from .integrator import Trajectory, _real
from .models import EpidemicState, ModelKind, ModelParams, is_full

__all__ = [
    "OutputSeries",
    "OutputJet",
    "NoiseSpec",
    "observe",
    "output_jets",
    "add_noise",
    "moving_average",
]


@dataclass(frozen=True)
class OutputSeries:
    """Sampled measurements aligned with a trajectory grid."""

    times: np.ndarray
    y1: np.ndarray
    y2: np.ndarray


class OutputJet(NamedTuple):
    """Output values and derivatives at one instant, a length-8 tuple.

    y1 carries derivatives up to order three, y2 up to order two; that is
    exactly what the recovery formulas consume.
    """

    t: float
    y1: float
    dy1: float
    d2y1: float
    d3y1: float
    y2: float
    dy2: float
    d2y2: float


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative Gaussian measurement noise.

    relative_sigma is the standard deviation as a fraction of the
    instantaneous signal value, stored as a Python float. Each
    ValueError message starts with the name of the field at fault.
    """

    relative_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        sigma = _real("relative_sigma", self.relative_sigma, lambda v: v >= 0, "non-negative")
        object.__setattr__(self, "relative_sigma", sigma)
        try:
            operator.index(self.seed)  # numpy's generator takes integers only
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


def observe(traj: Trajectory, alpha: float) -> OutputSeries:
    """Project an SIQR trajectory onto the measured outputs."""
    alpha = _real("alpha", alpha, lambda v: v > 0, "strictly positive")
    return OutputSeries(
        times=traj.times,
        y1=alpha * traj.states[:, 1],
        y2=traj.states[:, 2].copy(),
    )


def output_jets(
    state: EpidemicState, params: ModelParams, kind: ModelKind, t: float = 0.0
) -> OutputJet:
    """Exact output derivatives at a state (S, I, Q, R), any length-4
    sequence, by repeated total differentiation.

    The Taylor coefficients of (S, I, Q) come from the recurrence
    x_{k+1} = [rhs(x)]_k / (k+1) over truncated series arithmetic, S and
    Q to order 2 and I to order 3, written out order by order. The only
    non-polynomial operation is the full model's G = S*I/(N - Q), solved
    from (N - Q) * G = S*I coefficient by coefficient. Each sum of
    products runs left to right, on Python floats, which cost far less
    per operation than numpy scalars; so the bits depend on this code and
    not on the BLAS build. Order 0 leaves out the exact division by 1, but
    keeps the full model's `+ 0.0`, its empty correction sum: it turns
    S*I = -0.0 into +0.0.

    Every field of the jet, `t` included, is a Python float. Raises
    ValueError if `kind` is not a `ModelKind`, and DomainError for the
    full model at Q >= N.
    """
    beta, rho, a, N = params.beta, params.rho, params.alpha, params.N
    s0, i0, q0, _ = state
    S0, I0, Q0 = float(s0), float(i0), float(q0)
    # f_k is the k-th coefficient of the infection term beta*S*I/(N - Q)
    # or beta*S*I/N; the k-th coefficients of S, I, Q's fields give their
    # (k+1)-th.
    if is_full(kind):
        pool = N - Q0
        if pool <= 0.0:
            raise DomainError(f"full model needs Q < N, got Q={q0!r} with N={params.N!r}")
        G0 = (S0 * I0 + 0.0) / pool
        f0 = beta * G0
        S1, I1, Q1 = -f0, f0 - a * I0 - rho * I0, a * I0 - rho * Q0
        G1 = (S0 * I1 + S1 * I0 + Q1 * G0) / pool
        f1 = beta * G1
        S2, I2, Q2 = -f1 / 2, (f1 - a * I1 - rho * I1) / 2, (a * I1 - rho * Q1) / 2
        f2 = beta * ((S0 * I2 + S1 * I1 + S2 * I0 + (Q1 * G1 + Q2 * G0)) / pool)
    else:
        f0 = beta * (S0 * I0) / N
        S1, I1, Q1 = -f0, f0 - a * I0 - rho * I0, a * I0 - rho * Q0
        f1 = beta * (S0 * I1 + S1 * I0) / N
        S2, I2, Q2 = -f1 / 2, (f1 - a * I1 - rho * I1) / 2, (a * I1 - rho * Q1) / 2
        f2 = beta * (S0 * I2 + S1 * I1 + S2 * I0) / N
    I3 = (f2 - a * I2 - rho * I2) / 3
    # Positional: a NamedTuple built by keyword costs about as much as a
    # frozen dataclass.
    return OutputJet(float(t), a * I0, a * I1, 2.0 * a * I2, 6.0 * a * I3, Q0, Q1, 2.0 * Q2)


def add_noise(series: OutputSeries, spec: NoiseSpec) -> OutputSeries:
    """Multiply each sample by (1 + eta), eta ~ N(0, relative_sigma^2).

    Draws are i.i.d., y1 first then y2, from a generator seeded with
    spec.seed, so the result is a pure function of (series, spec).
    Negative results are clamped to zero: the signals are physically
    non-negative. A sample that is not finite (a huge relative_sigma
    overflows) raises DivergenceError naming its channel and first time.
    """
    rng = np.random.default_rng(spec.seed)
    n = series.times.size
    with np.errstate(over="ignore"):  # the overflow is reported below
        y1 = series.y1 * (1.0 + rng.normal(0.0, spec.relative_sigma, n))
        y2 = series.y2 * (1.0 + rng.normal(0.0, spec.relative_sigma, n))
    if not (np.isfinite(y1).all() and np.isfinite(y2).all()):
        bad = np.argwhere(~np.isfinite(np.column_stack([y1, y2])))  # first time, then channel
        t = float(series.times[bad[0, 0]])
        raise DivergenceError(f"noisy y{bad[0, 1] + 1} became non-finite at t={t:.6g}", time=t)
    return OutputSeries(
        times=series.times.copy(),
        y1=np.maximum(y1, 0.0),
        y2=np.maximum(y2, 0.0),
    )


def check_window(window) -> None:
    """Raise ValueError unless `window` is an odd integer >= 1."""
    try:
        operator.index(window)  # it sizes an index array
    except TypeError:
        raise ValueError(f"window must be an integer, got {window!r}") from None
    if not (window >= 1 and window % 2 == 1):
        raise ValueError(f"window must be odd and >= 1, got {window!r}")


def moving_average(values, window: int) -> np.ndarray:
    """Centered moving average on a uniform grid.

    The window must be an odd integer >= 1 (ValueError otherwise); near
    the ends it is clamped to the available samples ([0,1,2,3,4] with
    window 3 gives [0.5, 1, 2, 3, 3.5]). NaN samples are ignored; a
    window with no finite sample yields NaN.
    """
    check_window(window)
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < window:
        raise ValueError(f"series of length {n} is shorter than window {window}")
    finite = np.isfinite(x)
    filled = np.where(finite, x, 0.0)
    cum = np.concatenate([[0.0], np.cumsum(filled)])
    cnt = np.concatenate([[0.0], np.cumsum(finite)])
    radius = window // 2
    idx = np.arange(n)
    lo = np.maximum(idx - radius, 0)
    hi = np.minimum(idx + radius + 1, n)
    totals = cum[hi] - cum[lo]
    counts = cnt[hi] - cnt[lo]
    with np.errstate(invalid="ignore"):
        out = np.where(counts > 0, totals / np.maximum(counts, 1.0), np.nan)
    return out
