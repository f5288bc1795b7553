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

from .errors import DomainError
from .integrator import Trajectory
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
    instantaneous signal value. Each ValueError message starts with the
    name of the field at fault.
    """

    relative_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.relative_sigma) and self.relative_sigma >= 0):
            raise ValueError(
                f"relative_sigma must be finite and non-negative, got {self.relative_sigma!r}"
            )
        try:
            operator.index(self.seed)  # numpy's generator takes integers only
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


def observe(traj: Trajectory, alpha: float) -> OutputSeries:
    """Project an SIQR trajectory onto the measured outputs."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and strictly positive, got {alpha!r}")
    return OutputSeries(
        times=traj.times,
        y1=alpha * traj.states[:, 1],
        y2=traj.states[:, 2].copy(),
    )


def _taylor_coefficients(state, params, kind):
    """Taylor coefficients of (S, I, Q) around the given state, as lists
    of Python floats: S and Q to order 2, I to order 3.

    Entry k holds the k-th coefficient, i.e. the k-th time derivative
    divided by k!. Obtained by the standard recurrence x_{k+1} =
    [rhs(x)]_k / (k+1) over truncated series arithmetic; the only
    non-polynomial operation is the division by N - Q in the full model.
    The jet needs no S or Q coefficient of order 3, so the last order
    computes I's only.

    The arithmetic runs on Python floats, which cost far less per
    operation than numpy scalars. Each sum of products is taken left to
    right in a fixed order, so the coefficients' bits depend on this
    code alone.
    """
    beta, rho, alpha = float(params.beta), float(params.rho), float(params.alpha)
    N = float(params.N)
    s0, i0, q0, _ = state
    S, I, Q = [float(s0)], [float(i0)], [float(q0)]
    full = is_full(kind)
    if full:
        pool0 = N - Q[0]
        if pool0 <= 0:
            raise DomainError(
                f"full model needs Q < N, got Q={q0!r} with N={params.N!r}"
            )
        G = []  # coefficients of S*I/(N - Q)
    for k in range(3):
        si_k = S[0] * I[k]
        for j in range(1, k + 1):
            si_k += S[j] * I[k - j]
        if full:
            # (N - Q) * G = S*I, solved coefficient by coefficient.
            correction = Q[1] * G[k - 1] if k else 0.0
            for j in range(2, k + 1):
                correction += Q[j] * G[k - j]
            G.append((si_k + correction) / pool0)
            infection_k = beta * G[k]
        else:
            infection_k = beta * si_k / N
        I.append((infection_k - alpha * I[k] - rho * I[k]) / (k + 1))
        if k < 2:
            S.append(-infection_k / (k + 1))
            Q.append((alpha * I[k] - rho * Q[k]) / (k + 1))
    return S, I, Q


def output_jets(
    state: EpidemicState, params: ModelParams, kind: ModelKind, t: float = 0.0
) -> OutputJet:
    """Exact output derivatives at a state (S, I, Q, R), any length-4
    sequence, by repeated total differentiation.

    Every field of the jet, `t` included, is a Python float. Its sums
    are taken in a fixed order, so the bits depend on the code and not
    on the BLAS build. Raises ValueError if `kind` is not a `ModelKind`,
    and DomainError for the full model at Q >= N.
    """
    _, I, Q = _taylor_coefficients(state, params, kind)
    a = float(params.alpha)
    # Positional: a NamedTuple built by keyword costs about as much as a
    # frozen dataclass.
    return OutputJet(
        float(t), a * I[0], a * I[1], 2.0 * a * I[2], 6.0 * a * I[3], Q[0], Q[1], 2.0 * Q[2]
    )


def add_noise(series: OutputSeries, spec: NoiseSpec) -> OutputSeries:
    """Multiply each sample by (1 + eta), eta ~ N(0, relative_sigma^2).

    Draws are i.i.d., y1 first then y2, from a generator seeded with
    spec.seed, so the result is a pure function of (series, spec).
    Negative results are clamped to zero: the signals are physically
    non-negative.
    """
    rng = np.random.default_rng(spec.seed)
    n = series.times.size
    y1 = series.y1 * (1.0 + rng.normal(0.0, spec.relative_sigma, n))
    y2 = series.y2 * (1.0 + rng.normal(0.0, spec.relative_sigma, n))
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
