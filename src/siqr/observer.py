"""Seven-state observer that estimates (rho, beta, alpha) online.

The observer splits into two blocks driven by the measurements
(y1, y2):

* a 4-state block in (z1, z2, delta, rho) coordinates, z_i = log y_i,
  delta = beta - alpha, whose error dynamics are linear time-invariant
  with spectrum {-lambda_i} placed through elementary symmetric
  polynomials of the pole vector lambda;
* a 3-state block in (y1, v, k) coordinates, v = beta*S/N - rho - alpha
  (N - Q in place of N for the full model) the growth rate of y1,
  k = beta^2/alpha, whose error decays in the rescaled time
  integral(y1 dt) with spectrum {-mu_j}. The block models the growth
  rate's curvature as v' = -k*y1/N, which is the simplified model's;
  for the full model it adds the quarantine-outflow term
  beta*(y1 - rho*y2)/N (see `observer_rhs`).

The two blocks are integrated together as one 7-state system; their
outputs combine into estimates of (rho, beta, alpha) with beta the
smaller root of beta^2 - k*beta + k*delta = 0, and the infected count is
estimated as y1/alpha.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MeasurementError
from .integrator import Field, FieldBody, IntegratorConfig, Trajectory, _finite, integrate
from .models import ModelKind, is_full
from .observation import OutputSeries

__all__ = [
    "GainSet",
    "gains",
    "ObserverState",
    "EstimateSeries",
    "ObserverRun",
    "observer_rhs",
    "guard_measurements",
    "run_observer",
    "beta_hat",
    "assemble_m1",
    "assemble_m2",
    "char_poly",
    "verify_pole_placement",
]

ALPHA_FLOOR = 1e-6  # below this the infected-count estimate is meaningless


@dataclass(frozen=True)
class GainSet:
    """Observer gains derived from the pole vectors.

    K1..K4 place the 4-state block's spectrum at {-lambda_i}; K5..K7
    place the 3-state block's (rescaled-time) spectrum at {-mu_j}.
    decay_bound is the slowest pole overall.
    """

    lam: tuple
    mu: tuple
    K: tuple
    decay_bound: float


def _pole_vector(name: str, poles, arity: int) -> tuple:
    """`poles` as `arity` finite positive floats, or a ValueError naming `name`."""
    if not (isinstance(poles, Sequence) or np.ndim(poles) == 1):  # a list, tuple or 1-D array
        raise ValueError(f"{name} must be a sequence of {arity} poles, got {poles!r}")
    if len(poles) != arity:
        raise ValueError(f"{name} must have {arity} entries, got {len(poles)}")
    if not all(_finite(name, p) and float(p) > 0 for p in poles):
        raise ValueError(f"{name} entries must be finite and strictly positive, got {poles!r}")
    return tuple(map(float, poles))


def gains(lam, mu) -> GainSet:
    """Gain vector from 4 + 3 finite positive pole values.

    Each ValueError message starts with the name of the pole vector at
    fault, `lambda` or `mu`.
    """
    lam, mu = _pole_vector("lambda", lam, 4), _pole_vector("mu", mu, 3)
    s1, s2, s3, s4 = map(float, np.poly(np.negative(lam))[1:])
    m1, m2, m3 = map(float, np.poly(np.negative(mu))[1:])
    K = (s1, s1 + s3, -s4, -(s2 + s4 + 1.0), m1, m2, -m3)
    return GainSet(lam=lam, mu=mu, K=K, decay_bound=min(min(lam), min(mu)))


class ObserverState(NamedTuple):
    """The seven observer variables, a length-7 sequence.

    z1_hat, z2_hat estimate log y1, log y2; delta_hat estimates
    beta - alpha; rho_hat the recovery rate; y1_hat the flow into
    quarantine; v_hat its per-capita growth beta*S/N - rho - alpha
    (beta*S/(N - Q) - rho - alpha for the full model);
    k_hat the combination beta^2/alpha.
    """

    z1_hat: float
    z2_hat: float
    delta_hat: float
    rho_hat: float
    y1_hat: float
    v_hat: float
    k_hat: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)


def beta_hat(k_hat, delta_hat):
    """The estimator map: beta_hat from the observer's (k_hat, delta_hat).

    beta_hat is the smaller root of beta^2 - k*beta + k*delta = 0, with
    the discriminant clamped at zero so the map is total; alpha_hat is
    beta_hat - delta_hat and rho_hat is read off the state directly.
    Acts elementwise on arrays.
    """
    disc = k_hat * k_hat - 4.0 * delta_hat * k_hat
    return 0.5 * (k_hat - np.sqrt(np.maximum(disc, 0.0)))


# The observer's equations, the one place they are written:
# `_observer_field` binds them to a run's gains; `integrate` inlines them at
# its RK4 stages. z_i = log y_i. Under `full`, the quarantine outflow:
# with S ~ N - Q the full model's growth rate bends by beta*Q'/N with
# Q' = y1 - rho*y2. A negative beta_hat (transient k_hat < 0) would feed
# this term back into k_hat with the wrong sign, so it is floored at
# zero. That is the estimator map `beta_hat` in scalar arithmetic, NaN
# included: `not disc <= 0.0` sends a NaN discriminant to `math.sqrt`,
# whose NaN then fails `beta > 0.0`. Calling `beta_hat` there (numpy's
# scalar ufuncs) would make a call of the built full-model field about
# 3.5 times as costly (2.3 against 0.67 us; Python 3.11, numpy 2.4, one
# vCPU of a KVM Xeon).
_OBSERVER = FieldBody(
    name="observer",
    state=ObserverState._fields,
    constants=("k1", "k2", "k3", "k4", "k5", "k6", "k7", "N", "full"),
    inputs=("y1", "y2", "z1", "z2"),
    source="""\
innov_z1 = z1_hat - z1
innov_z2 = z2_hat - z2
innov_y1 = y1_hat - y1
curvature = -k_hat * y1 / N
if full:
    disc = k_hat * k_hat - 4.0 * delta_hat * k_hat
    beta = 0.5 * (k_hat - math.sqrt(disc)) if not disc <= 0.0 else 0.5 * k_hat
    if beta > 0.0:
        curvature += beta * (y1 - rho_hat * y2) / N
{dx0} = delta_hat - rho_hat - k1 * innov_z1
{dx1} = y1 / y2 - rho_hat - k2 * innov_z1
{dx2} = -k3 * innov_z1
{dx3} = -k4 * innov_z1 - innov_z2
{dx4} = v_hat * y1 - k5 * y1 * innov_y1
{dx5} = curvature - k6 * y1 * innov_y1
{dx6} = -k7 * N * y1 * innov_y1
""",
    env={"math": math},
)


def _observer_field(K: GainSet, N: float, kind: ModelKind) -> Field:
    """field(x, y1, y2, z1, z2), z_i = log y_i, as a `Field` with the gains,
    float(N) and `kind` bound once per run: x a length-7 sequence, a tuple
    out. `integrate` inlines the field's equations instead of calling it.
    Raises ValueError if `kind` is not a `ModelKind`."""
    return Field(_OBSERVER, (*K.K, float(N), is_full(kind)))


def _inputs(y1, y2) -> np.ndarray:
    """Input rows (y1, y2, z1, z2), z_i = log y_i, of the 1-D sequences
    of positive measurements y1 and y2: the one log the observer takes."""
    # Array np.log, on one sample or on a block of them: on 5e5 inputs
    # spread over e**±50 the two gave the same bits, and math.log
    # differed in the last bit on 35 (numpy 2.4, on a CPU with AVX-512).
    # The transpose of one (4, n) array costs half what np.column_stack
    # does on one sample.
    return np.array([y1, y2, np.log(y1), np.log(y2)], dtype=float).T


def observer_rhs(
    x: ObserverState,
    y1: float,
    y2: float,
    K: GainSet,
    N: float,
    kind: ModelKind = ModelKind.SIMPLIFIED,
) -> np.ndarray:
    """Observer vector field at one instant, driven by the `_inputs` row
    of the measurements (y1, y2).

    x is an `ObserverState` or any length-7 sequence. The flow block's
    v-row models the growth-rate curvature of `kind`: -k*y1/N for the
    simplified model (the paper's block), plus
    beta_hat*(y1 - rho_hat*y2)/N for the full model, whose pressure acts
    on N - Q so that the quarantine outflow Q' = y1 - rho*y2 bends v too.
    """
    if not (y1 > 0 and y2 > 0):
        raise MeasurementError(
            f"observer needs positive measurements, got y1={y1!r}, y2={y2!r}"
        )
    return np.array(_observer_field(K, N, kind)(x, *_inputs([y1], [y2])[0].tolist()))


def guard_measurements(series: OutputSeries):
    """Replace non-positive samples so logs and quotients stay defined.

    Each offending sample takes the value of the last strictly positive
    one; a non-positive start takes the smallest positive value of the
    series. Returns the guarded series and per-channel substitution
    counts.
    """
    guarded = []
    counts = []
    for y in (series.y1, series.y2):
        y = np.asarray(y, dtype=float).copy()
        bad = ~(y > 0)
        n_bad = int(bad.sum())
        if n_bad:
            positive = y[~bad]
            if positive.size == 0:
                raise MeasurementError("measurement series has no positive sample")
            # Index of the last positive sample at or before each one, -1
            # before the first.
            last = np.maximum.accumulate(np.where(bad, -1, np.arange(y.size)))
            y = np.where(last >= 0, y[last], positive.min())
        guarded.append(y)
        counts.append(n_bad)
    return (
        OutputSeries(times=series.times.copy(), y1=guarded[0], y2=guarded[1]),
        counts[0],
        counts[1],
    )


@dataclass
class EstimateSeries:
    """Estimates along an observer run.

    I_hat is NaN where alpha_hat fell below the floor; clamp_active
    marks samples where the estimator discriminant was clamped at zero.
    """

    times: np.ndarray
    rho_hat: np.ndarray
    beta_hat: np.ndarray
    alpha_hat: np.ndarray
    I_hat: np.ndarray
    clamp_active: np.ndarray


@dataclass
class ObserverRun:
    """Observer trajectory, derived estimates, and guard bookkeeping."""

    trajectory: Trajectory
    estimates: EstimateSeries
    substitutions_y1: int
    substitutions_y2: int


def _check_record(measurements: OutputSeries, end: float) -> None:
    """Raise ValueError naming the series of a record that `np.interp`
    cannot read over [0, end]: times not finite, not strictly increasing
    or not covering it, or a y1 or y2 without one sample per time."""
    times = np.asarray(measurements.times, dtype=float)
    for name in ("y1", "y2"):
        shape = np.shape(getattr(measurements, name))
        if shape != times.shape:
            raise ValueError(
                f"{name} must have one sample per time, got shape {shape} "
                f"for times of shape {times.shape}"
            )
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("times must be finite and strictly increasing")
    if times.size == 0 or times[0] > 1e-12 or times[-1] < end - 1e-9:
        covers = f"covers [{times[0]:.6g}, {times[-1]:.6g}]" if times.size else "is empty"
        raise ValueError(f"input series {covers} but the integration needs [0, {end:.6g}]")


def run_observer(
    measurements: OutputSeries,
    K: GainSet,
    N: float,
    init: ObserverState,
    cfg: IntegratorConfig,
    kind: ModelKind = ModelKind.SIMPLIFIED,
) -> ObserverRun:
    """Integrate the observer over a measurement record.

    `kind` selects the flow block's curvature model (see
    `observer_rhs`). Measurements are guarded against non-positive
    samples first; the infected-count estimate uses the guarded y1.
    The observer is driven by the guarded record interpolated linearly
    at the RK4 stage times, so the record must cover [0, horizon], its
    times must be finite and strictly increasing, and y1 and y2 must
    have one sample per time (ValueError naming the series otherwise).
    Raises DivergenceError (from `integrate`, with the first bad time)
    if the state stops being finite.
    """
    _check_record(measurements, cfg.n_steps * cfg.dt)
    guarded, subs1, subs2 = guard_measurements(measurements)
    times, y1, y2 = guarded.times, guarded.y1, guarded.y2

    def inputs(at):
        # Linear interpolation: a zero-order hold would bias the observer
        # by O(dt). A block of steps takes its `_inputs` rows at once.
        return _inputs(np.interp(at, times, y1), np.interp(at, times, y2))

    traj = integrate(_observer_field(K, N, kind), init, cfg, inputs=inputs)

    _, _, delta_hat, rho_hat, _, _, k_hat = traj.states.T
    clamp = k_hat * k_hat - 4.0 * delta_hat * k_hat < 0
    beta = beta_hat(k_hat, delta_hat)
    alpha_hat = beta - delta_hat
    y1_on_grid = np.interp(traj.times, guarded.times, guarded.y1)
    with np.errstate(divide="ignore", invalid="ignore"):
        i_hat = np.where(alpha_hat > ALPHA_FLOOR, y1_on_grid / alpha_hat, np.nan)
    estimates = EstimateSeries(
        times=traj.times,
        rho_hat=rho_hat.copy(),
        beta_hat=beta,
        alpha_hat=alpha_hat,
        I_hat=i_hat,
        clamp_active=clamp,
    )
    return ObserverRun(
        trajectory=traj,
        estimates=estimates,
        substitutions_y1=subs1,
        substitutions_y2=subs2,
    )


def assemble_m1(K: GainSet) -> np.ndarray:
    """Error matrix of the 4-state block (time-invariant)."""
    k1, k2, k3, k4 = K.K[0], K.K[1], K.K[2], K.K[3]
    return np.array(
        [
            [-k1, 0.0, 1.0, -1.0],
            [-k2, 0.0, 0.0, -1.0],
            [-k3, 0.0, 0.0, 0.0],
            [-k4, -1.0, 0.0, 0.0],
        ]
    )


def assemble_m2(K: GainSet, N: float) -> np.ndarray:
    """Error matrix of the 3-state block (in rescaled time)."""
    k5, k6, k7 = K.K[4], K.K[5], K.K[6]
    return np.array(
        [
            [-k5, 1.0, 0.0],
            [-k6, 0.0, -1.0 / N],
            [-k7 * N, 0.0, 0.0],
        ]
    )


def _poly_det(entries):
    """Determinant of a matrix of polynomials (high-to-low coefficients)."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = np.zeros(1)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = np.convolve(entries[0][j], _poly_det(minor))
        acc = np.polyadd(acc, term if j % 2 == 0 else -term)
    return acc


def char_poly(M) -> np.ndarray:
    """Monic characteristic polynomial coefficients of a matrix up to 4x4.

    Computed by cofactor expansion of det(sI - M) over polynomial
    entries: exact closed-form arithmetic at these sizes, no
    eigensolver.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    n = M.shape[0]
    if n > 4:
        raise ValueError(f"dimension {n} unsupported (max 4)")
    entries = [
        [
            np.array([1.0, -M[i, j]]) if i == j else np.array([-M[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    coeffs = _poly_det(entries)
    out = np.zeros(n + 1)
    out[n + 1 - coeffs.size :] = coeffs
    return out


def _coeff_error(p, target) -> float:
    """The largest relative error of the coefficients p against target."""
    # A coefficient equal to its target counts 0, with no division: tiny
    # poles underflow one to 0 in both. Any other against a target 0
    # counts inf, and a NaN is kept.
    diff = np.abs(p - target)
    with np.errstate(divide="ignore"):
        return float(np.max(np.divide(diff, abs(target), out=np.zeros_like(diff), where=diff != 0)))


def verify_pole_placement(lam, mu, N: float) -> dict:
    """Check that the gain formulas place the error spectra as designed.

    Compares char_poly(M1) against prod(s + lambda_i) and char_poly(M2)
    against prod(s + mu_j), coefficient by coefficient.
    """
    gs = gains(lam, mu)
    err1 = _coeff_error(char_poly(assemble_m1(gs)), np.poly(np.negative(gs.lam)))
    err2 = _coeff_error(char_poly(assemble_m2(gs, N)), np.poly(np.negative(gs.mu)))
    return {
        "m1_ok": err1 < 1e-9,
        "m2_ok": err2 < 1e-9,
        # np.max keeps a NaN, where the builtin max(0.0, nan) drops it.
        "max_coeff_error": float(np.max([err1, err2])),
    }
