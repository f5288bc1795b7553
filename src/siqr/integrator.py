"""Fixed-step classical Runge-Kutta integration.

One entry point, `integrate`, steps both the SIQR model (autonomous)
and the observer (forced by sampled measurements, interpolated linearly
at the RK4 stage times), and reports a state that stops being finite.
The trajectories here are smooth and slow over a ten-day horizon, so a
fixed step keeps the runs deterministic and trivially reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

__all__ = ["MAX_STEPS", "IntegratorConfig", "Trajectory", "integrate"]

# A run stores every step: 10**6 steps of the 7-state observer hold
# 56 MB of states and take tens of seconds of RK4 in pure Python.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and final time, both in days.

    The horizon is rounded to a whole number of steps, at least one and
    at most MAX_STEPS. Each ValueError message starts with the name of
    the field at fault.
    """

    dt: float = 0.01
    horizon: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if not (math.isfinite(self.horizon) and self.horizon >= self.dt):
            raise ValueError(
                f"horizon must be finite and at least dt = {self.dt!r}, got {self.horizon!r}"
            )
        if self.horizon > MAX_STEPS * self.dt:
            raise ValueError(
                f"horizon must be at most {MAX_STEPS} steps, got {self.horizon!r} / {self.dt!r}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution: states[i] is the state at times[i]."""

    times: np.ndarray
    states: np.ndarray
    dt: float

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must be aligned")


def _attach_time(exc, t):
    raise type(exc)(f"{exc} (rhs evaluation at t={t:.6g})") from exc


def _stage_inputs(inputs, cfg: IntegratorConfig):
    """Input rows at the step nodes and at the half steps.

    `inputs` is (times, values) with one row of values per time; the
    rows are interpolated linearly (a zero-order hold would bias the
    driven system by O(dt)) and must cover [0, horizon].
    """
    times, values = (np.asarray(a, dtype=float) for a in inputs)
    if values.ndim != 2 or values.shape[0] != times.size:
        raise ValueError("input values must have one row per input time")
    end = cfg.n_steps * cfg.dt
    if times[0] > 1e-12 or times[-1] < end - 1e-9:
        raise ValueError(
            f"input series covers [{times[0]:.6g}, {times[-1]:.6g}] "
            f"but the integration needs [0, {end:.6g}]"
        )

    def rows(at):
        return list(map(tuple, np.column_stack([np.interp(at, times, v) for v in values.T])))

    nodes = cfg.times
    return rows(nodes), rows(nodes[:-1] + 0.5 * cfg.dt)


def integrate(rhs, x0, cfg: IntegratorConfig, inputs=None) -> Trajectory:
    """Classical RK4 for x' = rhs(x, *u).

    Without `inputs` the system is autonomous and u is empty. With
    `inputs = (times, values)`, one row of values per time covering
    [0, horizon], u is the row interpolated linearly at each RK4 stage
    time. Exceptions raised by rhs are re-raised with the offending time
    attached to the message. Raises DivergenceError, with the time of
    the first step whose state is not finite and the index of its first
    non-finite component, if the state stops being finite.
    """
    n = cfg.n_steps
    dt = cfg.dt
    if inputs is None:
        u_nodes = u_mids = [()] * (n + 1)
    else:
        u_nodes, u_mids = _stage_inputs(inputs, cfg)
    x = np.asarray(x0, dtype=float)
    states = np.empty((n + 1, x.size))
    states[0] = x
    # Divergence shows up as inf/NaN states and is reported below; the
    # intermediate overflow warnings carry no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            try:
                k1 = rhs(x, *u_nodes[i])
                k2 = rhs(x + 0.5 * dt * k1, *u_mids[i])
                k3 = rhs(x + 0.5 * dt * k2, *u_mids[i])
                k4 = rhs(x + dt * k3, *u_nodes[i + 1])
            except Exception as exc:  # noqa: BLE001 - context is the point
                _attach_time(exc, i * dt)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[i + 1] = x
    times = cfg.times
    bad = np.argwhere(~np.isfinite(states))  # row-major: first step, then component
    if bad.size:
        step, component = bad[0].tolist()
        t_bad = float(times[step])
        msg = f"state component {component} became non-finite at t={t_bad:.6g}"
        raise DivergenceError(msg, time=t_bad, component=component)
    return Trajectory(times=times, states=states, dt=dt)
