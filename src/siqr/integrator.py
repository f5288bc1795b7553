"""Fixed-step classical Runge-Kutta integration.

Two entry points: `integrate` for autonomous systems and
`integrate_driven` for systems forced by sampled exogenous inputs
(interpolated linearly at the RK4 stage times). The trajectories here
are smooth and slow over a ten-day horizon, so a fixed step keeps the
runs deterministic and trivially reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MAX_STEPS", "IntegratorConfig", "Trajectory", "integrate", "integrate_driven"]

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


def integrate(rhs, x0, cfg: IntegratorConfig) -> Trajectory:
    """Classical RK4 for an autonomous system x' = rhs(x).

    Exceptions raised by rhs are re-raised with the offending time
    attached to the message.
    """
    x = np.asarray(x0, dtype=float)
    n = cfg.n_steps
    dt = cfg.dt
    states = np.empty((n + 1, x.size))
    states[0] = x
    for i in range(n):
        t = i * dt
        try:
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
        except Exception as exc:  # noqa: BLE001 - context is the point
            _attach_time(exc, t)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = x
    return Trajectory(times=cfg.times, states=states, dt=dt)


def integrate_driven(rhs, x0, input_times, input_values, cfg: IntegratorConfig) -> Trajectory:
    """RK4 for x' = rhs(x, u, t) with u sampled on a uniform grid.

    The input samples must cover [0, horizon]; values at the RK4 half
    steps are obtained by linear interpolation between samples (a
    zero-order hold would bias the driven system by O(dt)).
    """
    input_times = np.asarray(input_times, dtype=float)
    input_values = np.atleast_2d(np.asarray(input_values, dtype=float))
    if input_values.shape[0] != input_times.size:
        input_values = input_values.T
    if input_values.shape[0] != input_times.size:
        raise ValueError("input_values must align with input_times")
    end = cfg.n_steps * cfg.dt
    if input_times[0] > 1e-12 or input_times[-1] < end - 1e-9:
        raise ValueError(
            f"input series covers [{input_times[0]:.6g}, {input_times[-1]:.6g}] "
            f"but the integration needs [0, {end:.6g}]"
        )

    nodes = cfg.times
    mids = nodes[:-1] + 0.5 * cfg.dt
    u_nodes = np.column_stack(
        [np.interp(nodes, input_times, input_values[:, j]) for j in range(input_values.shape[1])]
    )
    u_mids = np.column_stack(
        [np.interp(mids, input_times, input_values[:, j]) for j in range(input_values.shape[1])]
    )

    x = np.asarray(x0, dtype=float)
    n = cfg.n_steps
    dt = cfg.dt
    states = np.empty((n + 1, x.size))
    states[0] = x
    for i in range(n):
        t = nodes[i]
        try:
            k1 = rhs(x, u_nodes[i], t)
            k2 = rhs(x + 0.5 * dt * k1, u_mids[i], t + 0.5 * dt)
            k3 = rhs(x + 0.5 * dt * k2, u_mids[i], t + 0.5 * dt)
            k4 = rhs(x + dt * k3, u_nodes[i + 1], t + dt)
        except Exception as exc:  # noqa: BLE001
            _attach_time(exc, t)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = x
    return Trajectory(times=nodes, states=states, dt=dt)
