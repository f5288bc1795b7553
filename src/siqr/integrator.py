"""Fixed-step classical Runge-Kutta integration.

One entry point, `integrate`, steps both the SIQR model (autonomous)
and the observer (forced by sampled measurements, interpolated linearly
at the RK4 stage times), and reports a state that stops being finite.
The trajectories here are smooth and slow over a ten-day horizon, so a
fixed step keeps the runs deterministic and trivially reproducible.
The loop steps on lists of Python floats: on states of 4 and 7
components numpy's per-call overhead costs more than the arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

__all__ = ["MAX_STEPS", "IntegratorConfig", "Trajectory", "integrate"]

# A run stores every step: 10**6 steps of the 7-state observer hold
# 56 MB of states and take about 17 s of RK4 in pure Python (11 s for
# the 4-state model; one vCPU of a KVM Xeon, Python 3.11).
MAX_STEPS = 10**6
# Steps are written into the states array, and input rows interpolated,
# this many at a time, so the Python floats of one block at most are
# alive at once.
_BLOCK_ROWS = 1024


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
    """Input rows at the step nodes and at the half steps, block by block.

    `inputs` is (times, values) with one row of values per time; the
    rows are interpolated linearly (a zero-order hold would bias the
    driven system by O(dt)) and must cover [0, horizon]. Returns
    rows(start, stop): the rows at the nodes of steps start..stop and at
    the half steps in between, as lists of Python floats (empty rows
    for an autonomous system, `inputs=None`).
    """
    if inputs is None:
        empty = [()] * (_BLOCK_ROWS + 1)
        return lambda start, stop: (empty, empty)
    times, values = (np.asarray(a, dtype=float) for a in inputs)
    if values.ndim != 2 or values.shape[0] != times.size:
        raise ValueError("input values must have one row per input time")
    end = cfg.n_steps * cfg.dt
    if times[0] > 1e-12 or times[-1] < end - 1e-9:
        raise ValueError(
            f"input series covers [{times[0]:.6g}, {times[-1]:.6g}] "
            f"but the integration needs [0, {end:.6g}]"
        )

    def interpolate(at):
        return np.column_stack([np.interp(at, times, v) for v in values.T]).tolist()

    def rows(start, stop):
        nodes = np.arange(start, stop + 1) * cfg.dt  # equal to cfg.times[start:stop + 1]
        return interpolate(nodes), interpolate(nodes[:-1] + 0.5 * cfg.dt)

    return rows


def integrate(rhs, x0, cfg: IntegratorConfig, inputs=None) -> Trajectory:
    """Classical RK4 for x' = rhs(x, *u).

    Without `inputs` the system is autonomous and u is empty. With
    `inputs = (times, values)`, one row of values per time covering
    [0, horizon], u is the row interpolated linearly at each RK4 stage
    time. rhs receives x as a list of d Python floats, which it must not
    modify, and the entries of u as Python floats, and returns any
    length-d sequence of numbers (a tuple is cheapest); x supports no
    array arithmetic. Exceptions raised by rhs are re-raised with the
    offending time attached to the message. Raises DivergenceError, with
    the time of the first step whose state is not finite and the index
    of its first non-finite component, if the state stops being finite.
    """
    n = cfg.n_steps
    dt = cfg.dt
    h = 0.5 * dt
    c = dt / 6.0
    stage_rows = _stage_inputs(inputs, cfg)
    x = np.asarray(x0, dtype=float)
    states = np.empty((n + 1, x.size))
    states[0] = x
    x = x.tolist()
    # Divergence shows up as inf/NaN states and is reported below; the
    # intermediate overflow warnings of an rhs that uses numpy carry no
    # extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            u_nodes, u_mids = stage_rows(start, stop)
            block = []
            for j in range(stop - start):
                u_mid = u_mids[j]
                try:
                    k1 = rhs(x, *u_nodes[j])
                    k2 = rhs([a + h * b for a, b in zip(x, k1)], *u_mid)
                    k3 = rhs([a + h * b for a, b in zip(x, k2)], *u_mid)
                    k4 = rhs([a + dt * b for a, b in zip(x, k3)], *u_nodes[j + 1])
                except Exception as exc:  # noqa: BLE001 - context is the point
                    _attach_time(exc, (start + j) * dt)
                # Summed in the order of the array form x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4).
                x = [
                    a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                    for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
                ]
                block.append(x)
            states[start + 1 : stop + 1] = block
    times = cfg.times
    bad = np.argwhere(~np.isfinite(states))  # row-major: first step, then component
    if bad.size:
        step, component = bad[0].tolist()
        t_bad = float(times[step])
        msg = f"state component {component} became non-finite at t={t_bad:.6g}"
        raise DivergenceError(msg, time=t_bad, component=component)
    return Trajectory(times=times, states=states, dt=dt)
