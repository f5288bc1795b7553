"""Fixed-step classical Runge-Kutta integration.

One entry point, `integrate`, steps both the SIQR model (autonomous)
and the observer (forced by inputs given at the RK4 stage times), and
reports a state that stops being finite. The trajectories here are
smooth and slow over a ten-day horizon, so a fixed step keeps the runs
deterministic and trivially reproducible. A step works on one Python
float per state component: on states of 4 and 7 components numpy's
per-call overhead costs more than the arithmetic.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

__all__ = ["MAX_STEPS", "IntegratorConfig", "Trajectory", "integrate"]

# A run stores every step: 10**6 steps of the 7-state observer hold
# 56 MB of states and take about 9 s of RK4 in pure Python (3.5 s for
# the 4-state model; one vCPU of a KVM Xeon, Python 3.11).
MAX_STEPS = 10**6
# Steps are written into the states array, and input rows computed,
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

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must be aligned")


def _input_rows(inputs, at, t_block):
    """inputs(at) as a list of rows, checked to hold one row per time."""
    rows = np.asarray(inputs(at))
    if rows.ndim != 2 or rows.shape[0] != at.size:
        raise ValueError(
            f"inputs must return one row per time, got shape {rows.shape} "
            f"for {at.size} times (block from t={t_block:.6g})"
        )
    return rows.tolist()


def _attach_time(exc, t):
    raise type(exc)(f"{exc} (rhs evaluation at t={t:.6g})") from exc


# One RK4 block, written out per state component so that a step does
# its arithmetic on local names (x0 + h * k1_0, ...), with no per-step
# loop over the components. `{x}` and the k's stand for d names each;
# `_rk4_block(d)` fills them in. The expressions and their order are
# those of the array form, so every d gives the same bits as numpy RK4.
_RK4_TEMPLATE = """\
def rk4_block(rhs, x, u_nodes, u_mids, start, dt):
    h = 0.5 * dt
    c = dt / 6.0
    {x} = x
    block = []
    append = block.append
    u_node = u_nodes[0]
    for u_mid, u_next in zip(u_mids, u_nodes[1:]):
        try:
            {k1} = rhs(x, *u_node)
            {k2} = rhs({x_k1}, *u_mid)
            {k3} = rhs({x_k2}, *u_mid)
            {k4} = rhs({x_k3}, *u_next)
        except Exception as exc:  # noqa: BLE001 - context is the point
            # The failing step is step len(block) of this block.
            _attach_time(exc, (start + len(block)) * dt)
{step}
        x = {x}
        append(x)
        u_node = u_next
    return block
"""


@functools.cache
def _rk4_block(d: int):
    """The RK4 block function for states of d components, built once per d.

    rk4_block(rhs, x, u_nodes, u_mids, start, dt) takes the state x as a
    tuple, steps once per entry of u_mids and returns the new states as
    a list of tuples. Step j of the block, step start + j of the run,
    calls rhs(x, *u) with u = u_nodes[j] at its first stage, u_mids[j]
    at the two middle ones and u_nodes[j + 1] at the last.
    """

    def tuple_of(items):
        # "(a, )" keeps d = 1 a tuple, and "()" serves d = 0.
        return "(" + "".join(f"{item}, " for item in items) + ")"

    def names(stem):
        return tuple_of(f"{stem}{i}" for i in range(d))

    def stage(step, k):
        return tuple_of(f"x{i} + {step} * {k}_{i}" for i in range(d))

    source = _RK4_TEMPLATE.format(
        x=names("x"),
        k1=names("k1_"),
        k2=names("k2_"),
        k3=names("k3_"),
        k4=names("k4_"),
        x_k1=stage("h", "k1"),
        x_k2=stage("h", "k2"),
        x_k3=stage("dt", "k3"),
        # Summed in the order of the array form x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4).
        step="\n".join(
            f"        x{i} = x{i} + c * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
            for i in range(d)
        ),
    )
    namespace = {"_attach_time": _attach_time}
    exec(compile(source, f"<siqr rk4 d={d}>", "exec"), namespace)
    return namespace["rk4_block"]


def integrate(rhs, x0, cfg: IntegratorConfig, inputs=None) -> Trajectory:
    """Classical RK4 for x' = rhs(x, *u).

    Without `inputs` the system is autonomous and u is empty. Otherwise
    `inputs` is a function of a 1-D array of stage times that returns
    one row of input values per time, and u is the row at each RK4
    stage time. It is called twice per block of up to 1024 steps, at
    the block's step nodes and at its half steps, so an interpolation or
    a transform of the inputs runs once per block on arrays (ValueError
    if its result has another shape). rhs receives x as a tuple of d
    Python floats and the entries of u as Python floats, and returns d
    numbers (a tuple is cheapest); x supports no array arithmetic.
    Exceptions raised by rhs, or by unpacking a result that does not
    have d entries, are re-raised with the offending time attached to
    the message. Raises DivergenceError, with the time of the first step
    whose state is not finite and the index of its first non-finite
    component, if the state stops being finite.
    """
    n = cfg.n_steps
    dt = cfg.dt
    x = np.asarray(x0, dtype=float)
    states = np.empty((n + 1, x.size))
    states[0] = x
    rk4_block = _rk4_block(x.size)
    x = tuple(x.tolist())
    empty = [()] * (_BLOCK_ROWS + 1)
    # Divergence shows up as inf/NaN states and is reported below; the
    # intermediate overflow warnings of an rhs that uses numpy carry no
    # extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            if inputs is None:
                u_nodes, u_mids = empty, empty[: stop - start]
            else:
                nodes = np.arange(start, stop + 1) * dt  # equal to cfg.times[start:stop + 1]
                u_nodes = _input_rows(inputs, nodes, nodes[0])
                u_mids = _input_rows(inputs, nodes[:-1] + 0.5 * dt, nodes[0])
            block = rk4_block(rhs, x, u_nodes, u_mids, start, dt)
            states[start + 1 : stop + 1] = block
            x = block[-1]
    times = cfg.times
    bad = np.argwhere(~np.isfinite(states))  # row-major: first step, then component
    if bad.size:
        step, component = bad[0].tolist()
        t_bad = float(times[step])
        msg = f"state component {component} became non-finite at t={t_bad:.6g}"
        raise DivergenceError(msg, time=t_bad, component=component)
    return Trajectory(times=times, states=states)
