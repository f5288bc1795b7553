"""Fixed-step classical Runge-Kutta integration.

One entry point, `integrate`, steps both the SIQR model (autonomous)
and the observer (forced by inputs given at the RK4 stage times), and
reports a state that stops being finite. The trajectories here are
smooth and slow over a ten-day horizon, so a fixed step keeps the runs
deterministic and trivially reproducible. A step works on one Python
float per state component: on states of 4 and 7 components numpy's
per-call overhead costs more than the arithmetic, and so does a Python
call: one call per RK4 stage makes a run 1.39-1.40 times as long for
the model, 1.21-1.22 for the observer (CHANGES.md, on the RK4 block's
per-step overhead; Python 3.11, KVM Xeon). A field's equations are
therefore written once, as a `FieldBody` compiled to a function, and a
`Field` binds its constants. `integrate` inlines a `Field` in an RK4
block generated for its body, which holds only the arithmetic:
`integrate` stores the states and adds the failing step's time to an
error. A `Field` is the only field `integrate` takes.
"""
from __future__ import annotations

import functools
import linecache
import math
import re
import textwrap
import types
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

__all__ = ["MAX_STEPS", "IntegratorConfig", "Trajectory", "Field", "integrate"]

# A run stores every step: 10**6 steps of the 7-state observer hold
# 56 MB of states and take 3.5 to 6 s of RK4 in pure Python (2.5 to
# 3.6 s for the 4-state model; three runs of each kind on one vCPU of a
# shared KVM Xeon, Python 3.11).
MAX_STEPS = 10**6
# Steps are written into the states array, and input rows computed,
# this many at a time, so the Python floats of one block at most are
# alive at once.
_BLOCK_ROWS = 1024


def _finite(name: str, value) -> bool:
    """Whether `value` is finite. A value that is no real number, or one
    too large for a float, raises ValueError naming `name`."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{name} must be a finite real number, got {value!r}") from None


def _real(name: str, value, ok, must: str) -> float:
    """`value` as a Python float if finite and `ok(value)`, else a ValueError
    that `name` must be finite and `must` (or just finite, `must` empty)."""
    if not (_finite(name, value) and ok(value)):
        raise ValueError(f"{name} must be finite{' and ' * bool(must)}{must}, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and final time, both in days.

    The horizon is rounded to a whole number of steps, at least one and
    at most MAX_STEPS. Both are stored as Python floats. Each ValueError
    message starts with the name of the field at fault.
    """

    dt: float = 0.01
    horizon: float = 10.0

    def __post_init__(self):
        dt = _real("dt", self.dt, lambda v: v > 0, "positive")
        horizon = _real(
            "horizon", self.horizon, lambda v: v >= self.dt, f"at least dt = {self.dt!r}"
        )
        if self.horizon > MAX_STEPS * self.dt:
            raise ValueError(
                f"horizon must be at most {MAX_STEPS} steps, got {self.horizon!r} / {self.dt!r}"
            )
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "horizon", horizon)

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


class FieldBody:
    """The equations of a vector field x' = f(x, *u), written once as
    Python statements.

    `source` reads state component i by the name state[i], the inputs
    by the names in the tuple `inputs`, the constants by the names in
    `constants` and other globals from `env`, and assigns derivative i
    to {dx<i>}. It is compiled once, when the body is built, as
    _field(*state, *inputs) returning the slots _dx<i>; a `Field` runs
    that code with its constants and env as globals. Each state name
    among the `words` of the source is bound once per RK4 stage, ahead
    of it. Every name that the RK4 block and the field form make up
    starts with _, so none can clash with the body's: a name declared
    twice, a declared name or a word of the source that starts with _,
    and a source that assigns one of its constants (which the later
    stages would read) raise ValueError. Bodies compare by identity. (A
    plain class: a dataclass would add about 1 ms to `import siqr`.)
    """

    def __init__(self, name: str, state: tuple, constants: tuple, inputs, source: str, env: dict):
        names = (*state, *constants, *inputs)
        self.words = re.findall(r"\w+", source)
        clashes = [n for n in (*names, *self.words) if names.count(n) > 1 or n.startswith("_")]
        if clashes:
            raise ValueError(f"{name} field names {clashes[0]!r} twice or with a leading _")
        dx = [f"_dx{i}" for i in range(len(state))]
        field = f"def _field({', '.join((*state, *inputs))}):\n"
        field += _fill(source, dx, " " * 4) + f"\n    return {_tuple_of(dx)}\n"
        code = _exec(field, f"<siqr field {name}>", {})["_field"].__code__
        # Past the parameters, the locals are the slots _dx<i> and the
        # names the source assigns.
        assigned = [n for n in code.co_varnames[code.co_argcount :] if n in constants]
        if assigned:
            raise ValueError(f"{name} field assigns its constant {assigned[0]!r}")
        self.name, self.state, self.dim, self.constants = name, state, len(state), constants
        self.inputs, self.source, self.env, self.code = inputs, source, env, code


def _fill(source, dx, indent):
    """`source` with {dx<i>} -> dx[i], indented."""
    # The braces delimit each name: "{dx1}" is no part of "{dx10}".
    for i, dx_i in enumerate(dx):
        source = source.replace(f"{{dx{i}}}", dx_i)
    return textwrap.indent(source, indent).rstrip("\n")


def _tuple_of(items):
    # "(a, )" keeps d = 1 a tuple, and "()" serves d = 0.
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _exec(source, filename, env):
    """Run generated `source` in a namespace made from env, with its lines
    registered in linecache so that tracebacks and pdb show them."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = dict(env)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


class Field:
    """A `FieldBody` with its constants bound, one value per name in the
    body's constants (ValueError otherwise). `integrate` inlines the body
    and does not call the field. Called, field(x, *inputs) runs the code
    compiled with the body and returns a tuple of dim numbers, x any
    sequence of dim numbers and one input per name in the body's inputs
    (ValueError otherwise)."""

    def __init__(self, body: FieldBody, constants: tuple):
        if len(constants) != len(body.constants):
            raise ValueError(
                f"{body.name} field takes {len(body.constants)} constants "
                f"({', '.join(body.constants)}), got {len(constants)}"
            )
        self.body, self.constants = body, constants
        bound = dict(zip(body.constants, constants))
        self._field = types.FunctionType(body.code, {**body.env, **bound})

    def __call__(self, x, *inputs):
        body = self.body
        if len(x) != body.dim or len(inputs) != len(body.inputs):
            raise ValueError(
                f"{body.name} field takes {body.dim} state components and "
                f"{len(body.inputs)} inputs, got {len(x)} and {len(inputs)}"
            )
        return self._field(*x, *inputs)


# One RK4 block, written out per state component so that a step does
# its arithmetic on local names (_x0 + _h * _k1_0, ...), with no per-step
# loop over the components. Each stage binds the field's inputs to the
# stage's input row and its state names to the stage state, then runs
# its body with {dx<i>} filled in by the stage slope _k<stage>_<i>.
# `{xs}` stands for the d names _x<i>, each followed by ", ". The
# block's own names start with _, which no body may use.
# The expressions and their order are those of the array form, so a
# body gives the same bits as numpy RK4 over its callable field. No
# error handling or storage: `integrate` passes `_extend`, which takes
# each new state as a list (`array.fromlist` checks each value, as
# `extend` does, and costs less than `extend` of a tuple).
_RK4_TEMPLATE = """\
def _rk4_block(_x, _u, _dt, _extend, {constants}):
    _h = 0.5 * _dt
    _c = _dt / 6.0
    ({xs}) = _x
    for _u_node, _u_mid, _u_next in zip(_u[0::2], _u[1::2], _u[2::2]):
{stages}
{step}
        _extend([{xs}])
    return ({xs})
"""


@functools.cache
def _rk4_block(body: FieldBody):
    """The RK4 block function of `body`, built once per body.

    _rk4_block(_x, _u, _dt, _extend, *constants) takes the state _x as
    floats and the rows _u at the block's 2m + 1 stage times in time
    order, takes m steps, calls _extend with each new state as a list
    and returns the last one as a tuple. Step j takes _u[2j] at its
    first stage, _u[2j + 1] at the two middle ones and _u[2j + 2] at the
    last.
    """
    d = body.dim
    stages = []
    for s, (step, row) in enumerate(
        [(None, "_u_node"), ("_h", "_u_mid"), ("_h", "_u_mid"), ("_dt", "_u_next")], start=1
    ):
        x = [f"_x{i}" if step is None else f"(_x{i} + {step} * _k{s - 1}_{i})" for i in range(d)]
        bind = "" if not body.inputs else f"{''.join(f'{name}, ' for name in body.inputs)}= {row}\n"
        bind += "".join(f"{name} = {x_i}\n" for name, x_i in zip(body.state, x) if name in body.words)
        stages.append(_fill(bind + body.source, [f"_k{s}_{i}" for i in range(d)], " " * 8))
    source = _RK4_TEMPLATE.format(
        constants=", ".join(body.constants),
        xs="".join(f"_x{i}, " for i in range(d)),
        stages="\n".join(stages),
        # Summed in the order of the array form x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4).
        step="\n".join(
            f"        _x{i} = _x{i} + _c * (_k1_{i} + 2.0 * _k2_{i} + 2.0 * _k3_{i} + _k4_{i})"
            for i in range(d)
        ),
    )
    return _exec(source, f"<siqr rk4 {body.name}>", body.env)["_rk4_block"]


def integrate(rhs: Field, x0, cfg: IntegratorConfig, inputs=None) -> Trajectory:
    """Classical RK4 for x' = rhs(x, *u), rhs a `Field` (TypeError
    otherwise), whose body is inlined at the four stages of the block.

    x0 is a 1-D sequence of the body's d numbers (ValueError otherwise).
    Without `inputs` the system is autonomous and u is empty. Otherwise
    `inputs` is a function of a 1-D array of stage times that returns
    one row per time of one value per input of the body, and u is the
    row at each RK4 stage time. It is called once per block of m <= 1024
    steps, at its 2m + 1 stage times t_j, t_j + dt/2, t_{j+1}, ... in
    time order, so an interpolation or a transform of the inputs runs
    once per block on arrays (ValueError if its result has another
    shape, or if it is missing for a body that reads inputs).

    Each step is stored by one `array.fromlist` of the new state. An
    exception raised in a step (by the body, or by `fromlist` at a value
    that is no real number) is re-raised from itself as its type with
    the step's time added to the message, or unchanged if its type takes
    more than a message. A state that stops being finite raises
    DivergenceError, with the first such step's time and the index of
    its first non-finite component.
    """
    n = cfg.n_steps
    dt = cfg.dt
    times = cfg.times
    if not isinstance(rhs, Field):
        raise TypeError(f"rhs must be a Field, got {type(rhs).__name__}")
    body = rhs.body
    d = body.dim
    x = np.asarray(x0, dtype=float)
    if x.shape != (d,):
        raise ValueError(
            f"x0 must have the {d} components of the {body.name} field, got shape {x.shape}"
        )
    if inputs is None and body.inputs:
        raise ValueError(f"inputs must be set for the {body.name} field's {', '.join(body.inputs)}")
    rk4_block = _rk4_block(body)
    from array import array  # a shared library: loaded at the first run, not at import

    states = np.empty((n + 1, d))
    states[0] = x
    x = x.tolist()
    # Divergence shows up as inf/NaN states and is reported below; the
    # intermediate overflow warnings of a body that calls numpy carry no
    # extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            u = [()] * (2 * (stop - start) + 1)
            if inputs is not None:
                at = np.empty(len(u))
                at[0::2] = times[start : stop + 1]
                at[1::2] = times[start:stop] + 0.5 * dt
                u = np.asarray(inputs(at))
                if u.shape != (at.size, len(body.inputs)):
                    raise ValueError(
                        f"inputs must return one row per time of {len(body.inputs)} values, "
                        f"got shape {u.shape} for {at.size} times (block from t={at[0]:.6g})"
                    )
                u = u.tolist()
            rows = array("d")
            try:
                x = rk4_block(x, u, dt, rows.fromlist, *rhs.constants)
            except Exception as exc:  # noqa: BLE001 - context is the point
                # The step after the rows written failed (a field of no
                # components writes none: the block's start).
                t = (start + len(rows) // max(d, 1)) * dt
                try:
                    timed = type(exc)(f"{exc} (rhs evaluation at t={t:.6g})")
                except TypeError:  # its type takes more than a message
                    pass  # re-raised below as it is, with no TypeError as context
                else:
                    raise timed from exc
                raise
            states[start + 1 : stop + 1] = np.frombuffer(rows).reshape(stop - start, d)
    finite = np.isfinite(states)
    if not finite.all():
        # Row-major: the first step, then its first component.
        step, component = np.argwhere(~finite)[0].tolist()
        t_bad = float(times[step])
        msg = f"state component {component} became non-finite at t={t_bad:.6g}"
        raise DivergenceError(msg, time=t_bad, component=component)
    return Trajectory(times=times, states=states)
