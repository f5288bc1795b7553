"""Fixed-step classical Runge-Kutta integration.

One entry point, `integrate`, steps both the SIQR model (autonomous)
and the observer (forced by inputs given at the RK4 stage times), and
reports a state that stops being finite. The trajectories here are
smooth and slow over a ten-day horizon, so a fixed step keeps the runs
deterministic and trivially reproducible. A step works on one Python
float per state component: on states of 4 and 7 components numpy's
per-call overhead costs more than the arithmetic, and so does a Python
call. A field's equations are therefore written once, as a `FieldBody`,
and a `Field` binds the body's constants for a run. `integrate` inlines
a `Field`'s body in an RK4 block generated for it, which holds only the
arithmetic: `integrate` stores the states and adds the failing step's
time to an error. Other callables are called once per stage.
"""
from __future__ import annotations

import functools
import linecache
import math
import re
import textwrap
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


def _input_rows(inputs, at, t_block, width):
    """inputs(at) as a list of rows, checked to hold one row per time
    and, unless width is None, width values per row."""
    rows = np.asarray(inputs(at))
    if rows.ndim != 2 or rows.shape[0] != at.size or width not in (None, rows.shape[1]):
        per_row = "" if width is None else f" of {width} values"
        raise ValueError(
            f"inputs must return one row per time{per_row}, got shape {rows.shape} "
            f"for {at.size} times (block from t={t_block:.6g})"
        )
    return rows.tolist()


# The names a `FieldBody` must not declare: those that the code generated
# by `_rk4_block` and `_compiled_field` assigns or takes as arguments.
_BLOCK_NAMES = re.compile(r"x|h|c|dt|extend|u_nodes|u_mids|u_node|u_mid|u_next|d?x\d+|k\d+_\d+")


class FieldBody:
    """The equations of a vector field x' = f(x, *u), written once as
    Python statements.

    `source` reads state component i by the name state[i], the inputs
    by the names in `inputs` (None: the whole input row as {u}), the
    constants by the names in `constants` and other globals from `env`,
    and assigns derivative i to {dx<i>}. Each state name that occurs in
    the source as a word is bound once per stage, ahead of it; an
    unread one costs nothing. A name declared twice, or one of the RK4
    block's own (x, h, c, dt, extend, u_nodes, u_mids, u_node, u_mid,
    u_next, x<i>, dx<i> and k<stage>_<i>), would be overwritten there
    and raises ValueError. A `Field` binds a body's constants. Bodies
    compare by identity. (A plain class: a dataclass would add about
    1 ms to `import siqr`.)
    """

    def __init__(self, name: str, state: tuple, constants: tuple, inputs, source: str, env: dict):
        names = (*state, *constants, *(inputs or ()))
        clashes = [n for n in names if names.count(n) > 1 or _BLOCK_NAMES.fullmatch(n)]
        if clashes:
            raise ValueError(f"{name} field declares {clashes[0]!r} twice or as an RK4 block name")
        self.name, self.state, self.dim, self.constants = name, state, len(state), constants
        self.inputs, self.source, self.env = inputs, source, env


def _fill(body, head, x, dx, u, indent):
    """`head`, `name = x[i]` per state name read, and `body`'s source with
    {dx<i>} -> dx[i] and {u} -> u, indented."""
    reads = set(re.findall(r"\w+", body.source))
    bind = "".join(f"{name} = {x_i}\n" for name, x_i in zip(body.state, x) if name in reads)
    source = head + bind + body.source
    # The braces delimit each name: "{dx1}" is no part of "{dx10}".
    for i, dx_i in enumerate(dx):
        source = source.replace(f"{{dx{i}}}", dx_i)
    return textwrap.indent(source.replace("{u}", u), indent).rstrip("\n")


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


# The callable form of a body: the constants come first, as arguments,
# so that a call builds no closure.
_FIELD_TEMPLATE = """\
def field({constants}x, {inputs}):
    {x} = x
{body}
    return {dx}
"""


@functools.cache
def _compiled_field(body: FieldBody):
    """field(*constants, x, *inputs), compiled once per body."""
    x = [f"x{i}" for i in range(body.dim)]
    dx = [f"dx{i}" for i in range(body.dim)]
    source = _FIELD_TEMPLATE.format(
        constants="".join(f"{name}, " for name in body.constants),
        inputs="*u" if body.inputs is None else ", ".join(body.inputs),
        x=_tuple_of(x),
        body=_fill(body, "", x, dx, "u", " " * 4),
        dx=_tuple_of(dx),
    )
    return _exec(source, f"<siqr field {body.name}>", body.env)["field"]


class Field:
    """A `FieldBody` with its constants bound. `integrate` inlines the
    body and does not call the field. Called, field(x, *inputs) returns a
    tuple of dim numbers, x any sequence of dim numbers; the body's
    callable form is compiled at the first call of a field of that body."""

    def __init__(self, body: FieldBody, constants: tuple):
        self.body, self.constants = body, constants

    def __call__(self, x, *inputs):
        return _compiled_field(self.body)(*self.constants, x, *inputs)


@functools.cache
def _called_body(d: int) -> FieldBody:
    """The body of an opaque callable rhs on d components: one call per stage."""
    state = tuple(f"s{i}" for i in range(d))
    dx = [f"{{dx{i}}}" for i in range(d)]
    source = f"{_tuple_of(dx)} = rhs({_tuple_of(state)}, *{{u}})\n"
    return FieldBody(f"rhs d={d}", state, ("rhs",), None, source, {})


# One RK4 block, written out per state component so that a step does
# its arithmetic on local names (x0 + h * k1_0, ...), with no per-step
# loop over the components. Each stage binds the field's inputs to the
# stage's input row and its state names to the stage state, then runs
# its body with {dx<i>} filled in by the stage slope k<stage>_<i>; the
# body of an opaque callable calls it once per stage. `{x}` stands for
# the d names x<i>.
# The expressions and their order are those of the array form, so a
# body gives the same bits as numpy RK4 over its callable field. No
# error handling or storage: `integrate` passes `extend` for the states.
_RK4_TEMPLATE = """\
def rk4_block(x, u_nodes, u_mids, dt, extend, {constants}):
    h = 0.5 * dt
    c = dt / 6.0
    {x} = x
    u_node = u_nodes[0]
    for u_mid, u_next in zip(u_mids, u_nodes[1:]):
{stages}
{step}
        extend({x})
        u_node = u_next
    return {x}
"""


@functools.cache
def _rk4_block(body: FieldBody):
    """The RK4 block function of `body`, built once per body.

    rk4_block(x, u_nodes, u_mids, dt, extend, *constants) takes the
    state x as a sequence of floats, steps once per entry of u_mids,
    calls extend with each new state as a tuple and returns the last
    one. Step j of the block takes its input row u_nodes[j] at its first
    stage, u_mids[j] at the two middle ones and u_nodes[j + 1] at the
    last.
    """
    d = body.dim
    stages = []
    for s, (step, row) in enumerate(
        [(None, "u_node"), ("h", "u_mid"), ("h", "u_mid"), ("dt", "u_next")], start=1
    ):
        x = [f"x{i}" if step is None else f"(x{i} + {step} * k{s - 1}_{i})" for i in range(d)]
        dx = [f"k{s}_{i}" for i in range(d)]
        bind = "" if not body.inputs else f"{''.join(f'{u}, ' for u in body.inputs)}= {row}\n"
        stages.append(_fill(body, bind, x, dx, row, " " * 8))
    source = _RK4_TEMPLATE.format(
        constants=", ".join(body.constants),
        x=_tuple_of(f"x{i}" for i in range(d)),
        stages="\n".join(stages),
        # Summed in the order of the array form x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4).
        step="\n".join(
            f"        x{i} = x{i} + c * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
            for i in range(d)
        ),
    )
    return _exec(source, f"<siqr rk4 {body.name}>", body.env)["rk4_block"]


def integrate(rhs, x0, cfg: IntegratorConfig, inputs=None) -> Trajectory:
    """Classical RK4 for x' = rhs(x, *u).

    Without `inputs` the system is autonomous and u is empty. Otherwise
    `inputs` is a function of a 1-D array of stage times that returns
    one row of input values per time, and u is the row at each RK4
    stage time. It is called twice per block of up to 1024 steps, at
    the block's step nodes and at its half steps, so an interpolation or
    a transform of the inputs runs once per block on arrays (ValueError
    if its result has another shape). x0 is a 1-D sequence of d numbers
    (ValueError otherwise).

    A `Field` is not called: its body is inlined at the four stages of
    the block, and x0 must have the body's d components and each input
    row its number of inputs. Any other rhs goes into a `Field` whose
    body calls it once per stage; it receives x as a tuple of d Python
    floats and the entries of u as Python floats, and returns d numbers
    (a tuple is cheapest); x supports no array arithmetic.

    An exception raised in a step (by the field, by unpacking a result
    without d entries, by storing a value that is no real number) is
    re-raised from itself as its type with the step's time added to the
    message, or unchanged if its type takes more than a message. A state
    that stops being finite raises DivergenceError, with the first such
    step's time and the index of its first non-finite component.
    """
    n = cfg.n_steps
    dt = cfg.dt
    times = cfg.times
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x0 must be a 1-D sequence of state components, got shape {x.shape}")
    d = x.size
    field = rhs if isinstance(rhs, Field) else Field(_called_body(d), (rhs,))
    body = field.body
    if body.dim != d:
        raise ValueError(
            f"x0 must have the {body.dim} components of the {body.name} field, got shape {x.shape}"
        )
    if inputs is None and body.inputs:
        raise ValueError(f"inputs must be set for the {body.name} field's {', '.join(body.inputs)}")
    width = None if body.inputs is None else len(body.inputs)
    rk4_block = _rk4_block(body)
    from array import array  # a shared library: loaded at the first run, not at import

    states = np.empty((n + 1, d))
    states[0] = x
    x = x.tolist()
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
                nodes = times[start : stop + 1]
                u_nodes = _input_rows(inputs, nodes, nodes[0], width)
                u_mids = _input_rows(inputs, nodes[:-1] + 0.5 * dt, nodes[0], width)
            rows = array("d")
            try:
                x = rk4_block(x, u_nodes, u_mids, dt, rows.extend, *field.constants)
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
    bad = np.argwhere(~np.isfinite(states))  # row-major: first step, then component
    if bad.size:
        step, component = bad[0].tolist()
        t_bad = float(times[step])
        msg = f"state component {component} became non-finite at t={t_bad:.6g}"
        raise DivergenceError(msg, time=t_bad, component=component)
    return Trajectory(times=times, states=states)
