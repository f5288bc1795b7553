"""What `integrate` gains by inlining a field's equations in its RK4 block.

`integrate` runs an RK4 block generated per field body, with the body's
statements written out at each of the four stages. The best call-based
design is the same generated block with one call per stage to the code
compiled with the body, bound to its constants as `Field` binds them,
`types.FunctionType(body.code, {**env, **constants})`, and without the
argument checks of `Field.__call__`. This study builds that block on the
side, checks that `integrate` gives the same bits with it as with the
inlined block, for the model and the observer of both kinds, and prints
the median run time of `integrate` with each block over repeats that
alternate which block runs first.

    PYTHONPATH=src python studies/inline_cost.py [--steps 1000] [--repeats 60]

The runs are those of the reference scenario (`Scenario(kind=...)`), the
observer driven by its noisy record, cut to --steps steps.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import statistics
import time
import types
from contextlib import contextmanager, nullcontext

import numpy as np

from siqr import ModelKind, Scenario, guard_measurements, integrate, vector_field
from siqr import integrator
from siqr.cli import make_measurements
from siqr.observer import _inputs, _observer_field

# `integrator._RK4_TEMPLATE` with the field as its one constant _f, and
# each stage one call of _f on the stage state and the stage's input row
# (unpacked by name, which costs less than a call with *row).
_STAGE = "        {bind}{k} = _f({args})"


@functools.cache
def called_block(body):
    """An RK4 block like `integrator._rk4_block(body)`, with the same
    signature, that calls the body's compiled code once per stage."""
    d = body.dim
    stages = []
    for s, (step, row) in enumerate(
        [(None, "_u_node"), ("_h", "_u_mid"), ("_h", "_u_mid"), ("_dt", "_u_next")], start=1
    ):
        x = [f"_x{i}" if step is None else f"_x{i} + {step} * _k{s - 1}_{i}" for i in range(d)]
        u = [f"_u_{name}" for name in body.inputs]
        bind = f"{''.join(f'{u_i}, ' for u_i in u)}= {row}\n        " if u else ""
        k = integrator._tuple_of(f"_k{s}_{i}" for i in range(d))
        stages.append(_STAGE.format(bind=bind, k=k, args=", ".join([*x, *u])))
    source = integrator._RK4_TEMPLATE.format(
        constants="_f",
        xs="".join(f"_x{i}, " for i in range(d)),
        stages="\n".join(stages),
        step="\n".join(
            f"        _x{i} = _x{i} + _c * (_k1_{i} + 2.0 * _k2_{i} + 2.0 * _k3_{i} + _k4_{i})"
            for i in range(d)
        ),
    )
    block = integrator._exec(source, f"<study called rk4 {body.name}>", {})["_rk4_block"]

    def run(x, u, dt, extend, *constants):
        f = types.FunctionType(body.code, {**body.env, **dict(zip(body.constants, constants))})
        return block(x, u, dt, extend, f)

    return run


@contextmanager
def running_blocks(build):
    """Within it, `integrate` runs the block that `build(body)` returns
    in place of the inlined one."""
    inlined = integrator._rk4_block
    integrator._rk4_block = build
    try:
        yield
    finally:
        integrator._rk4_block = inlined


def cases(steps: int) -> dict:
    """{name: (field, x0, config, inputs)} for the model and the observer
    of both kinds on the reference scenario, cut to `steps` steps."""
    out = {}
    for kind in ModelKind:
        sc = dataclasses.replace(Scenario(kind=kind), horizon=steps * Scenario().dt)
        cfg = sc.integrator_config()
        model = vector_field(kind, sc.params())
        out[f"model {kind.value}"] = (model, sc.initial_state(), cfg, None)
        guarded, _, _ = guard_measurements(make_measurements(sc, noisy=True)[2])
        init = sc.observer_init(guarded.y1[0], guarded.y2[0])
        field = _observer_field(sc.gain_set(), sc.N, kind)
        out[f"observer {kind.value}"] = (field, init, cfg, _record_inputs(guarded))
    return out


def _record_inputs(guarded):
    """The input rows of `run_observer`: the record interpolated linearly."""
    times, y1, y2 = guarded.times, guarded.y1, guarded.y2

    def inputs(at):
        return _inputs(np.interp(at, times, y1), np.interp(at, times, y2))

    return inputs


def measure(steps: int = 1000, repeats: int = 60) -> dict:
    """{case: (bits equal, median s inlined, median s called)}."""
    results = {}
    for name, (field, x0, cfg, inputs) in cases(steps).items():
        inlined_states = integrate(field, x0, cfg, inputs).states
        with running_blocks(called_block):
            called_states = integrate(field, x0, cfg, inputs).states
        times = {"inlined": [], "called": []}
        for r in range(repeats):
            for form in ("inlined", "called") if r % 2 == 0 else ("called", "inlined"):
                with running_blocks(called_block) if form == "called" else nullcontext():
                    start = time.perf_counter()
                    integrate(field, x0, cfg, inputs)
                    times[form].append(time.perf_counter() - start)
        results[name] = (
            np.array_equal(inlined_states, called_states),
            statistics.median(times["inlined"]),
            statistics.median(times["called"]),
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=60)
    args = parser.parse_args(argv)
    print(f"{'case':<20} {'bits':<6} {'inlined ms':>10} {'called ms':>10} {'called/inlined':>15}")
    for name, (equal, inlined, called) in measure(args.steps, args.repeats).items():
        print(f"{name:<20} {'equal' if equal else 'DIFFER':<6} {1e3 * inlined:>10.3f} "
              f"{1e3 * called:>10.3f} {called / inlined:>15.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
