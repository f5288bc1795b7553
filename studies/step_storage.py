"""What two per-step details cost `integrate`: how its RK4 block stores a
step, and whether a body compares against an int or a float literal.

The block stores each new state by `array.fromlist` of a list, and the
bodies compare against `0.0`. This study runs `integrate` three ways:
as it is, with the block storing each step by `array.extend` of a tuple,
and with the bodies comparing against the int `0` (which CPython 3.11
does not specialize for a float operand). It checks that the three give
the same bits, for the model and the observer of both kinds, and prints
the median run time of each over repeats that rotate which runs first.
Only the full kinds reach a comparison with a literal.

    PYTHONPATH=src python studies/step_storage.py [--steps 1000] [--repeats 60]

The runs are those of `studies/inline_cost.py`: the reference scenario,
the observer driven by its noisy record, cut to --steps steps.
"""
from __future__ import annotations

import argparse
import functools
import linecache
import re
import statistics
import time
from contextlib import nullcontext

import numpy as np

from inline_cost import cases, running_blocks
from siqr import integrate
from siqr import integrator

# Taken before `running_blocks` can replace it.
_inlined_block = integrator._rk4_block


@functools.cache
def extend_block(body):
    """`integrator._rk4_block(body)` with each step stored by `extend` of
    a tuple: the same generated source, its storage line changed."""
    _inlined_block(body)  # registers the inlined block's source
    source = "".join(linecache.cache[f"<siqr rk4 {body.name}>"][2])
    source, n = re.subn(r"_extend\(\[(.*)\]\)", r"_extend((\1))", source)
    if n != 1:
        raise RuntimeError(f"found {n} storage lines in the {body.name} block, not 1")
    block = integrator._exec(source, f"<study extend rk4 {body.name}>", body.env)["_rk4_block"]

    def run(x, u, dt, fromlist, *constants):
        # `integrate` passes the `fromlist` of the block's rows.
        return block(x, u, dt, fromlist.__self__.extend, *constants)

    return run


@functools.cache
def int_zero_body(body):
    """`body` comparing against the int 0 where it compares against 0.0."""
    source, n = re.subn(r"([<>]=?) 0\.0\b", r"\1 0", body.source)
    if not n:
        raise RuntimeError(f"the {body.name} body compares against no 0.0")
    return integrator.FieldBody(
        f"{body.name} int 0", body.state, body.constants, body.inputs, source, body.env
    )


def forms(field) -> dict:
    """{form: (field, block builder or None for the inlined block)}."""
    int_zero = integrator.Field(int_zero_body(field.body), field.constants)
    return {"as is": (field, None), "extend": (field, extend_block), "int 0": (int_zero, None)}


def measure(steps: int = 1000, repeats: int = 60) -> dict:
    """{case: (bits equal, median s as is, {form: median s})} for the
    forms "extend" and "int 0"."""
    results = {}
    for name, (field, x0, cfg, inputs) in cases(steps).items():
        runs = forms(field)
        states, times = [], {form: [] for form in runs}
        for form, (form_field, build) in runs.items():
            with running_blocks(build) if build else nullcontext():
                states.append(integrate(form_field, x0, cfg, inputs).states)
        order = list(runs)
        for r in range(repeats):
            for form in order[r % len(order) :] + order[: r % len(order)]:
                form_field, build = runs[form]
                with running_blocks(build) if build else nullcontext():
                    start = time.perf_counter()
                    integrate(form_field, x0, cfg, inputs)
                    times[form].append(time.perf_counter() - start)
        medians = {form: statistics.median(times[form]) for form in runs}
        results[name] = (
            all(np.array_equal(states[0], other) for other in states[1:]),
            medians.pop("as is"),
            medians,
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=60)
    args = parser.parse_args(argv)
    print(f"{'case':<20} {'bits':<6} {'as is ms':>9} {'extend ms':>10} {'int 0 ms':>9} "
          f"{'extend/as is':>13} {'int 0/as is':>12}")
    for name, (equal, now, other) in measure(args.steps, args.repeats).items():
        print(f"{name:<20} {'equal' if equal else 'DIFFER':<6} {1e3 * now:>9.3f} "
              f"{1e3 * other['extend']:>10.3f} {1e3 * other['int 0']:>9.3f} "
              f"{other['extend'] / now:>13.3f} {other['int 0'] / now:>12.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
