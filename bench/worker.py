"""One benchmark workload in a fresh, single-threaded process.

Started by run.py with the thread variables already set to 1; not meant
to be run by hand. Runs the workload as a closed loop with one client
for the given number of seconds and writes its raw results as JSON.

With --trace 0 it times the untraced loop, reruns the checks that need
the whole run, then computes the seeded accuracy panel. With --trace 1
it runs the loop untraced for half the time and traced for the other
half, and reports per-module figures from the traced half's spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import siqr  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def closed_loop(workload, seconds: float, tracer=None) -> dict:
    """Run operations back to back until `seconds` of wall time pass."""
    durations = array("d")
    failures = Counter()
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while i == 0 or clock() < deadline:
        inp = workload.prepare(i)
        if tracer is not None:
            tracer.current_op = i
        t0 = clock()
        try:
            out, error = workload.run(inp), None
        except Exception as exc:  # noqa: BLE001 - any error fails the operation
            out, error = None, exc
        durations.append(clock() - t0)
        if error is not None:
            problem = f"{type(error).__name__}: {error}"
        else:
            problem = workload.check(i, inp, out)
        if problem:
            failures[problem[:200]] += 1
        i += 1
    return {"durations": durations, "failures": failures}


def throughput(durations) -> float:
    """Operations per second of busy time."""
    return len(durations) / sum(durations)


def p90_ms(durations) -> float:
    if len(durations) < 2:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=10, method="inclusive")[-1] * 1e3


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer(tracer: Tracer, ops: int) -> dict:
    """Per-module figures per operation of the traced loop."""
    spans = tracer.summary()

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def per_op(value):
        return value / ops

    recover = ("identify.recover_full", "identify.recover_simplified")
    recover_calls = sum(get(n, "calls") for n in recover)
    recover_errors = Counter()
    for (name, cls), count in tracer.errors.items():
        if name in recover:
            recover_errors[cls] += count
    out = {
        "models.rhs_calls": per_op(get("models.rhs", "calls")),
        "models.rhs_s": per_op(get("models.rhs", "total_s")),
        "integrator.integrate_calls": per_op(get("integrator.integrate", "calls")),
        "integrator.steps": per_op(tracer.counts["integrator.steps"]),
        "integrator.integrate_self_s": per_op(get("integrator.integrate", "self_s")),
        "integrator.integrate_driven_self_s": per_op(get("integrator.integrate_driven", "self_s")),
        "observer.run_observer_self_s": per_op(get("observer.run_observer", "self_s")),
        "observer.guard_measurements_s": per_op(get("observer.guard_measurements", "total_s")),
        "observer.divergences": per_op(tracer.errors[("observer.run_observer", "DivergenceError")]),
        "observation.output_jets_calls": per_op(get("observation.output_jets", "calls")),
        "observation.output_jets_s": per_op(get("observation.output_jets", "total_s")),
        "identify.recover_calls": per_op(recover_calls),
        "identify.recover_s": per_op(sum(get(n, "total_s") for n in recover)),
        "identify.recover_ok_ratio": (
            (recover_calls - sum(recover_errors.values())) / recover_calls if recover_calls else 0.0
        ),
    }
    for cls in ("RootSelectionError", "RegimeError", "DegenerateInputError", "SingularPointError"):
        out[f"identify.errors.{cls}"] = per_op(recover_errors[cls])
    out.update({
        "observation.observe_s": per_op(get("observation.observe", "total_s")),
        "observation.add_noise_s": per_op(get("observation.add_noise", "total_s")),
        "observation.moving_average_s": per_op(get("observation.moving_average", "total_s")),
        "scenario.parse_scenario_s": per_op(get("scenario.parse_scenario", "total_s")),
    })
    for command in ("simulate", "estimate", "identify", "check"):
        out[f"cli.cmd_{command}_s"] = per_op(get(f"cli.cmd_{command}", "total_s"))
    # What cmd_simulate and cmd_estimate spend outside their traced
    # children: CSV formatting and the summary file.
    out["cli.csv_s"] = per_op(get("cli.cmd_simulate", "self_s") + get("cli.cmd_estimate", "self_s"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    if Path(siqr.__file__).resolve().parent != ROOT / "src" / "siqr":
        raise SystemExit(f"siqr imported from {siqr.__file__}, not from this checkout")

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        workload = cls(args.seed, args.workdir, in_process=bool(args.trace))
    else:
        workload = cls(args.seed)

    result = {"workload": args.workload, "seed": args.seed, "numpy": np.__version__}
    closed_loop(workload, 0)  # one untimed operation: lazy imports and caches warm up
    if args.trace == 0:
        loop = closed_loop(workload, args.seconds)
        problems = workload.final_check()
        result["peak_rss_mb"] = peak_rss_mb(children=cls is workloads.Cli)
        result["accuracy"] = workloads.accuracy(args.seed)
    else:
        untraced = closed_loop(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            loop = closed_loop(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        problems = workload.final_check()
        ops = len(loop["durations"])
        result["per_layer"] = per_layer(tracer, ops)
        result["per_layer"]["trace.overhead_frac"] = (
            throughput(untraced["durations"]) / throughput(loop["durations"]) - 1.0
        )
        loop["failures"].update(untraced["failures"])
        loop["untraced_ops"] = len(untraced["durations"])
        tracer.save(args.spans)

    durations = loop["durations"]
    failures = loop["failures"]
    failures.update(problems)
    result.update({
        "attempted": len(durations) + len(problems) + loop.get("untraced_ops", 0),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "ops": len(durations),
        "busy_s": sum(durations),
        "ops_per_s": throughput(durations),
        "op_ms_p50": statistics.median(durations) * 1e3,
        "op_ms_p90": p90_ms(durations),
        "outcomes": dict(getattr(workload, "outcomes", {})),
    })
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
