"""Inputs, operations and output checks of the four benchmark workloads.

Every input is drawn from the workload seed, and siqr receives only the
generated inputs. Each workload object has three methods: ``prepare(i)``
builds the input of operation ``i`` and ``check(i, inp, out)`` checks its
output (neither is timed), while ``run(inp)`` is the timed call sequence
into siqr's public API. Functions are looked up on their modules at call
time so that the tracer's wrappers see every call.

The accuracy panel at the end is computed once per seed, outside the
timed loop, and gives the accuracy metrics that every workload reports.
"""
from __future__ import annotations

import io
import math
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from siqr import cli, identify, integrator, models, observation, observer, scenario
from siqr.errors import DegenerateInputError, RegimeError, RootSelectionError, SingularPointError

import reference

DT = 0.01
HORIZON = 10.0  # the reference grid: 1000 steps
IDENTIFY_HORIZON = 20.0
I0, Q0 = 10.0, 5.0  # the reference initial outbreak
N_STEPS = int(round(HORIZON / DT))

# Population conservation, relative to N, as in acceptance criterion 8.
CONSERVATION_TOL = 1e-6
# Relative error of recovered rates. Ten times the round-trip tolerance
# of criteria 2 and 3, because the workload also recovers one step after
# t = 0, where the simplified-model formulas lose a few more digits.
RECOVERY_TOL = 1e-5
# Recovery errors raised by design at states where the closed form does
# not apply (late instants); they are outcomes, not failures.
RECOVERY_ERRORS = (RootSelectionError, RegimeError, DegenerateInputError, SingularPointError)
# Up to this day the closed form applies on the whole range of draw_rates
# (the earliest raise, at the corner beta = 0.5, rho = 0.08, N = 5e4, is
# on day 6.9), so a recovery that raises there fails the operation.
CLOSED_FORM_DAYS = 5.0
# Every ORDER_CHECK_EVERY-th operation of sweep and estimate compares its
# trajectory with the reference RK4; the comparison costs about one
# sweep operation.
ORDER_CHECK_EVERY = 8

FULL, SIMPLIFIED = models.ModelKind.FULL, models.ModelKind.SIMPLIFIED


def draw_rates(u) -> dict:
    """Map a point of [0, 1)^4 to rates and population.

    Ranges around the reference scenario keep R0 = beta/(rho + alpha)
    between 1.5 and 3.8 and alpha <= rho, so both standing assumptions
    hold and every operation has an epidemic to work on.
    """
    return {
        "beta": 0.3 + 0.2 * float(u[0]),
        "rho": 0.08 + 0.04 * float(u[1]),
        "alpha": 0.05 + 0.03 * float(u[2]),
        "N": 5e4 * 4.0 ** float(u[3]),
    }


def latin_hypercube(rng, k: int, d: int) -> np.ndarray:
    """k stratified points in [0, 1)^d: one per stratum on every axis."""
    u = (np.arange(k)[:, None] + rng.random((k, d))) / k
    for j in range(d):
        u[:, j] = u[rng.permutation(k), j]
    return u


def scenario_text(kind, rates, noise_seed=0, out_dir=None) -> str:
    """A scenario document, as `siqr --config` reads it."""
    lines = [
        f"model.kind = {kind.value}",
        *(f"params.{key} = {value!r}" for key, value in rates.items()),
        f"noise.seed = {noise_seed}",
    ]
    if out_dir is not None:
        lines.append(f"out.dir = {out_dir}")
    return "\n".join(lines) + "\n"


def estimate_pipeline(sc, noisy: bool):
    """The `cmd_estimate` pipeline without file output."""
    truth, _, measurements = cli.make_measurements(sc, noisy)
    guarded, _, _ = observer.guard_measurements(measurements)
    init = sc.observer_init(guarded.y1[0], guarded.y2[0])
    run = observer.run_observer(measurements, sc.gain_set(), sc.N, init, sc.integrator_config())
    smoothed = observation.moving_average(run.estimates.I_hat, sc.smooth_window)
    return truth, guarded, init, run, smoothed


def model_order_problem(kind, params, x0, traj):
    """None if `traj` is as accurate as an RK4 of the model at its step."""
    field = reference.siqr_field(kind is FULL, params.beta, params.rho, params.alpha, params.N)
    return reference.order_problem(field, x0, float(traj.times[-1]), traj.states)


def final_rel_errors(sc, run) -> tuple:
    est = run.estimates
    return tuple(
        abs(float(getattr(est, f"{name}_hat")[-1]) - truth) / truth
        for name, truth in (("rho", sc.rho), ("beta", sc.beta), ("alpha", sc.alpha))
    )


def worst_rate_error(rec, params) -> float:
    return max(
        abs(rec.rho - params.rho) / params.rho,
        abs(rec.beta - params.beta) / params.beta,
        abs(rec.alpha - params.alpha) / params.alpha,
    )


def trajectories(rng, count: int, horizon: float):
    """`count` reference outbreaks, kinds alternating, rates stratified."""
    cfg = integrator.IntegratorConfig(dt=DT, horizon=horizon)
    out = []
    for j, u in enumerate(latin_hypercube(rng, count, 4)):
        kind = FULL if j % 2 == 0 else SIMPLIFIED
        params = models.ModelParams(**draw_rates(u))
        x0 = [params.N - I0 - Q0, I0, Q0, 0.0]
        out.append((kind, params, integrator.integrate(models.vector_field(kind, params), x0, cfg)))
    return out


class Workload:
    """Operation i runs the input pool[i % len(pool)]."""

    pool: list

    def prepare(self, i):
        return self.pool[i % len(self.pool)]

    def final_check(self) -> list:
        """Checks that need the whole run; returns the failures."""
        return []


class Sweep(Workload):
    """Simulate and observe one drawn scenario on the reference grid."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.pool = [
            (FULL if i % 2 == 0 else SIMPLIFIED, draw_rates(u))
            for i, u in enumerate(rng.random((1024, 4)))
        ]

    def run(self, inp):
        kind, rates = inp
        params = models.ModelParams(**rates)
        cfg = integrator.IntegratorConfig(dt=DT, horizon=HORIZON)
        x0 = [params.N - I0 - Q0, I0, Q0, 0.0]
        traj = integrator.integrate(models.vector_field(kind, params), x0, cfg)
        return traj, observation.observe(traj, params.alpha)

    def check(self, i, inp, out):
        traj, series = out
        kind, rates = inp
        n = rates["N"]
        if traj.states.shape != (N_STEPS + 1, 4) or not np.isfinite(traj.states).all():
            return "sweep: trajectory shape or finiteness"
        if np.max(np.abs(traj.states.sum(axis=1) - n)) / n >= CONSERVATION_TOL:
            return "sweep: population not conserved"
        if not (np.isfinite(series.y1).all() and np.isfinite(series.y2).all()):
            return "sweep: non-finite measurements"
        if i % ORDER_CHECK_EVERY == 0:
            problem = model_order_problem(kind, models.ModelParams(**rates), traj.states[0], traj)
            if problem:
                return "sweep: integrate less accurate than RK4: " + problem
        return None


class Estimate(Workload):
    """The `siqr estimate` pipeline in process, one drawn scenario each.

    Every fourth operation is noise-free (`--no-noise`). The truth
    trajectory of every ORDER_CHECK_EVERY-th operation, and the observer
    trajectory of the first, are checked against the reference RK4.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.pool = []
        for i, u in enumerate(rng.random((512, 4))):
            kind = FULL if i % 2 == 0 else SIMPLIFIED
            rates = draw_rates(u)
            text = scenario_text(kind, rates, noise_seed=int(rng.integers(0, 2**31)))
            self.pool.append((text, i % 4 != 3, kind, rates))
        self.first = None

    def run(self, inp):
        text, noisy, _, _ = inp
        return estimate_pipeline(scenario.parse_scenario(text), noisy)

    def check(self, i, inp, out):
        truth, _, _, run, _ = out
        est = run.estimates
        if i == 0:
            self.first = out
        finals = (est.rho_hat[-1], est.beta_hat[-1], est.alpha_hat[-1])
        if not all(math.isfinite(v) for v in finals):
            return "estimate: non-finite final estimate"
        if i % ORDER_CHECK_EVERY == 0:
            _, _, kind, rates = inp
            problem = model_order_problem(kind, models.ModelParams(**rates), truth.states[0], truth)
            if problem:
                return "estimate: integrate less accurate than RK4: " + problem
        return None

    def final_check(self):
        """Rerun the first operation; its outputs must be bitwise equal.

        Its observer trajectory must also be as accurate as an RK4 of the
        observer at its step, so integrate_driven keeps its order too.
        """
        if self.first is None:
            return []
        problems = []
        again = self.run(self.prepare(0))
        if _fingerprint(again) != _fingerprint(self.first):
            problems.append("estimate: rerun of the first operation differs")
        _, guarded, init, run, _ = self.first
        sc = scenario.parse_scenario(self.prepare(0)[0])
        field = reference.observer_field(guarded.times, guarded.y1, guarded.y2, sc.gain_set(), sc.N)
        traj = run.trajectory
        problem = reference.order_problem(field, init.as_array(), float(traj.times[-1]), traj.states)
        if problem:
            problems.append("estimate: integrate_driven less accurate than RK4: " + problem)
        return problems


def _fingerprint(out) -> bytes:
    truth, _, _, run, smoothed = out
    est = run.estimates
    arrays = (truth.states, run.trajectory.states, est.rho_hat, est.beta_hat, est.alpha_hat,
              est.I_hat, est.clamp_active, smoothed)
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class Identify(Workload):
    """One output jet plus closed-form recovery at a sampled state.

    States come from outbreaks integrated before timing starts, both
    kinds, at instants across a 20-day horizon. Late instants make some
    recoveries raise by design; those count per exception class. A raise
    up to CLOSED_FORM_DAYS fails the operation.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        outbreaks = trajectories(rng, 16, IDENTIFY_HORIZON)
        n_steps = int(round(IDENTIFY_HORIZON / DT))
        self.pool = []
        for j, step in zip(rng.integers(0, len(outbreaks), 8192), rng.integers(1, n_steps + 1, 8192)):
            kind, params, traj = outbreaks[j]
            self.pool.append((traj.states[step].copy(), params, kind, float(traj.times[step])))
        self.outcomes = Counter()

    def run(self, inp):
        x, params, kind, t = inp
        jet = observation.output_jets(models.EpidemicState.from_array(x), params, kind, t=t)
        recover = identify.recover_full if kind is FULL else identify.recover_simplified
        try:
            return recover(jet, params.alpha * I0, params.N)
        except RECOVERY_ERRORS as exc:
            return exc

    def check(self, i, inp, out):
        if isinstance(out, Exception):
            self.outcomes[type(out).__name__] += 1
            if inp[3] <= CLOSED_FORM_DAYS:
                return f"identify: {type(out).__name__} by day {CLOSED_FORM_DAYS:g}"
            return None
        self.outcomes["ok"] += 1
        if not worst_rate_error(out, inp[1]) <= RECOVERY_TOL:
            return "identify: recovered rates outside tolerance"
        return None


# The command mix of the cli workload, cycled in this order.
CLI_CYCLE = (
    ("estimate",), ("simulate",), ("estimate",), ("estimate", "--no-noise"), ("identify",),
    ("estimate",), ("simulate",), ("estimate",), ("check",), ("estimate", "--no-noise"),
)


class Cli(Workload):
    """One `python -m siqr <command> --config <file>` process per operation.

    The child inherits this process's environment (one thread, siqr on
    PYTHONPATH, temporary files under the work directory). With
    in_process=True the same command runs through `cli.main` in this
    process instead, which is how the traced run sees inside it.
    """

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir
        self.in_process = in_process
        self.pool = []
        for i, u in enumerate(rng.random((64, 4))):
            kind = FULL if i % 2 == 0 else SIMPLIFIED
            args = CLI_CYCLE[i % len(CLI_CYCLE)]
            if args[0] == "identify":
                args = args + ("--t", repr(round(float(rng.uniform(0.5, 5.0)), 2)))
            self.pool.append((args, kind, draw_rates(u), int(rng.integers(0, 2**31))))

    def prepare(self, i):
        args, kind, rates, noise_seed = self.pool[i % len(self.pool)]
        out = self.workdir / f"op{i}"
        config = self.workdir / f"op{i}.cfg"
        config.write_text(scenario_text(kind, rates, noise_seed, out_dir=out))
        return args, out, config

    def run(self, inp):
        args, _, config = inp
        argv = [args[0], "--config", str(config), *args[1:]]
        if self.in_process:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "siqr", *argv], cwd=self.workdir,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, i, inp, out):
        args, out_dir, config = inp
        try:
            return _check_cli(args[0], out_dir, *out)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            config.unlink()


def _report(stdout: str) -> dict:
    return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)


def _data_rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1 if path.is_file() else -1


def _check_cli(command, out_dir: Path, code, stdout):
    if code != 0:
        return f"cli {command}: exit code {code}"
    report = _report(stdout)
    if command == "simulate":
        if _data_rows(out_dir / "truth.csv") != N_STEPS + 1:
            return "cli simulate: truth.csv row count"
    elif command == "estimate":
        estimates, summary = out_dir / "estimates.csv", out_dir / "summary.txt"
        if _data_rows(estimates) != N_STEPS + 1 or not summary.is_file():
            return "cli estimate: estimates.csv row count or summary.txt missing"
        last = estimates.read_text().splitlines()[-1].split(",")
        finals = _report(summary.read_text())
        if last[1:4] != [finals.get(f"final.{k}_hat") for k in ("rho", "beta", "alpha")]:
            return "cli estimate: last estimates.csv row disagrees with summary.txt"
    elif command == "identify":
        errors = [float(report.get(f"recovered_rel_error.{k}", "nan")) for k in ("rho", "beta", "alpha")]
        if not all(e <= RECOVERY_TOL for e in errors):
            return "cli identify: recovered rates outside tolerance"
    elif command == "check":
        if report.get("poles.m1_ok") != "true" or report.get("poles.m2_ok") != "true":
            return "cli check: pole placement not confirmed"
    return None


WORKLOADS = {"sweep": Sweep, "estimate": Estimate, "identify": Identify, "cli": Cli}

ACCURACY_PANEL = 64  # noise-free estimate scenarios per seed
RECOVERY_PANEL = 32  # outbreaks whose states the recovery panel inverts
RECOVERY_STRIDE = 10  # the panel inverts every RECOVERY_STRIDE-th state


def accuracy(seed: int) -> dict:
    """Accuracy of the estimate and recovery layers on a seeded panel.

    rel_err_*: geometric mean final relative error of the noise-free
    `estimate` pipeline over ACCURACY_PANEL stratified scenarios. The
    errors span two decades across the panel, and the geometric mean is
    the typical one. Noise-free, because with noise the error is set
    mostly by the noise draw and would need far more scenarios to be
    steady from seed to seed.

    rel_err_max_digits: -log10 of the worst relative rate error over the
    successful recoveries at every RECOVERY_STRIDE-th state of
    RECOVERY_PANEL outbreaks. The worst error is round-off, which moves
    by factors from seed to seed; in digits it is steady.

    recover_ok_frac: the share of those recoveries that return rather
    than raise. A recovery that raises on more states is cheaper, so
    without this figure it would pass as a speed-up.
    """
    rng = np.random.default_rng([seed, 5])
    errors = []
    for j, u in enumerate(latin_hypercube(rng, ACCURACY_PANEL, 4)):
        kind = FULL if j % 2 == 0 else SIMPLIFIED
        sc = scenario.parse_scenario(scenario_text(kind, draw_rates(u)))
        _, _, _, run, _ = estimate_pipeline(sc, noisy=False)
        errors.append(final_rel_errors(sc, run))
    typical = np.exp(np.mean(np.log(np.array(errors)), axis=0))

    worst, attempts, returned = 0.0, 0, 0
    for kind, params, traj in trajectories(rng, RECOVERY_PANEL, IDENTIFY_HORIZON):
        recover = identify.recover_full if kind is FULL else identify.recover_simplified
        for step in range(1, traj.times.size, RECOVERY_STRIDE):
            x, t = traj.states[step], float(traj.times[step])
            jet = observation.output_jets(models.EpidemicState.from_array(x), params, kind, t=t)
            attempts += 1
            try:
                rec = recover(jet, params.alpha * I0, params.N)
            except RECOVERY_ERRORS:
                continue
            returned += 1
            worst = max(worst, worst_rate_error(rec, params))
    return {
        "rel_err_rho": float(typical[0]),
        "rel_err_beta": float(typical[1]),
        "rel_err_alpha": float(typical[2]),
        "rel_err_max_digits": -math.log10(max(worst, np.finfo(float).eps)),
        "recover_ok_frac": returned / attempts,
    }
