"""Scenario-driven command line front end.

Subcommands: simulate (truth.csv), observe (measurements.csv), estimate
(estimates.csv plus a summary), identify (closed-form recovery report at
one instant), check (assumptions, pole placement, initial-sign and
stiffness report).
Each command gathers its report in one dict, and one writer, `_report`,
turns it into `key = value` lines.
Exit status: 0 success, 2 configuration error, 3 numerical divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    DomainError,
    MeasurementError,
    RegimeError,
    RootSelectionError,
    SingularPointError,
)
from .identify import check_initial_inequalities, recover_full, recover_simplified
from .integrator import integrate
from .models import EpidemicState, check_assumptions, is_full, vector_field
from .observation import add_noise, moving_average, observe, output_jets
from .observer import guard_measurements, run_observer, verify_pole_placement
from .scenario import Scenario, parse_scenario

__all__ = [
    "main",
    "load_scenario",
    "simulate_truth",
    "make_measurements",
    "estimate_scenario",
    "cmd_simulate",
    "cmd_observe",
    "cmd_estimate",
    "cmd_identify",
    "cmd_check",
]


def load_scenario(path) -> Scenario:
    if path is None:
        return parse_scenario("")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_scenario(text)


def _report(values: dict) -> str:
    """`key = value` lines: floats as repr (NaN as nan), booleans as true/false."""
    lines = []
    for key, value in values.items():
        if isinstance(value, (bool, np.bool_)):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(float(value))
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def _value_errors(prefix: str, values: dict, truth: dict) -> dict:
    """`prefix.name` and `prefix_rel_error.name` for each name of `truth`."""
    report = {}
    for name, true_value in truth.items():
        value = float(values[name])
        report[f"{prefix}.{name}"] = value
        report[f"{prefix}_rel_error.{name}"] = abs(value - true_value) / abs(true_value)
    return report


def _write_csv(path: Path, header, columns) -> None:
    """One row per sample; floats as repr, NaN as an empty field."""
    rows = [",".join(header)]
    for values in zip(*(np.asarray(c).tolist() for c in columns)):
        rows.append(",".join("" if math.isnan(v) else repr(v) for v in values))
    path.write_text("\n".join(rows) + "\n")


def _out_dir(scenario: Scenario) -> Path:
    out = Path(scenario.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:  # a NUL byte in the path
        raise ConfigError(f"out.dir: {exc}") from exc
    return out


def simulate_truth(scenario: Scenario):
    cfg = scenario.integrator_config()
    field = vector_field(scenario.kind, scenario.params())
    return integrate(field, scenario.initial_state(), cfg)


def make_measurements(scenario: Scenario, noisy: bool):
    """Truth, clean and measured output series; noise is drawn only if
    `noisy` and relative_sigma > 0. Only `bench/workloads.py` passes
    noisy=False; the parameter goes when the bench moves (ROADMAP item 1)."""
    traj = simulate_truth(scenario)
    clean = observe(traj, scenario.alpha)
    if noisy and scenario.relative_sigma > 0:
        return traj, clean, add_noise(clean, scenario.noise_spec())
    return traj, clean, clean


# The largest stiffness `estimate` runs at. On the noise-free reference
# run at sim.dt = 0.01, criterion 4's 5% on every rate holds up to a
# 15.6-day horizon for the simplified kind (stiffness 0.3661, alpha
# 4.62% off) and fails from 15.7 days (0.3745, 5.03%); the full kind
# holds to 15.8 days (0.3837, 4.69%) and fails from 15.9 (0.3925,
# 5.05%). The bench's draw ranges reach 0.3494 at most (beta 0.5,
# rho 0.08, alpha 0.08, N 2e5), so the limit lies strictly above that
# and at or below 0.3745.
STIFFNESS_LIMIT = 0.37


def _stiffness(scenario: Scenario, clean) -> float:
    """sim.dt * max(mu) * max(y1) on the noise-free record: in days the flow
    poles are mu * y1, so near 1 RK4's fixed step is too long for the fastest."""
    return scenario.dt * max(scenario.mu) * float(np.max(clean.y1))


def estimate_scenario(scenario: Scenario):
    """Simulate, measure and run the observer as `siqr estimate` does.

    The flow block models the scenario's kind. The record is guarded
    here, once: the observer starts from the guarded first samples and
    runs on the guarded record (noise may clamp samples to zero).
    Returns (truth, observer run, (y1, y2) guard substitution counts).
    A scenario stiffer than STIFFNESS_LIMIT raises ConfigError before the run.
    """
    traj, clean, measurements = make_measurements(scenario, True)
    if (stiffness := _stiffness(scenario, clean)) > STIFFNESS_LIMIT:
        raise ConfigError(f"stiffness {stiffness} > {STIFFNESS_LIMIT} at sim.dt = {scenario.dt}")
    guarded, subs_y1, subs_y2 = guard_measurements(measurements)
    init = scenario.observer_init(guarded.y1[0], guarded.y2[0])
    run = run_observer(
        guarded,
        scenario.gain_set(),
        scenario.N,
        init,
        scenario.integrator_config(),
        scenario.kind,
    )
    return traj, run, (subs_y1, subs_y2)


def cmd_simulate(scenario: Scenario) -> Path:
    traj = simulate_truth(scenario)
    path = _out_dir(scenario) / "truth.csv"
    _write_csv(path, ["t", *EpidemicState._fields], [traj.times, *traj.states.T])
    return path


def cmd_observe(scenario: Scenario) -> Path:
    _, clean, noised = make_measurements(scenario, True)
    path = _out_dir(scenario) / "measurements.csv"
    _write_csv(
        path,
        ["t", "y1", "y2", "y1_noisy", "y2_noisy"],
        [clean.times, clean.y1, clean.y2, noised.y1, noised.y2],
    )
    return path


def cmd_estimate(scenario: Scenario):
    """Run the observer over the scenario's measurements.

    Writes estimates.csv and summary.txt, prints the summary, and
    returns (run, truth trajectory, smoothed infected estimate).
    """
    traj, run, substitutions = estimate_scenario(scenario)
    est = run.estimates
    try:
        i_hat_smoothed = moving_average(est.I_hat, scenario.smooth_window)
    except ValueError as exc:  # the window is wider than the series
        raise ConfigError(f"smooth.window: {exc}") from exc

    out = _out_dir(scenario)
    _write_csv(
        out / "estimates.csv",
        ["t", "rho_hat", "beta_hat", "alpha_hat", "I_hat", "I_hat_smoothed", "clamp_active"],
        [est.times, est.rho_hat, est.beta_hat, est.alpha_hat, est.I_hat, i_hat_smoothed,
         est.clamp_active.astype(int)],
    )

    truth = {"rho_hat": scenario.rho, "beta_hat": scenario.beta, "alpha_hat": scenario.alpha}
    report = _value_errors("final", {name: getattr(est, name)[-1] for name in truth}, truth)
    # I_hat is NaN (an empty CSV field) where alpha_hat is below its floor.
    nan_times = est.times[np.isnan(est.I_hat)]
    report["I_hat.finite_frac"] = float(np.isfinite(est.I_hat).mean())
    report["I_hat.last_nan_t"] = float(nan_times[-1]) if nan_times.size else math.nan
    report["guard_substitutions.y1"], report["guard_substitutions.y2"] = substitutions
    report["stiffness"] = _stiffness(scenario, observe(traj, scenario.alpha))
    summary = _report(report)
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    return run, traj, i_hat_smoothed


def cmd_identify(scenario: Scenario, t: float):
    """Closed-form parameter recovery from the noise-free jet at the step
    nearest time t, which labels the jet."""
    if not scenario.dt <= t <= scenario.horizon:
        raise ConfigError(f"--t must lie in [sim.dt, sim.horizon], got {t!r}")
    traj = simulate_truth(dataclasses.replace(scenario, horizon=t))
    jet = output_jets(
        traj.states[-1].tolist(), scenario.params(), scenario.kind, t=float(traj.times[-1])
    )
    recover = recover_full if is_full(scenario.kind) else recover_simplified
    try:
        rec = recover(jet, scenario.alpha * scenario.I0, scenario.N)
    except (SingularPointError, RootSelectionError, DegenerateInputError, RegimeError) as exc:
        raise ConfigError(f"no closed-form recovery at --t {t!r}: {exc}") from exc
    truth = dict(rho=scenario.rho, alpha=scenario.alpha, beta=scenario.beta, epsilon=scenario.I0)
    print(_report(_value_errors("recovered", rec._asdict(), truth)), end="")
    return rec


def cmd_check(scenario: Scenario):
    """Assumption, pole-placement, initial-sign and stiffness (`_stiffness`)
    report. A run that diverges raises as `simulate` does."""
    clean = observe(simulate_truth(scenario), scenario.alpha)
    report = {}
    for prefix, facts in (
        ("assumption", check_assumptions(scenario.params())),
        ("poles", verify_pole_placement(scenario.gain_set(), scenario.N)),
        ("inequality", check_initial_inequalities(scenario.params(), scenario.I0)),
    ):
        report.update({f"{prefix}.{key}": value for key, value in facts.items()})
    report["stiffness"] = _stiffness(scenario, clean)
    print(_report(report), end="")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="siqr",
        description="Simulate the SIQR quarantine model and estimate its parameters.",
    )
    parser.add_argument("command", choices=["simulate", "observe", "estimate", "identify", "check"])
    parser.add_argument("--config", default=None, help="scenario file (flat key = value lines)")
    parser.add_argument("--t", type=float, default=None, help="recovery instant (identify only)")
    parser.add_argument(
        "--no-noise", action="store_true", help="run with noise.relative_sigma = 0"
    )
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.config)
        if args.no_noise:
            scenario = dataclasses.replace(scenario, relative_sigma=0.0)
        if args.command == "simulate":
            cmd_simulate(scenario)
        elif args.command == "observe":
            cmd_observe(scenario)
        elif args.command == "estimate":
            cmd_estimate(scenario)
        elif args.command == "identify":
            if args.t is None:
                raise ConfigError("identify needs --t INSTANT")
            cmd_identify(scenario, args.t)
        elif args.command == "check":
            cmd_check(scenario)
    except (ConfigError, MeasurementError, OSError) as exc:
        # MeasurementError: the scenario's measurements have no positive
        # sample (noise clamped them all, or alpha*I0 underflowed).
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, DomainError) as exc:
        # A DomainError mid-run is RK4 stepping the full model past Q = N.
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
