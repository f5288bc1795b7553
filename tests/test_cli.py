import contextlib
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import siqr.cli
import siqr.observer
import siqr.scenario
from siqr import ConfigError, MeasurementError, ModelKind, Scenario, output_jets, parse_scenario
from siqr.cli import (
    cmd_check,
    cmd_estimate,
    cmd_identify,
    cmd_observe,
    cmd_simulate,
    load_scenario,
    main,
    simulate_truth,
)
from siqr.cli import estimate_scenario, make_measurements
from siqr.integrator import IntegratorConfig, Trajectory
from siqr.models import ModelParams, vector_field
from siqr.observation import NoiseSpec, observe
from siqr.observer import _inputs, _observer_field, gains, guard_measurements, run_observer
from siqr.scenario import DEFAULT_LAMBDA, REFERENCE_MU


def scenario_in(tmp_path, text=""):
    return replace(parse_scenario(text), out_dir=str(tmp_path / "out"))


# --- parsing ----------------------------------------------------------------


def test_empty_document_gives_reference_defaults():
    sc = parse_scenario("")
    assert sc.kind is ModelKind.FULL
    assert (sc.beta, sc.rho, sc.alpha, sc.N) == (0.4, 0.1, 0.07, 1e5)
    assert (sc.I0, sc.Q0, sc.R0) == (10.0, 5.0, 0.0)
    assert (sc.dt, sc.horizon) == (0.01, 10.0)
    assert sc.lam == DEFAULT_LAMBDA
    assert sc.mu == REFERENCE_MU
    assert sc.mu == pytest.approx((19 / 13, 19 / 15, 1.0))
    assert (sc.relative_sigma, sc.seed) == (0.05, 0)
    assert sc.smooth_window == 101
    assert (sc.delta0, sc.rho0, sc.v0, sc.k0) == (0.2, 0.05, 0.1, 1.0)


def test_overrides_and_comments():
    sc = parse_scenario(
        """
        # comment line
        model.kind = simplified
        params.beta = 0.5
        poles.mu = 0.1, 0.2, 0.3
        noise.seed = 42
        """
    )
    assert sc.kind is ModelKind.SIMPLIFIED
    assert sc.beta == 0.5
    assert sc.mu == (0.1, 0.2, 0.3)
    assert sc.seed == 42


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_scenario("params.gamma = 1.0")


def test_line_without_equals_sign_rejected():
    with pytest.raises(ConfigError, match=r"^line 1: expected 'key = value', got 'params\.beta 0\.4'$"):
        parse_scenario("params.beta 0.4\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_scenario("params.beta = 0.4\nparams.beta = 0.5")


def _key_text(value):
    """A field's value as its scenario file writes it."""
    if isinstance(value, ModelKind):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


def test_every_field_has_one_key_whose_default_text_parses_back():
    # Each Scenario field declares its file key and converter, once. Two
    # fields on one key, or a converter that does not read the default's
    # text back to the same value and type (a count read as a float),
    # fail here; a field without a key fails the import.
    fields = dataclasses.fields(Scenario)
    assert len(siqr.scenario._KEYS) == len(fields)
    for f in fields:
        parsed = getattr(parse_scenario(f"{f.metadata['key']} = {_key_text(f.default)}\n"), f.name)
        assert (type(parsed), parsed) == (type(f.default), f.default), f.name


@pytest.mark.parametrize(
    "text, key",
    [
        ("params.beta = -1", "params.beta"),
        ("params.beta = inf", "params.beta"),
        ("params.N = inf", "params.N"),
        ("sim.horizon = inf", "sim.horizon"),
        ("sim.horizon = 1e9", "sim.horizon"),  # 1e11 steps, past the step cap
        ("sim.dt = nan", "sim.dt"),
        ("noise.seed = -1", "noise.seed"),
        ("noise.relative_sigma = nan", "noise.relative_sigma"),
        ("init.Q0 = nan", "init.Q0"),
        ("init.I0 = 0", "init.I0"),
        ("init.R0 = -inf", "init.R0"),
        ("sim.horizon = 0.001", "sim.horizon"),
        ("poles.lambda = 1, nan, 2, 3", "poles.lambda"),
        ("poles.lambda = 1, 1.5, 2", "poles.lambda"),
        ("poles.mu = nan, 1, 1", "poles.mu"),
        ("poles.mu = 0.1, 0.2, 0.3, 0.4", "poles.mu"),
        ("smooth.window = 100", "smooth.window"),
        ("observer.k0 = inf", "observer.k0"),
        ("params.rho = fast", "params.rho"),
        ("noise.seed = 1.5", "noise.seed"),
        ("model.kind = sir", "model.kind"),
        # Two faults: the initial counts are checked before the window.
        ("init.I0 = -1\nsmooth.window = 4", "init.I0"),
    ],
)
def test_out_of_range_value_names_the_key(text, key):
    with pytest.raises(ConfigError, match=key):
        parse_scenario(text)


@pytest.mark.parametrize(
    "field, value, message",
    [
        # Dispatch tests `kind is ModelKind.FULL`: the string "full" would
        # run the simplified model.
        ("kind", "full", "model.kind must be a ModelKind, got 'full'"),
        ("smooth_window", 1.5, "smooth.window must be an integer, got 1.5"),
        ("smooth_window", 3.0, "smooth.window must be an integer, got 3.0"),
        ("smooth_window", 4, "smooth.window must be odd and >= 1, got 4"),
        ("smooth_window", 0, "smooth.window must be odd and >= 1, got 0"),
    ],
)
def test_library_checks_read_with_the_scenario_key(field, value, message):
    # `is_full` and `check_window` own these rules; Scenario only
    # prefixes the key.
    with pytest.raises(ConfigError) as info:
        Scenario(**{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("value", ["1", 10**400], ids=["str", "10**400"])
@pytest.mark.parametrize(
    "field, key",
    [("I0", "init.I0"), ("Q0", "init.Q0"), ("R0", "init.R0"), ("delta0", "observer.delta0"),
     ("rho0", "observer.rho0"), ("v0", "observer.v0"), ("k0", "observer.k0")],
)
def test_count_or_guess_that_is_no_finite_real_number_names_the_key(field, key, value):
    # math.isfinite alone raised TypeError for "1" and OverflowError for
    # 10**400, neither naming the key.
    with pytest.raises(ConfigError) as info:
        Scenario(**{field: value})
    assert str(info.value) == f"{key} must be a finite real number, got {value!r}"


def _range_cases():
    """(build, message) for each real-valued setting checked by a range:
    NaN, inf and, where a range applies, a value just outside it."""
    nan, inf = math.nan, math.inf
    rates = {"beta": 0.4, "rho": 0.1, "alpha": 0.07, "N": 1e5}
    point = Trajectory(times=np.zeros(1), states=np.ones((1, 4)))
    cases = []
    for name in rates:
        for value in (nan, inf, 0.0):
            cases.append((lambda n=name, v=value: ModelParams(**{**rates, n: v}),
                          f"{name} must be finite and strictly positive, got {value!r}"))
            cases.append((lambda n=name, v=value: Scenario(**{n: v}),
                          f"params.{name} must be finite and strictly positive, got {value!r}"))
    for value in (nan, inf, 0.0, -0.5):
        cases.append((lambda v=value: IntegratorConfig(dt=v),
                      f"dt must be finite and positive, got {value!r}"))
        cases.append((lambda v=value: Scenario(dt=v),
                      f"sim.dt must be finite and positive, got {value!r}"))
    for value in (nan, inf, 0.1):
        cases.append((lambda v=value: IntegratorConfig(dt=0.5, horizon=v),
                      f"horizon must be finite and at least dt = 0.5, got {value!r}"))
        cases.append((lambda v=value: Scenario(dt=0.5, horizon=v),
                      f"sim.horizon must be finite and at least dt = 0.5, got {value!r}"))
    for value in (nan, inf, -0.1):
        cases.append((lambda v=value: NoiseSpec(relative_sigma=v),
                      f"relative_sigma must be finite and non-negative, got {value!r}"))
        cases.append((lambda v=value: Scenario(relative_sigma=v),
                      f"noise.relative_sigma must be finite and non-negative, got {value!r}"))
    for value in (nan, inf, 0.0):
        cases.append((lambda v=value: observe(point, v),
                      f"alpha must be finite and strictly positive, got {value!r}"))
    for value in (nan, inf, 0.0, -1.0):
        cases.append((lambda v=value: Scenario(I0=v),
                      f"init.I0 must be finite and strictly positive, got {value!r}"))
    for name in ("Q0", "R0"):
        for value in (nan, inf, -inf, -0.5):
            cases.append((lambda n=name, v=value: Scenario(**{n: v}),
                          f"init.{name} must be finite and non-negative, got {value!r}"))
    for name in ("delta0", "rho0", "v0", "k0"):
        for value in (nan, inf, -inf):
            cases.append((lambda n=name, v=value: Scenario(**{n: v}),
                          f"observer.{name} must be finite, got {value!r}"))
    return cases


_RANGE_CASES = _range_cases()


@pytest.mark.parametrize(
    "build, message", _RANGE_CASES, ids=[message for _, message in _RANGE_CASES]
)
def test_real_setting_out_of_range_keeps_its_full_message(build, message):
    # One check writes all of these messages; each keeps its text.
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("kind", list(ModelKind))
def test_numpy_valued_settings_run_on_python_floats(kind):
    # np.float64 is a subclass of float, so only the exact type tells
    # whether a part converted its numbers. A numpy scalar bound in a
    # field runs each RK4 stage in numpy scalar arithmetic: the same
    # bits at about three times the cost.
    params = ModelParams(
        beta=np.float64(0.4), rho=np.float64(0.1), alpha=np.float64(0.07), N=10**5
    )
    cfg = IntegratorConfig(dt=np.float64(0.01), horizon=10)
    noise = NoiseSpec(relative_sigma=np.float64(0.05))
    held = [*dataclasses.astuple(params), *dataclasses.astuple(cfg), noise.relative_sigma]
    assert [type(value) for value in held] == [float] * 7
    for field in (
        vector_field(kind, params),
        _observer_field(gains(DEFAULT_LAMBDA, REFERENCE_MU), np.float64(1e5), kind),
    ):
        bound = [type(value) for value in field.constants]
        assert bound == [float] * (len(bound) - 1) + [bool]

    sc = Scenario(kind=kind)
    rates = ("beta", "rho", "alpha", "N")
    drawn = replace(sc, **{name: np.float64(getattr(sc, name)) for name in rates})
    assert type(drawn.N) is np.float64  # the scenario keeps the values given
    (truth, run, _), (truth_np, run_np, _) = estimate_scenario(sc), estimate_scenario(drawn)
    assert truth_np.states.tobytes() == truth.states.tobytes()
    assert run_np.trajectory.states.tobytes() == run.trajectory.states.tobytes()


def test_gain_set_is_built_once_per_scenario():
    sc = Scenario()
    assert sc.gain_set() is sc.gain_set()
    assert sc.gain_set() == gains(sc.lam, sc.mu)
    other = replace(sc, mu=(1.0, 2.0, 3.0))
    assert other.gain_set().mu == (1.0, 2.0, 3.0)
    # The kept GainSet is no field: equality, hash and repr read the fields.
    assert replace(sc) == sc and hash(replace(sc)) == hash(sc)
    assert "GainSet" not in repr(sc) and "_gains" not in repr(sc)


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("lam", None, "poles.lambda"),
        ("lam", (10**400, 1, 1, 1), "poles.lambda"),
        ("lam", ("x", 1, 1, 1), "poles.lambda"),
        ("lam", ("1", 1, 1, 1), "poles.lambda"),
        ("mu", 5, "poles.mu"),
    ],
    ids=["None", "10**400", "x", "string-1", "scalar"],
)
def test_pole_vector_that_is_no_sequence_of_reals_names_the_key(field, value, key):
    # `gains` converted each pole with float() before any check, so these
    # escaped as TypeError, OverflowError or a message naming no vector,
    # and the string "1" passed.
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        Scenario(**{field: value})


def test_window_wider_than_the_series_fails_estimate_only(tmp_path, capsys):
    # Only estimate smooths, so only estimate checks the window's fit.
    config = tmp_path / "scenario.cfg"
    config.write_text(f"smooth.window = 2001\nout.dir = {tmp_path / 'out'}\n")
    assert main(["estimate", "--config", str(config), "--no-noise"]) == 2
    assert "smooth.window" in capsys.readouterr().err
    assert main(["simulate", "--config", str(config)]) == 0


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("beta", float("nan"), "params.beta"),
        # Integral values only: a float seed or window would construct and
        # then fail in numpy with an error that names no key.
        ("seed", 1.5, "noise.seed"),
        ("smooth_window", 3.0, "smooth.window"),
    ],
)
def test_replace_takes_the_parsers_path(field, value, key):
    with pytest.raises(ConfigError, match=key):
        replace(parse_scenario(""), **{field: value})


# --- commands ---------------------------------------------------------------


def test_cmd_simulate_schema_and_conservation(tmp_path):
    sc = scenario_in(tmp_path)
    path = cmd_simulate(sc)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,S,I,Q,R"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    totals = data[:, 1:].sum(axis=1)
    assert np.max(np.abs(totals - sc.N)) / sc.N < 1e-6


def test_cmd_simulate_is_byte_deterministic(tmp_path):
    sc = scenario_in(tmp_path)
    first = cmd_simulate(sc).read_bytes()
    second = cmd_simulate(sc).read_bytes()
    assert first == second


def test_cmd_observe_schema_and_noise_determinism(tmp_path):
    sc = scenario_in(tmp_path)
    path = cmd_observe(sc)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y1,y2,y1_noisy,y2_noisy"
    first = path.read_bytes()
    second = cmd_observe(sc).read_bytes()
    assert first == second


def test_cmd_observe_no_noise_copies_clean_columns(tmp_path):
    sc = scenario_in(tmp_path)
    path = cmd_observe(replace(sc, relative_sigma=0.0))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], data[:, 3])
    assert np.array_equal(data[:, 2], data[:, 4])


def test_csv_writer_emits_nan_as_empty_field(tmp_path):
    from siqr.cli import _write_csv

    path = tmp_path / "x.csv"
    _write_csv(path, ["t", "v"], [[0.0, 1.0], [3.5, float("nan")]])
    assert path.read_text() == "t,v\n0.0,3.5\n1.0,\n"


def test_cmd_estimate_outputs(tmp_path, capsys):
    sc = scenario_in(tmp_path)
    run, traj, smoothed = cmd_estimate(replace(sc, relative_sigma=0.0))
    out = capsys.readouterr().out
    assert "final_rel_error.rho_hat" in out
    assert "guard_substitutions.y1 = 0" in out
    assert "stiffness" in out
    est_path = tmp_path / "out" / "estimates.csv"
    lines = est_path.read_text().splitlines()
    assert lines[0] == "t,rho_hat,beta_hat,alpha_hat,I_hat,I_hat_smoothed,clamp_active"
    assert (tmp_path / "out" / "summary.txt").exists()
    assert smoothed.size == run.estimates.times.size


def test_cmd_identify_round_trip(tmp_path, capsys):
    sc = scenario_in(tmp_path)
    rec = cmd_identify(sc, t=1.0)
    assert rec.rho == pytest.approx(0.1, rel=1e-6)
    assert rec.alpha == pytest.approx(0.07, rel=1e-6)
    assert rec.beta == pytest.approx(0.4, rel=1e-6)
    assert rec.epsilon == pytest.approx(10.0, rel=1e-6)
    assert "recovered.beta" in capsys.readouterr().out


def test_cmd_identify_simplified_kind(tmp_path):
    sc = scenario_in(tmp_path, "model.kind = simplified")
    rec = cmd_identify(sc, t=1.0)
    assert rec.beta == pytest.approx(0.4, rel=1e-6)


def test_cmd_identify_takes_and_labels_the_step_nearest_t(tmp_path, monkeypatch):
    # At sim.dt = 0.01, --t 0.025 rounds to the step at t = 0.02.
    jets = []

    def recorded(*args, **kwargs):
        jets.append(output_jets(*args, **kwargs))
        return jets[-1]

    monkeypatch.setattr(siqr.cli, "output_jets", recorded)
    sc = scenario_in(tmp_path)
    assert cmd_identify(sc, t=0.025) == cmd_identify(sc, t=0.02)
    assert jets[0] == jets[1]
    assert jets[0].t == 0.02


def test_cmd_identify_rejects_time_outside_horizon(tmp_path):
    sc = scenario_in(tmp_path)
    with pytest.raises(ConfigError):
        cmd_identify(sc, t=0.0)
    with pytest.raises(ConfigError):
        cmd_identify(sc, t=11.0)


def test_cmd_check_report(tmp_path, capsys):
    sc = scenario_in(tmp_path)
    report = cmd_check(sc)
    assert report["assumption.a1"] is True
    assert report["assumption.a2"] is True
    assert report["poles.m1_ok"] and report["poles.m2_ok"]
    assert report["inequality.dh1_at_0"] == pytest.approx(-1.31987e-5, rel=1e-4)
    assert report["inequality.cterm_at_0"] == pytest.approx(0.0923908, rel=1e-4)
    assert report["inequality.ok"] is True
    out = capsys.readouterr().out
    assert "poles.m1_ok = true" in out


def test_check_verifies_the_gains_the_scenario_built(monkeypatch):
    # The pole report reads the scenario's GainSet, the one the observer
    # runs with, rather than building a second one from the poles.
    calls = []

    def counted(lam, mu):
        calls.append((lam, mu))
        return gains(lam, mu)

    monkeypatch.setattr(siqr.scenario, "gains", counted)
    monkeypatch.setattr(siqr.observer, "gains", counted)
    cmd_check(Scenario())
    assert len(calls) == 1


def test_stiffness_reads_the_truth_run_not_a_second_record(tmp_path, monkeypatch):
    # The stiffness is read off the truth run the command already holds:
    # estimate builds its one record, check builds none.
    calls = []

    def counted(traj, alpha):
        calls.append(alpha)
        return observe(traj, alpha)

    monkeypatch.setattr(siqr.cli, "observe", counted)
    cmd_estimate(scenario_in(tmp_path))
    assert len(calls) == 1
    cmd_check(Scenario())
    assert len(calls) == 1  # none more


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
def test_stiffness_of_the_truth_run_is_that_of_the_clean_record(kind):
    # max(alpha * I) = alpha * max(I) to the bit, since rounding is
    # monotone: the figure is the one read off the noise-free record.
    rng = np.random.default_rng(17)
    for _ in range(50):
        beta, log_n, horizon, dt = rng.uniform([0.2, 4.0, 5.0, 0.005], [0.8, 7.0, 30.0, 0.02])
        sc = Scenario(kind=kind, beta=beta, N=10.0**log_n, horizon=horizon, dt=dt)
        traj = simulate_truth(sc)
        clean = observe(traj, sc.alpha)
        expected = sc.dt * max(sc.mu) * float(np.max(clean.y1))
        assert siqr.cli._stiffness(sc, traj).hex() == expected.hex(), sc


# --- report and CSV writers ----------------------------------------------------


def _csv_columns(path):
    """Header and the text fields of each column."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), list(zip(*(line.split(",") for line in lines[1:])))


def _assert_fields_read_back(fields, values):
    # An empty field stands for NaN; every other field parses back to
    # its value bit for bit (the sign of zero included).
    values = np.asarray(values, dtype=float)
    empty = np.array([field == "" for field in fields])
    assert np.array_equal(empty, np.isnan(values))
    parsed = np.array([float(field) for field in fields if field])
    assert parsed.tobytes() == values[~empty].tobytes()


def _report_fields(text):
    """The `key = value` lines of a report as an ordered dict of text."""
    return dict(line.split(" = ", 1) for line in text.splitlines())


@pytest.mark.parametrize("kind", ["full", "simplified"])
def test_truth_csv_fields_read_back_bitwise(tmp_path, kind):
    sc = scenario_in(tmp_path, f"model.kind = {kind}")
    header, columns = _csv_columns(cmd_simulate(sc))
    traj = simulate_truth(sc)
    assert header == ["t", "S", "I", "Q", "R"]
    _assert_fields_read_back(columns[0], traj.times)
    for j in range(4):
        _assert_fields_read_back(columns[j + 1], traj.states[:, j])


def test_estimates_csv_fields_read_back_bitwise(tmp_path, capsys):
    sc = scenario_in(tmp_path)
    run, _, smoothed = cmd_estimate(sc)
    capsys.readouterr()
    est = run.estimates
    header, columns = _csv_columns(tmp_path / "out" / "estimates.csv")
    assert header[-1] == "clamp_active"
    values = [est.times, est.rho_hat, est.beta_hat, est.alpha_hat, est.I_hat, smoothed]
    for fields, column in zip(columns, values):
        _assert_fields_read_back(fields, column)
    assert np.isnan(est.I_hat).any()  # the run writes NaN fields
    assert set(columns[-1]) == {"0", "1"}
    assert [field == "1" for field in columns[-1]] == est.clamp_active.tolist()


def test_summary_report_keys_and_values(tmp_path, capsys):
    sc = scenario_in(tmp_path)
    run, _, _ = cmd_estimate(replace(sc, relative_sigma=0.0))
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert capsys.readouterr().out == summary
    fields = _report_fields(summary)
    assert list(fields) == [
        "final.rho_hat",
        "final_rel_error.rho_hat",
        "final.beta_hat",
        "final_rel_error.beta_hat",
        "final.alpha_hat",
        "final_rel_error.alpha_hat",
        "I_hat.finite_frac",
        "I_hat.last_nan_t",
        "guard_substitutions.y1",
        "guard_substitutions.y2",
        "stiffness",
    ]
    for name, true_value in (("rho_hat", sc.rho), ("beta_hat", sc.beta), ("alpha_hat", sc.alpha)):
        final = float(getattr(run.estimates, name)[-1])
        assert fields[f"final.{name}"] == repr(final)
        assert fields[f"final_rel_error.{name}"] == repr(abs(final - true_value) / true_value)
    # The reference run has an infected estimate from t = 6.89 on only.
    assert fields["I_hat.finite_frac"] == repr(314 / 1001)
    assert fields["I_hat.last_nan_t"] == "6.88"
    # The noise-free record starts at Q0 = 5 > 0: nothing is substituted.
    assert fields["guard_substitutions.y1"] == "0"
    assert fields["guard_substitutions.y2"] == "0"
    assert fields["stiffness"] == repr(cmd_check(sc)["stiffness"])


def test_estimate_guards_the_record_once(monkeypatch):
    # The pipeline owns the guard; the observer only checks the record.
    calls = []

    def counted(series):
        calls.append(series)
        return guard_measurements(series)

    monkeypatch.setattr(siqr.cli, "guard_measurements", counted)
    monkeypatch.setattr(siqr.observer, "guard_measurements", counted)
    estimate_scenario(Scenario())
    assert len(calls) == 1


def test_estimate_guards_a_zero_start_and_reports_it(tmp_path, capsys):
    # With init.Q0 = 0 the record's y2 = Q starts at 0, the one sample
    # the guard substitutes. The pipeline counts it, starts the observer
    # from the guarded y2[0] and writes the counts to the summary; the
    # observer refuses the raw record, naming y2 at t = 0.
    sc = scenario_in(tmp_path, "init.Q0 = 0")
    _, run, substitutions = estimate_scenario(sc)
    assert substitutions == (0, 1)
    _, _, measurements = make_measurements(sc, True)
    guarded, _, _ = guard_measurements(measurements)
    z2 = _inputs([guarded.y1[0]], [guarded.y2[0]])[0, 3]
    assert run.trajectory.states[0, 1].tobytes() == z2.tobytes()
    init = sc.observer_init(guarded.y1[0], guarded.y2[0])
    with pytest.raises(MeasurementError) as excinfo:
        run_observer(measurements, sc.gain_set(), sc.N, init, sc.integrator_config(), sc.kind)
    assert str(excinfo.value) == "observer needs positive measurements, got y2=0.0 at t=0"
    cmd_estimate(sc)
    fields = _report_fields(capsys.readouterr().out)
    assert fields["guard_substitutions.y1"] == "0"
    assert fields["guard_substitutions.y2"] == "1"


@pytest.mark.parametrize("kind", ["full", "simplified"])
def test_identify_report_keys_and_values(tmp_path, capsys, kind):
    sc = scenario_in(tmp_path, f"model.kind = {kind}")
    rec = cmd_identify(sc, t=3.0)
    fields = _report_fields(capsys.readouterr().out)
    names = ["rho", "alpha", "beta", "epsilon"]
    assert list(fields) == [
        key for name in names for key in (f"recovered.{name}", f"recovered_rel_error.{name}")
    ]
    for name, true_value in zip(names, (sc.rho, sc.alpha, sc.beta, sc.I0)):
        value = getattr(rec, name)
        assert fields[f"recovered.{name}"] == repr(value)
        assert fields[f"recovered_rel_error.{name}"] == repr(abs(value - true_value) / true_value)


@pytest.mark.parametrize(
    "text, ok, stiffness",
    [
        pytest.param("", True, 0.10, id=""),
        # At twice the horizon estimate refuses the run.
        pytest.param("sim.horizon = 20", True, 0.99, id="sim.horizon = 20"),
        # Fails assumption a1 and the initial signs.
        pytest.param(
            "params.beta = 0.05\ninit.I0 = 50000",
            False,
            51.15,
            id="params.beta = 0.05\ninit.I0 = 50000",
        ),
    ],
)
def test_check_report_keys_and_values(tmp_path, capsys, text, ok, stiffness):
    report = cmd_check(scenario_in(tmp_path, text))
    fields = _report_fields(capsys.readouterr().out)
    assert list(fields) == list(report) == [
        "assumption.a1",
        "assumption.a2",
        "poles.m1_ok",
        "poles.m2_ok",
        "poles.max_coeff_error",
        "inequality.dh1_at_0",
        "inequality.cterm_at_0",
        "inequality.ok",
        "stiffness",
    ]
    for key, value in report.items():
        if isinstance(value, bool):
            assert fields[key] == ("true" if value else "false")
        else:
            assert fields[key] == repr(value)
    assert fields["inequality.ok"] == ("true" if ok else "false")
    assert round(report["stiffness"], 2) == stiffness


@pytest.mark.parametrize("kind", ["full", "simplified"])
def test_estimate_runs_inside_the_stiffness_limit(tmp_path, kind):
    # 15.6 days is the longest reference horizon, in 0.1-day steps, whose
    # noise-free run ends within criterion 4's 5% on every rate for both
    # kinds (alpha 4.04% off full, 4.62% simplified).
    sc = scenario_in(tmp_path, f"model.kind = {kind}\nsim.horizon = 15.6")
    _, run, _ = estimate_scenario(replace(sc, relative_sigma=0.0))
    for name, true_value in (("rho_hat", sc.rho), ("beta_hat", sc.beta), ("alpha_hat", sc.alpha)):
        assert abs(getattr(run.estimates, name)[-1] - true_value) / true_value < 0.05


@pytest.mark.parametrize(
    "kind, horizon",
    [
        # The first horizons past 5% on alpha: 5.03% off at stiffness 0.3745
        # and 5.05% at 0.3925.
        ("simplified", 15.7),
        ("full", 15.9),
        # Run, the noise-free alpha_hat would end 17.7 off (full) and 14.5
        # off (simplified).
        ("full", 20.0),
        ("simplified", 20.0),
    ],
)
def test_estimate_refuses_a_run_past_the_stiffness_limit(tmp_path, capsys, kind, horizon):
    sc = scenario_in(tmp_path, f"model.kind = {kind}\nsim.horizon = {horizon}")
    stiffness = cmd_check(sc)["stiffness"]
    capsys.readouterr()
    assert stiffness > siqr.cli.STIFFNESS_LIMIT
    with pytest.raises(ConfigError) as excinfo:
        estimate_scenario(sc)
    assert str(excinfo.value) == f"stiffness {stiffness!r} > 0.37 at sim.dt = 0.01"
    config = tmp_path / "scenario.cfg"
    config.write_text(f"model.kind = {kind}\nsim.horizon = {horizon}\nout.dir = {sc.out_dir}\n")
    assert main(["estimate", "--config", str(config), "--no-noise"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {excinfo.value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["full", "simplified"])
def test_estimate_runs_the_bench_corner(tmp_path, capsys, kind):
    # The stiffest scenario in the bench's draw ranges (0.3494 full,
    # 0.3493 simplified) stays under the limit.
    sc = scenario_in(
        tmp_path, f"model.kind = {kind}\nparams.beta = 0.5\nparams.rho = 0.08\n"
        "params.alpha = 0.08\nparams.N = 2e5"
    )
    assert 0.349 < cmd_check(sc)["stiffness"] < siqr.cli.STIFFNESS_LIMIT
    capsys.readouterr()
    estimate_scenario(sc)


# --- argv-level behaviour -----------------------------------------------------


def test_main_check_exits_zero(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"out.dir = {tmp_path / 'out'}\n")
    assert main(["check", "--config", str(config)]) == 0
    capsys.readouterr()


def test_main_check_at_underflowing_flow_poles(tmp_path, capsys):
    # m3 = mu1*mu2*mu3 underflows to 0 in both polynomials: the report
    # passes the placement it prints no error for, and warns of nothing.
    config = tmp_path / "scenario.cfg"
    config.write_text(f"poles.mu = 1e-300, 1e-300, 1e-300\nout.dir = {tmp_path / 'out'}\n")
    assert main(["check", "--config", str(config)]) == 0
    out, err = capsys.readouterr()
    assert "poles.m2_ok = true\npoles.max_coeff_error = 0.0\n" in out
    assert err == ""


def test_main_identify_needs_t(tmp_path, capsys):
    assert main(["identify"]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_unknown_command_exits_two_and_lists_the_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert re.search(r"invalid choice: 'bogus'.*simulate.*observe.*estimate.*identify.*check",
                     capsys.readouterr().err)


def test_main_bad_config_exits_two(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("params.beta = -3\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert "params.beta" in capsys.readouterr().err


def test_main_identify_names_both_candidates_of_an_ambiguous_root(tmp_path, capsys):
    # On day 8 of this full-model outbreak both roots of the recovery
    # quadratic imply positive rates. The message prints them as plain
    # floats, not as np.float64(...) reprs.
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "model.kind = full\nparams.beta = 0.5\nparams.rho = 0.08\nparams.alpha = 0.05\n"
        f"params.N = 50000\nsim.horizon = 30\nout.dir = {tmp_path / 'out'}\n"
    )
    assert main(["identify", "--config", str(config), "--t", "8"]) == 2
    err = capsys.readouterr().err
    assert re.search(r"ambiguous root selection, candidates \[-88\.19\d*, -40\.56\d*\]", err)
    assert "np.float64(" not in err


@pytest.mark.parametrize("kind", ["full", "simplified"])
def test_main_identify_reports_only_positive_rates(tmp_path, capsys, kind):
    # R0 = 0.1 / 0.55 < 1. On day 15 the full model's jet still gives the
    # rates; the simplified model's gives alpha < 0, which is no recovery.
    config = tmp_path / "scenario.cfg"
    config.write_text(
        f"model.kind = {kind}\nparams.beta = 0.1\nparams.rho = 0.5\nparams.alpha = 0.05\n"
        f"sim.horizon = 15\nout.dir = {tmp_path / 'out'}\n"
    )
    code = main(["identify", "--config", str(config), "--t", "15"])
    out, err = capsys.readouterr()
    if kind == "full":
        assert (code, err) == (0, "")
        errors = [float(v) for k, v in _report_fields(out).items() if "_rel_error." in k]
        assert len(errors) == 4 and max(errors) < 1e-5
    else:
        assert (code, out) == (2, "")
        assert err.startswith("config error: no closed-form recovery at --t 15.0: ")
        assert "recovered rates must be positive" in err


def test_main_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", [b"params.beta = \xff\n", b"out.dir = a\x00b\n"])
def test_main_unusable_config_text_exits_two(tmp_path, capsys, content):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(content)
    assert main(["simulate", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_reads_a_config_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # Some editors start a UTF-8 file with U+FEFF; it is no part of the first key.
    config = tmp_path / "scenario.cfg"
    text = f"model.kind = simplified\nout.dir = {tmp_path / 'out'}\n"
    config.write_text(text, encoding="utf-8-sig")
    assert config.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_scenario(config) == parse_scenario(text)
    assert main(["simulate", "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""


def test_commands_compile_each_body_once_and_their_rk4_blocks(tmp_path):
    # Each body is compiled once, to its callable form (`<siqr field ...>`),
    # when `import siqr` builds it. `integrate` inlines a `Field`'s body and
    # never calls the field, so a command process compiles only the RK4
    # block of each body it runs besides, and nothing at a field's first
    # call. A fresh interpreter starts with nothing compiled.
    config = tmp_path / "scenario.cfg"
    config.write_text(f"out.dir = {tmp_path / 'out'}\n")
    script = """\
import contextlib, io, json, linecache, sys
sys.path.insert(0, sys.argv[1])
from siqr.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([command, "--config", sys.argv[2]]) for command in ("simulate", "estimate", "check")]
print(json.dumps([codes, sorted(name for name in linecache.cache if name.startswith("<siqr "))]))
"""
    src = str(Path(siqr.cli.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script, src, str(config)], capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout) == [
        [0, 0, 0],
        ["<siqr field model>", "<siqr field observer>", "<siqr rk4 model>", "<siqr rk4 observer>"],
    ]


# The simplified model at beta = 1e300 overflows without leaving its
# domain: the state is non-finite from the first step on.
_OVERFLOW = "model.kind = simplified\nparams.beta = 1e300\nsim.dt = 0.5\nsmooth.window = 1\n"


@pytest.mark.parametrize(
    "text, args",
    [
        ("poles.lambda = 400, 410, 420, 430\nnoise.relative_sigma = 0\n", ["estimate", "--no-noise"]),
        (_OVERFLOW, ["simulate"]),
        (_OVERFLOW, ["observe"]),
        (_OVERFLOW, ["estimate", "--no-noise"]),
        (_OVERFLOW, ["identify", "--t", "1"]),
        (_OVERFLOW, ["check"]),
    ],
    ids=["observer-poles", "overflow-simulate", "overflow-observe", "overflow-estimate",
         "overflow-identify", "overflow-check"],
)
def test_main_divergence_exits_three(tmp_path, capsys, text, args):
    config = tmp_path / "scenario.cfg"
    config.write_text(text + f"out.dir = {tmp_path / 'out'}\n")
    assert main([args[0], "--config", str(config), *args[1:]]) == 3
    assert "divergence" in capsys.readouterr().err


def test_main_model_domain_overshoot_exits_three(tmp_path, capsys):
    # alpha*dt = 25: the first RK4 step carries Q past N in the full model.
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "params.alpha = 50\nsim.dt = 0.5\nsmooth.window = 1\n"
        f"out.dir = {tmp_path / 'out'}\n"
    )
    assert main(["simulate", "--config", str(config)]) == 3
    assert "Q < N" in capsys.readouterr().err


def test_main_noise_that_overflows_warns_nothing(tmp_path, capsys):
    # relative_sigma = 1e308 makes noisy samples overflow to inf. `observe`
    # and `estimate` both report the first one, by channel and time, and
    # write nothing. Neither lets numpy's overflow warning out, so under
    # `python -W error` both still return their exit codes.
    config = tmp_path / "scenario.cfg"
    config.write_text(f"noise.relative_sigma = 1e308\nout.dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("observe", "estimate"):
            assert main([command, "--config", str(config)]) == 3
            assert capsys.readouterr().err == (
                "numerical divergence: noisy y2 became non-finite at t=0.03\n"
            )
    assert not (tmp_path / "out").exists()


def test_main_estimate_no_noise_runs(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"out.dir = {tmp_path / 'out'}\n")
    assert main(["estimate", "--config", str(config), "--no-noise"]) == 0
    capsys.readouterr()


# --- exit-code contract -------------------------------------------------------


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _poles(arity, values):
    return st.lists(values, min_size=arity, max_size=arity).map(", ".join)


_SPECIAL = st.sampled_from(["", "0", "-0.0", "-1", "inf", "-inf", "nan", "1e308", "-1e308", "5e-324"])
_ANY_FLOAT = st.one_of(_SPECIAL, st.floats(allow_nan=True).map(repr))
_ANY_INT = st.one_of(_SPECIAL, st.integers().map(str))

# Values a run can use. sim.dt >= 0.05 and sim.horizon <= 2 keep each run
# within 40 steps; smooth.window is always set, since estimate's default
# (101) needs at least 100 steps.
_RUNNABLE = {
    "sim.dt": _floats(0.05, 0.5),
    "sim.horizon": _floats(0.05, 2.0),
    "smooth.window": st.integers(0, 10).map(lambda k: str(2 * k + 1)),
}
_OPTIONAL = {
    "model.kind": st.sampled_from(["full", "simplified"]),
    "params.beta": _floats(0.01, 5.0),
    "params.rho": _floats(0.01, 2.0),
    "params.alpha": _floats(0.01, 2.0),
    "params.N": _floats(10.0, 1e7),
    "init.I0": _floats(0.1, 100.0),
    "init.Q0": _floats(0.0, 100.0),
    "init.R0": _floats(0.0, 100.0),
    "poles.lambda": _poles(4, _floats(0.1, 10.0)),
    "poles.mu": _poles(3, _floats(0.01, 5.0)),
    "noise.relative_sigma": _floats(0.0, 1.0),
    "noise.seed": st.integers(0, 2**32).map(str),
    "observer.delta0": _floats(-2.0, 2.0),
    "observer.rho0": _floats(-2.0, 2.0),
    "observer.v0": _floats(-2.0, 2.0),
    "observer.k0": _floats(-5.0, 5.0),
}
# Out-of-range and malformed values, any key. sim.dt and sim.horizon
# only take values the parser rejects or runs within the step bound.
_EXTREME = {
    **{key: _ANY_FLOAT for key in _OPTIONAL},
    "model.kind": st.sampled_from(["", "Full", "sir"]),
    "sim.dt": st.one_of(_SPECIAL, st.floats(max_value=0.0).map(repr)),
    "sim.horizon": st.one_of(_SPECIAL, st.floats(max_value=2.0).map(repr)),
    "poles.lambda": st.lists(_ANY_FLOAT, max_size=5).map(", ".join),
    "poles.mu": st.lists(_ANY_FLOAT, max_size=5).map(", ".join),
    "noise.seed": _ANY_INT,
    "smooth.window": _ANY_INT,
}
_EXTREME_ITEMS = st.lists(
    st.sampled_from(sorted(_EXTREME)).flatmap(lambda k: _EXTREME[k].map(lambda v: (k, v))),
    max_size=3,
).map(dict)


_SHORT_RUN = {"sim.dt": "0.5", "sim.horizon": "2", "smooth.window": "1"}


@settings(max_examples=300, deadline=None)
@example(  # the first RK4 step carries Q past N
    runnable=_SHORT_RUN, extreme={"params.alpha": "50"}, command="simulate", t="1", noisy=True
)
@example(  # alpha*I0 underflows: no positive measurement
    runnable={**_SHORT_RUN, "params.alpha": "1e-300", "init.I0": "1e-300"},
    extreme={}, command="estimate", t="1", noisy=False,
)
@example(  # the recovery quadratic vanishes
    runnable=_SHORT_RUN, extreme={"params.N": "1e300"}, command="identify", t="1", noisy=True
)
@example(  # the state overflows without leaving the model's domain
    runnable={**_SHORT_RUN, "model.kind": "simplified", "params.beta": "1e300"},
    extreme={}, command="estimate", t="1", noisy=False,
)
# The next two step at sim.dt = 0.05 (stiffness 0.08): at _SHORT_RUN's
# 0.5 (stiffness 0.81) estimate refuses them before the observer runs.
@example(  # k_hat * k_hat overflows in the clamp and in beta_hat
    runnable={**_SHORT_RUN, "sim.dt": "0.05"}, extreme={"observer.k0": "1e300"},
    command="estimate", t="1", noisy=False,
)
@example(  # y1 / alpha_hat overflows at the first sample
    runnable={**_SHORT_RUN, "sim.dt": "0.05"}, extreme={"observer.delta0": "5e-324"},
    command="estimate", t="1", noisy=True,
)
@example(  # the coefficients overflow: inf - inf in the coefficient error
    runnable=_SHORT_RUN, extreme={"poles.lambda": "1e308, 1e308, 1e308, 1e308"},
    command="check", t="1", noisy=True,
)
@given(
    runnable=st.fixed_dictionaries(_RUNNABLE, optional=_OPTIONAL),
    extreme=_EXTREME_ITEMS,
    command=st.sampled_from(["simulate", "observe", "estimate", "identify", "check"]),
    t=st.one_of(_floats(0.0, 2.0), _ANY_FLOAT),
    noisy=st.booleans(),
)
def test_main_exit_code_is_in_the_contract(runnable, extreme, command, t, noisy):
    # 0 ok, 2 config error, 3 numerical divergence; anything else is a crash.
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.cfg"
        lines = [f"{key} = {value}" for key, value in {**runnable, **extreme}.items()]
        config.write_text("\n".join(lines + [f"out.dir = {Path(tmp) / 'out'}"]) + "\n")
        argv = [command, "--config", str(config), f"--t={t}"]
        if not noisy:
            argv.append("--no-noise")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejecting --t
                code = exc.code
    assert code in (0, 2, 3)
