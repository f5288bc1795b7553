import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siqr import (
    DivergenceError,
    IntegratorConfig,
    MeasurementError,
    ModelKind,
    ObserverState,
    OutputSeries,
    assemble_m1,
    assemble_m2,
    beta_hat,
    char_poly,
    gains,
    guard_measurements,
    observer_rhs,
    run_observer,
    verify_pole_placement,
)
from siqr.observer import GainSet, _coeff_error, _inputs, _observer_field
from siqr.scenario import DEFAULT_LAMBDA, DEFAULT_MU, Scenario

from synthetic import linear_regime_series

REF_GAINS = gains(DEFAULT_LAMBDA, DEFAULT_MU)


# --- gains -----------------------------------------------------------------


def test_gains_reference_lambda_block():
    assert REF_GAINS.K[0] == pytest.approx(7.0, rel=1e-14)
    assert REF_GAINS.K[1] == pytest.approx(26.25, rel=1e-14)
    assert REF_GAINS.K[2] == pytest.approx(-7.5, rel=1e-14)
    assert REF_GAINS.K[3] == pytest.approx(-26.25, rel=1e-14)


def test_gains_reference_mu_block():
    m = [1.0 / 13000.0, 1.0 / 15000.0, 1.0 / 19000.0]
    assert REF_GAINS.K[4] == pytest.approx(sum(m), rel=1e-14)
    assert REF_GAINS.K[4] == pytest.approx(1.96221e-4, rel=1e-5)
    assert REF_GAINS.K[5] == pytest.approx(1.268556e-8, rel=1e-6)
    assert REF_GAINS.K[6] == pytest.approx(-2.69906e-13, rel=1e-5)


def test_gains_repeated_pole():
    gs = gains([1.0, 1.0, 1.0, 1.0], DEFAULT_MU)
    assert gs.K[0] == pytest.approx(4.0)
    assert gs.K[1] == pytest.approx(8.0)
    assert gs.K[2] == pytest.approx(-1.0)
    assert gs.K[3] == pytest.approx(-8.0)


def test_gains_reject_bad_poles():
    with pytest.raises(ValueError):
        gains([1.0, 2.0, 3.0], DEFAULT_MU)
    with pytest.raises(ValueError):
        gains(DEFAULT_LAMBDA, [0.1, 0.2])
    with pytest.raises(ValueError):
        gains([1.0, 2.0, 3.0, -4.0], DEFAULT_MU)


@pytest.mark.parametrize(
    "lam, mu, name",
    [
        (None, DEFAULT_MU, "lambda"),
        ((10**400, 1.0, 1.0, 1.0), DEFAULT_MU, "lambda"),
        (("x", 1.0, 1.0, 1.0), DEFAULT_MU, "lambda"),
        (DEFAULT_LAMBDA, 5.0, "mu"),
    ],
    ids=["None", "10**400", "x", "scalar"],
)
def test_gains_names_the_pole_vector_that_is_no_sequence_of_reals(lam, mu, name):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        gains(lam, mu)


# --- observer field --------------------------------------------------------


def consistent_state(y1, y2, delta, rho, v, k):
    return ObserverState(
        z1_hat=float(np.log(y1)),
        z2_hat=float(np.log(y2)),
        delta_hat=delta,
        rho_hat=rho,
        y1_hat=y1,
        v_hat=v,
        k_hat=k,
    )


def test_observer_rhs_zero_innovation():
    y1, y2 = 0.7, 5.0
    delta, rho = 0.33, 0.1
    x = consistent_state(y1, y2, delta, rho, v=delta - rho, k=0.0)
    d = observer_rhs(x, y1, y2, REF_GAINS, 1e5)
    assert d[0] == pytest.approx(delta - rho, rel=1e-14)
    assert d[1] == pytest.approx(y1 / y2 - rho, rel=1e-14)
    assert d[2] == 0.0
    assert d[3] == 0.0
    assert d[4] == pytest.approx((delta - rho) * y1, rel=1e-14)
    assert d[5] == 0.0
    assert d[6] == 0.0


@pytest.mark.parametrize("channel", ["y1", "y2"])
@pytest.mark.parametrize("bad", [0.0, -2.0, float("nan")], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("entry", ["observer_rhs", "run_observer"])
def test_observer_entry_points_reject_nonpositive_measurements(entry, channel, bad):
    # One input rule for both entry points: neither guards, and a sample
    # that is not positive raises MeasurementError naming its channel.
    # run_observer also names the first bad time: t = 0.3, ahead of a
    # second bad sample at t = 0.7.
    if entry == "observer_rhs":
        x = consistent_state(1.0, 1.0, 0.3, 0.1, 0.2, 1.0)
        y = {"y1": 1.0, "y2": 1.0, channel: bad}
        with pytest.raises(MeasurementError, match=re.escape(f"{channel}={bad!r}")):
            observer_rhs(x, y["y1"], y["y2"], REF_GAINS, 1e5)
        return
    series = linear_series(horizon=1.0, dt=0.1)
    samples = getattr(series, channel).copy()
    samples[[3, 7]] = bad
    record = replace(series, **{channel: samples})
    init = consistent_state(0.7, 5.0, DELTA, RHO, DELTA - RHO, 0.0)
    with pytest.raises(MeasurementError) as excinfo:
        run_observer(record, REF_GAINS, 1e5, init, IntegratorConfig(dt=0.1, horizon=1.0))
    expected = f"observer needs positive measurements, got {channel}={bad!r} at t=0.3"
    assert str(excinfo.value) == expected


def test_observer_error_dynamics_match_block_matrices():
    # The rhs difference between a perturbed and an exact state is
    # exactly M1 @ e1 for the log block and y1 * (M2 @ e2) for the
    # flow block, on any measurement pair.
    rng = np.random.default_rng(5)
    y1, y2 = 0.9, 6.0
    truth = consistent_state(y1, y2, 0.33, 0.1, 0.23, 0.0).as_array()
    err = rng.normal(0, 1e-3, 7)
    perturbed = ObserverState(*(truth + err))
    d_truth = observer_rhs(ObserverState(*truth), y1, y2, REF_GAINS, 1e5)
    d_pert = observer_rhs(perturbed, y1, y2, REF_GAINS, 1e5)
    diff = d_pert - d_truth
    m1 = assemble_m1(REF_GAINS)
    m2 = assemble_m2(REF_GAINS, 1e5)
    assert diff[:4] == pytest.approx(m1 @ err[:4], rel=1e-9, abs=1e-18)
    assert diff[4:] == pytest.approx(y1 * (m2 @ err[4:]), rel=1e-9, abs=1e-18)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
def test_compiled_field_jacobian_is_the_designed_error_matrix(kind):
    # `verify_pole_placement` checks the hand-written M1 and M2; this ties
    # them to the field that runs. At every 50th state of the noise-free
    # reference run, the central-difference Jacobian of the compiled
    # observer field is blockdiag(M1, y1 * M2), to 1e-9 of each row's
    # largest entry. The full kind's v_hat row (dx5) also carries the
    # quarantine outflow, which depends on delta_hat, rho_hat and k_hat.
    from siqr.cli import estimate_scenario, make_measurements

    sc = Scenario(kind=kind, relative_sigma=0.0)
    _, run, _ = estimate_scenario(sc)
    _, clean, _ = make_measurements(sc, False)
    gs = sc.gain_set()
    field = _observer_field(gs, sc.N, kind)
    rows = [0, 1, 2, 3, 4, 6] if kind is ModelKind.FULL else list(range(7))
    states = run.trajectory.states[::50]
    for x, y1, y2 in zip(states, clean.y1[::50], clean.y2[::50]):
        u = _inputs([y1], [y2])[0].tolist()
        expected = np.zeros((7, 7))
        expected[:4, :4] = assemble_m1(gs)
        expected[4:, 4:] = y1 * assemble_m2(gs, sc.N)
        jac = np.empty((7, 7))
        for j in range(7):
            up, down = x.copy(), x.copy()
            h = 1e-6 * max(1.0, abs(x[j]))
            up[j] += h
            down[j] -= h
            jac[:, j] = np.subtract(field(up.tolist(), *u), field(down.tolist(), *u)) / (
                up[j] - down[j]
            )
        scale = np.abs(expected).max(axis=1, keepdims=True)
        assert (np.abs(jac - expected) <= 1e-9 * scale)[rows].all()
    assert len(states) == 21


def test_observer_single_step_golden_value():
    # One RK4 step (dt = 0.01) from the reference-scenario start,
    # frozen after validating the field against the block matrices.
    sc = Scenario()
    times = np.array([0.0, 0.01])
    y1 = np.array([0.7000000000000001, 0.7016115717280191])
    y2 = np.array([5.0, 5.002007052420732])
    init = sc.observer_init(y1[0], y2[0])
    run = run_observer(
        OutputSeries(times=times, y1=y1, y2=y2),
        REF_GAINS,
        sc.N,
        init,
        IntegratorConfig(dt=0.01, horizon=0.01),
    )
    golden = np.array(
        [
            -0.3551473191776972,
            1.610442232339572,
            0.19997067536901095,
            0.049894520973289974,
            0.7007008061669353,
            0.09999992991946192,
            0.9999999999999138,
        ]
    )
    assert run.trajectory.states[1] == pytest.approx(golden, rel=1e-12)


# --- estimator -------------------------------------------------------------


def test_estimate_reference_round_trip():
    beta = beta_hat(2.285714, 0.33)
    assert beta == pytest.approx(0.4, rel=1e-6)
    assert beta - 0.33 == pytest.approx(0.07, rel=1e-5)


def test_estimate_zero_delta_collapses():
    beta = beta_hat(1.7, 0.0)
    assert beta == 0.0
    assert beta - 0.0 == 0.0


def test_estimate_nonpositive_k_flags_nonphysical_sign():
    beta = beta_hat(-1.0, 0.1)
    assert beta <= 0.0
    assert beta <= -1.0 / 2.0  # never exceeds k/2


@settings(max_examples=100)
@given(
    alpha=st.floats(min_value=0.01, max_value=0.3),
    rho_gap=st.floats(min_value=0.0, max_value=0.3),
    multiplier=st.floats(min_value=1.05, max_value=3.0),
)
def test_estimator_round_trip_exact(alpha, rho_gap, multiplier):
    # With rho >= alpha and beta > rho + alpha the smaller root is beta.
    rho = alpha + rho_gap
    beta = (rho + alpha) * multiplier
    k_hat, delta_hat = beta**2 / alpha, beta - alpha
    beta_out = beta_hat(k_hat, delta_hat)
    assert beta_out == pytest.approx(beta, rel=1e-12)
    assert beta_out - delta_hat == pytest.approx(alpha, rel=1e-12)
    assert beta_out <= k_hat / 2.0


# --- matrices and pole placement -------------------------------------------


def test_assemble_reference_entries():
    m1 = assemble_m1(REF_GAINS)
    assert m1[0, 0] == -7.0
    assert m1[3, 0] == 26.25
    m2 = assemble_m2(REF_GAINS, 1e5)
    assert m2[2, 0] == pytest.approx(2.69906e-8, rel=1e-5)


def test_assemble_zero_gains_leaves_structure():
    zero = GainSet(lam=(0,) * 4, mu=(0,) * 3, K=(0.0,) * 7)
    m1 = assemble_m1(zero)
    expected = np.zeros((4, 4))
    expected[0, 2] = 1.0
    expected[0, 3] = -1.0
    expected[1, 3] = -1.0
    expected[3, 1] = -1.0
    assert np.array_equal(m1, expected)
    m2 = assemble_m2(zero, 1e5)
    expected2 = np.zeros((3, 3))
    expected2[0, 1] = 1.0
    expected2[1, 2] = -1e-5
    assert np.array_equal(m2, expected2)


def test_char_poly_reference_m1():
    coeffs = char_poly(assemble_m1(REF_GAINS))
    assert coeffs == pytest.approx([1.0, 7.0, 17.75, 19.25, 7.5], rel=1e-12)


def test_char_poly_reference_m2():
    k5, k6, k7 = REF_GAINS.K[4], REF_GAINS.K[5], REF_GAINS.K[6]
    coeffs = char_poly(assemble_m2(REF_GAINS, 1e5))
    assert coeffs == pytest.approx([1.0, k5, k6, -k7], rel=1e-12)


def test_char_poly_diagonal():
    coeffs = char_poly(np.diag([-2.0, -3.0]))
    assert coeffs == pytest.approx([1.0, 5.0, 6.0], rel=1e-14)


@pytest.mark.parametrize("shape", [(2, 3), (3,)])
def test_char_poly_rejects_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match=rf"^matrix must be square, got shape {re.escape(str(shape))}$"):
        char_poly(np.ones(shape))


def test_char_poly_rejects_large_matrices():
    with pytest.raises(ValueError, match="unsupported"):
        char_poly(np.eye(5))


def test_verify_pole_placement_reference():
    report = verify_pole_placement(REF_GAINS, 1e5)
    assert report["m1_ok"] and report["m2_ok"]
    assert report["max_coeff_error"] < 1e-12


@settings(max_examples=50)
@given(
    lam=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=4, max_size=4),
    mu=st.lists(st.floats(min_value=1e-5, max_value=5.0), min_size=3, max_size=3),
)
def test_verify_pole_placement_property(lam, mu):
    report = verify_pole_placement(gains(lam, mu), 1e5)
    assert report["m1_ok"] and report["m2_ok"]


def test_verify_pole_placement_at_underflowing_flow_poles():
    # At mu = 1e-300 the constant coefficient mu1*mu2*mu3 underflows to 0
    # both in the target and in char_poly(M2). Equal coefficients count no
    # error, with no 0/0 (a RuntimeWarning, an error under pytest).
    report = verify_pole_placement(gains(DEFAULT_LAMBDA, (1e-300,) * 3), 1e5)
    assert report["m1_ok"] and report["m2_ok"]
    assert report["max_coeff_error"] < 1e-12


def test_verify_pole_placement_reports_a_nan_error():
    # At mu = 1e300 the coefficients overflow: the NaN error fails m2_ok
    # and reaches max_coeff_error, which the builtin max would drop.
    report = verify_pole_placement(gains(DEFAULT_LAMBDA, (1e300,) * 3), 1e5)
    assert report["m1_ok"] and not report["m2_ok"]
    assert np.isnan(report["max_coeff_error"])


def test_verify_pole_placement_reads_the_gains_not_only_the_poles():
    # Poles that the gains were not built from fail only their own block.
    report = verify_pole_placement(replace(REF_GAINS, lam=(2.0, 3.0, 4.0, 5.0)), 1e5)
    assert not report["m1_ok"] and report["m2_ok"]
    report = verify_pole_placement(replace(REF_GAINS, mu=(1.0, 2.0, 3.0)), 1e5)
    assert report["m1_ok"] and not report["m2_ok"]


def test_coefficient_error_against_a_zero_target_is_infinite():
    assert _coeff_error(np.array([1.0, 1e-30]), np.array([1.0, 0.0])) == np.inf
    assert _coeff_error(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0


def test_wrong_gain_is_detected():
    broken_K = list(REF_GAINS.K)
    broken_K[2] *= 1.01
    broken = GainSet(lam=REF_GAINS.lam, mu=REF_GAINS.mu, K=tuple(broken_K))
    target = np.array([1.0, 7.0, 17.75, 19.25, 7.5])
    coeffs = char_poly(assemble_m1(broken))
    assert np.max(np.abs(coeffs - target) / target) > 1e-4


# --- measurement guard ------------------------------------------------------


def test_guard_replaces_nonpositive_with_last_positive():
    series = OutputSeries(
        times=np.arange(5.0),
        y1=np.array([1.0, 0.0, 2.0, -1.0, 3.0]),
        y2=np.array([4.0, 5.0, 6.0, 7.0, 8.0]),
    )
    guarded, subs1, subs2 = guard_measurements(series)
    assert np.array_equal(guarded.y1, [1.0, 1.0, 2.0, 2.0, 3.0])
    assert subs1 == 2 and subs2 == 0


def test_guard_uses_smallest_positive_for_bad_start():
    series = OutputSeries(
        times=np.arange(4.0),
        y1=np.array([0.0, 5.0, 2.0, 3.0]),
        y2=np.ones(4),
    )
    guarded, subs1, _ = guard_measurements(series)
    assert guarded.y1[0] == 2.0
    assert subs1 == 1


def _forward_fill_per_sample(y):
    """The guard as a per-sample loop: the reference for the array form."""
    y = y.copy()
    last = float(y[y > 0].min())
    for i in range(y.size):
        if y[i] > 0:
            last = y[i]
        else:
            y[i] = last
    return y


def test_guard_fill_matches_the_per_sample_loop():
    # A leading non-positive run, interior runs and NaN samples.
    y1 = np.array([0.0, -1.0, np.nan, 3.0, 0.0, 0.0, 2.5, np.nan, -4.0, 7.0, 0.0])
    y2 = np.array([np.nan, 1e-300, 0.0, 4.0, -0.0, 6.0, 6.0, 0.0, 9.0, np.nan, 1.0])
    series = OutputSeries(times=np.arange(11.0), y1=y1, y2=y2)
    guarded, subs1, subs2 = guard_measurements(series)
    assert np.array_equal(guarded.y1, [2.5, 2.5, 2.5, 3.0, 3.0, 3.0, 2.5, 2.5, 2.5, 7.0, 7.0])
    assert np.array_equal(guarded.y1, _forward_fill_per_sample(y1))
    assert np.array_equal(guarded.y2, _forward_fill_per_sample(y2))
    assert (subs1, subs2) == (8, 5)


def test_guard_rejects_all_nonpositive():
    series = OutputSeries(times=np.arange(3.0), y1=np.zeros(3), y2=np.ones(3))
    with pytest.raises(MeasurementError):
        guard_measurements(series)


# --- runs on synthetic linear-regime data -----------------------------------

DELTA, RHO = 0.33, 0.1


def linear_series(horizon=10.0, dt=0.01, y1_0=0.7, y2_0=5.0):
    times = np.arange(int(round(horizon / dt)) + 1) * dt
    return linear_regime_series(DELTA, RHO, y1_0, y2_0, times)


def test_run_observer_zero_innovation_fixed_point():
    series = linear_series()
    init = consistent_state(series.y1[0], series.y2[0], DELTA, RHO, DELTA - RHO, 0.0)
    run = run_observer(series, REF_GAINS, 1e5, init, IntegratorConfig(dt=0.01, horizon=10.0))
    states = run.trajectory.states
    assert np.max(np.abs(states[:, 2] - DELTA)) / DELTA < 1e-3
    assert np.max(np.abs(states[:, 3] - RHO)) / RHO < 1e-3
    assert np.max(np.abs(states[:, 5] - (DELTA - RHO))) / (DELTA - RHO) < 1e-3
    assert np.max(np.abs(states[:, 6])) < 1e-6
    # log estimates track the moving truth
    assert np.max(np.abs(states[:, 0] - np.log(series.y1))) < 1e-6


def test_run_observer_log_block_converges_on_linear_data():
    series = linear_series()
    init = ObserverState(
        z1_hat=float(np.log(series.y1[0])),
        z2_hat=float(np.log(series.y2[0])),
        delta_hat=0.2,
        rho_hat=0.05,
        y1_hat=series.y1[0],
        v_hat=0.1,
        k_hat=1.0,
    )
    run = run_observer(series, REF_GAINS, 1e5, init, IntegratorConfig(dt=0.01, horizon=10.0))
    est = run.estimates
    assert abs(est.rho_hat[-1] - RHO) / RHO < 1e-3
    assert abs(run.trajectory.states[-1, 2] - DELTA) / DELTA < 1e-3


def test_flow_block_error_decays_within_its_bound_on_linear_data():
    # Consistent truth on exactly exponential y1 is (y1, v, k) =
    # (y1, delta - rho, 0); errors seeded in the k component must decay
    # at least as fast as exp(-min_mu * integral(y1)) up to 10% slack.
    series = linear_series()
    cfg = IntegratorConfig(dt=0.01, horizon=10.0)
    weight = np.trapezoid(series.y1, series.times)
    bound_factor = 1.1 * np.exp(-min(DEFAULT_MU) * weight)
    for magnitude in (0.5, 1.0, 2.0):
        init = consistent_state(
            series.y1[0], series.y2[0], DELTA, RHO, DELTA - RHO, magnitude
        )
        run = run_observer(series, REF_GAINS, 1e5, init, cfg)
        final = run.trajectory.states[-1]
        e2_final = np.array(
            [final[4] - series.y1[-1], final[5] - (DELTA - RHO), final[6] - 0.0]
        )
        assert np.linalg.norm(e2_final) <= bound_factor * magnitude


def test_flow_block_k_error_bound_mixed_initial_error():
    # The k-component obeys the same weighted-decay bound when the
    # initial error also has a v component.
    series = linear_series()
    cfg = IntegratorConfig(dt=0.01, horizon=10.0)
    weight = np.trapezoid(series.y1, series.times)
    init = consistent_state(series.y1[0], series.y2[0], DELTA, RHO, 0.1, 1.0)
    e2_0 = np.array([0.0, 0.1 - (DELTA - RHO), 1.0])
    run = run_observer(series, REF_GAINS, 1e5, init, cfg)
    final = run.trajectory.states[-1]
    k_err = abs(final[6] - 0.0)
    assert k_err <= 1.1 * np.exp(-min(DEFAULT_MU) * weight) * np.linalg.norm(e2_0)


def test_run_observer_clamp_keeps_running():
    # Start with k far below 4*delta*k so the estimator discriminant
    # clamps; the run must continue and flag those samples.
    series = linear_series(horizon=2.0)
    init = consistent_state(series.y1[0], series.y2[0], DELTA, RHO, DELTA - RHO, 0.5)
    run = run_observer(series, REF_GAINS, 1e5, init, IntegratorConfig(dt=0.01, horizon=2.0))
    assert run.estimates.clamp_active.any()
    assert np.isfinite(run.estimates.beta_hat).all()


def test_run_observer_divergence_reports_time():
    # Poles far beyond the RK4 stability limit at this step blow up.
    series = linear_series(horizon=6.0)
    wild = gains([400.0, 410.0, 420.0, 430.0], DEFAULT_MU)
    init = consistent_state(series.y1[0], series.y2[0], 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DivergenceError) as excinfo:
        run_observer(series, wild, 1e5, init, IntegratorConfig(dt=0.01, horizon=6.0))
    assert excinfo.value.time is not None
    assert excinfo.value.component in range(7)


@pytest.mark.parametrize(
    "spoil, match",
    [
        (lambda t, y1, y2: (t[[0, 1, 2, 3, 4, 6, 5, *range(7, t.size)]], y1, y2), "^times"),
        (lambda t, y1, y2: (np.where(np.arange(t.size) == 3, np.nan, t), y1, y2), "^times"),
        (lambda t, y1, y2: (t, y1[:-3], y2), "^y1"),
    ],
    ids=["swapped times", "nan time", "short y1"],
)
def test_run_observer_rejects_a_record_np_interp_cannot_read(spoil, match):
    # np.interp needs finite, increasing sample times and one value per
    # time; it does not check either.
    series = linear_series(horizon=2.0, dt=0.1)
    times, y1, y2 = spoil(series.times, series.y1, series.y2)
    init = consistent_state(series.y1[0], series.y2[0], DELTA, RHO, DELTA - RHO, 0.0)
    with pytest.raises(ValueError, match=match):
        run_observer(
            OutputSeries(times=times, y1=y1, y2=y2),
            REF_GAINS, 1e5, init, IntegratorConfig(dt=0.1, horizon=2.0),
        )


def test_run_observer_checks_coverage_before_it_guards_the_record():
    # A short record with no positive y1 fails on its coverage, which
    # the record check tests before the guard looks at the samples.
    series = linear_series(horizon=1.0, dt=0.1)
    record = OutputSeries(times=series.times, y1=np.zeros_like(series.y1), y2=series.y2)
    init = consistent_state(0.7, 5.0, DELTA, RHO, DELTA - RHO, 0.0)
    with pytest.raises(ValueError) as excinfo:
        run_observer(record, REF_GAINS, 1e5, init, IntegratorConfig(dt=0.1, horizon=2.0))
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == "input series covers [0, 1] but the integration needs [0, 2]"


_KIND_SERIES = linear_series(horizon=1.0, dt=0.1)
_KIND_INIT = consistent_state(0.7, 5.0, DELTA, RHO, DELTA - RHO, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda kind: _observer_field(REF_GAINS, 1e5, kind),
        lambda kind: observer_rhs(_KIND_INIT, 0.7, 5.0, REF_GAINS, 1e5, kind),
        lambda kind: run_observer(
            _KIND_SERIES, REF_GAINS, 1e5, _KIND_INIT, IntegratorConfig(dt=0.1, horizon=1.0), kind
        ),
    ],
    ids=["_observer_field", "observer_rhs", "run_observer"],
)
def test_observer_entry_points_reject_a_kind_that_is_no_model_kind(call):
    # Each dispatch tests `kind is ModelKind.FULL`, so the string "full"
    # would run the simplified flow block.
    with pytest.raises(ValueError, match="^kind must be a ModelKind, got 'full'$"):
        call("full")


def test_reference_run_characterisation_noise_free():
    # Through the `siqr estimate` pipeline the log block converges and,
    # with the reference flow poles and the full model's outflow term,
    # the flow block carries k_hat to beta^2/alpha within ten days; the
    # estimator discriminant is then positive and beta_hat is read off
    # correctly.
    from siqr.cli import estimate_scenario

    sc = Scenario()
    _, run, _ = estimate_scenario(replace(sc, relative_sigma=0.0))
    est = run.estimates
    k_true = sc.beta**2 / sc.alpha
    assert abs(est.rho_hat[-1] - sc.rho) / sc.rho < 0.05
    assert abs(run.trajectory.states[-1, 2] - (sc.beta - sc.alpha)) < 0.005
    assert abs(run.trajectory.states[-1, 6] - k_true) / k_true < 0.01
    assert not est.clamp_active[-1]
    assert est.beta_hat[-1] == pytest.approx(sc.beta, rel=0.01)


def test_full_flow_block_matches_exact_curvature_on_reference_trajectory():
    # At the true observer state along the full-model reference run the
    # innovations vanish, so the v-row is the modelled curvature alone.
    # The exact one is v' = beta*S*(Q' - beta*I)/(N - Q)^2 with
    # v = beta*S/(N - Q) - rho - alpha. The paper's row (-k*y1/N) drops
    # the quarantine outflow; the full-model row adds it back.
    from siqr.cli import simulate_truth

    sc = Scenario()
    beta, rho, alpha, n = sc.beta, sc.rho, sc.alpha, sc.N
    gs = sc.gain_set()
    worst = {ModelKind.FULL: 0.0, ModelKind.SIMPLIFIED: 0.0}
    for s_, i_, q_, _ in simulate_truth(sc).states:
        y1, y2 = alpha * i_, q_
        v = beta * s_ / (n - q_) - rho - alpha
        x = consistent_state(y1, y2, beta - alpha, rho, v, beta**2 / alpha)
        exact = beta * s_ * ((alpha * i_ - rho * q_) - beta * i_) / (n - q_) ** 2
        for kind in worst:
            row = observer_rhs(x, y1, y2, gs, n, kind)[5]
            worst[kind] = max(worst[kind], abs(row - exact) / abs(exact))
    assert worst[ModelKind.FULL] < 2e-3
    assert worst[ModelKind.SIMPLIFIED] > 0.1


def test_observer_rhs_without_kind_is_the_papers_field():
    # Written out term by term in the field's own order of operations,
    # so the comparison is exact.
    rng = np.random.default_rng(3)
    n = 1e5
    for _ in range(20):
        x = rng.uniform(0.05, 3.0, 7)
        y1, y2 = rng.uniform(0.1, 10.0, 2)
        K = REF_GAINS.K
        iz1, iz2, iy1 = x[0] - np.log(y1), x[1] - np.log(y2), x[4] - y1
        expected = np.array(
            [
                x[2] - x[3] - K[0] * iz1,
                y1 / y2 - x[3] - K[1] * iz1,
                -K[2] * iz1,
                -K[3] * iz1 - iz2,
                x[5] * y1 - K[4] * y1 * iy1,
                -x[6] * y1 / n - K[5] * y1 * iy1,
                -K[6] * n * y1 * iy1,
            ]
        )
        state = ObserverState(*x)
        assert np.array_equal(observer_rhs(state, y1, y2, REF_GAINS, n), expected)
        assert np.array_equal(
            observer_rhs(state, y1, y2, REF_GAINS, n, ModelKind.SIMPLIFIED), expected
        )


def test_full_flow_block_floors_negative_beta_hat():
    # k_hat < 0 makes the estimator map's beta_hat negative; the outflow
    # term then vanishes instead of reversing sign.
    x = consistent_state(0.7, 5.0, 0.33, 0.1, 0.23, -1.0)
    full = observer_rhs(x, 0.7, 5.0, REF_GAINS, 1e5, ModelKind.FULL)
    paper = observer_rhs(x, 0.7, 5.0, REF_GAINS, 1e5)
    assert np.array_equal(full, paper)


@pytest.mark.parametrize(
    "k_hat, delta_hat, disc",
    [(2e154, 1e300, "nan"), (2e154, 0.0, "inf"), (1e154, 1e300, "-inf")],
    ids=["nan", "+inf", "-inf"],
)
def test_full_flow_block_agrees_with_beta_hat_at_a_discriminant_that_is_not_finite(
    k_hat, delta_hat, disc
):
    # k_hat*k_hat - 4*delta_hat*k_hat overflows. The v-row's outflow term
    # uses beta_hat's value and vanishes unless it is positive: a NaN
    # beta_hat adds nothing.
    y1, y2, rho_hat, n = 10.0, 5.0, 0.1, 1e5
    x = consistent_state(y1, y2, delta_hat, rho_hat, 0.23, k_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        assert repr(k_hat * k_hat - 4.0 * delta_hat * k_hat) == disc
        beta = float(beta_hat(k_hat, delta_hat))
        full = observer_rhs(x, y1, y2, REF_GAINS, n, ModelKind.FULL)
        expected = observer_rhs(x, y1, y2, REF_GAINS, n)
    # The body's v-row, in its order of operations.
    curvature = -k_hat * y1 / n
    if beta > 0:
        curvature += beta * (y1 - rho_hat * y2) / n
    expected[5] = curvature - REF_GAINS.K[5] * y1 * (x.y1_hat - y1)
    assert np.array_equal(full, expected)
