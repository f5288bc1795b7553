"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Criteria 4 and 5 run the reference scenario end to end through
`estimate_scenario`, the pipeline behind `siqr estimate`, at their
stated tolerances. Criterion 4 (noise-free) passes: the reference flow
poles act within the ten days and the flow block models the full
model's quarantine outflow. Criterion 5 (5% noise) fails, and the
failure is real and documented, not softened here: with I0 unknown the
data bound alpha's relative spread at about 10.8 (Cramer-Rao, far above
the 0.15 tolerance), the log block's fast poles pass the noise into
rho_hat (0.28 off against a bound of 0.007), and the flow block's gains
(K7*N ~ 1.9e5) pass the noisy y1 innovation into k_hat, which puts
alpha_hat off by about 2e4 relative. Run with
`pytest tests/test_acceptance.py -v -s`.
"""
import time
from dataclasses import replace

import numpy as np

from siqr import (
    EpidemicState,
    IntegratorConfig,
    ModelKind,
    ModelParams,
    ObserverState,
    assemble_m1,
    assemble_m2,
    beta_hat,
    char_poly,
    check_initial_inequalities,
    gains,
    integrate,
    moving_average,
    output_jets,
    recover_full,
    recover_simplified,
    run_observer,
    verify_pole_placement,
)
from siqr.cli import estimate_scenario
from siqr.models import vector_field
from siqr.scenario import DEFAULT_LAMBDA, DEFAULT_MU, Scenario

from synthetic import linear_regime_series


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_pole_placement_exact_algebra():
    start = time.perf_counter()
    gs = gains(DEFAULT_LAMBDA, DEFAULT_MU)
    p1 = char_poly(assemble_m1(gs))
    target1 = np.array([1.0, 7.0, 17.75, 19.25, 7.5])
    err1 = np.max(np.abs(p1 - target1) / target1)
    p2 = char_poly(assemble_m2(gs, 1e5))
    target2 = np.array([1.0, gs.K[4], gs.K[5], -gs.K[6]])
    err2 = np.max(np.abs(p2 - target2) / target2)
    rng = np.random.default_rng(1)
    random_ok = all(
        verify_pole_placement(rng.uniform(0.05, 10.0, 4), rng.uniform(1e-5, 2.0, 3), 1e5)[
            "m1_ok"
        ]
        and verify_pole_placement(
            rng.uniform(0.05, 10.0, 4), rng.uniform(1e-5, 2.0, 3), 1e5
        )["m2_ok"]
        for _ in range(100)
    )
    elapsed = time.perf_counter() - start
    ok = err1 < 1e-12 and err2 < 1e-12 and random_ok and elapsed < 1.0
    assert report(
        1,
        ok,
        f"coeff errors ({err1:.2e}, {err2:.2e}) < 1e-12, "
        f"100 random pole vectors ok={random_ok}, {elapsed:.2f}s",
    )


def _round_trip(kind, recover, n_draws=100):
    rng = np.random.default_rng(7)
    instants = (0.1, 0.5, 1.0, 2.0)
    worst = 0.0
    for _ in range(n_draws):
        alpha = rng.uniform(0.03, 0.3)
        rho = rng.uniform(0.03, 0.3)
        beta = (rho + alpha) * rng.uniform(1.1, 2.5)
        # epsilon within (0, N/100); >= 10 keeps the curvature carrying
        # the parameters above the double-precision floor of the jets.
        epsilon = rng.uniform(10.0, 1000.0)
        params = ModelParams(beta=beta, rho=rho, alpha=alpha, N=1e5)
        x0 = np.array([params.N - epsilon, epsilon, 0.0, 0.0])
        traj = integrate(
            vector_field(kind, params), x0, IntegratorConfig(dt=0.01, horizon=2.0)
        )
        for t in instants:
            i = int(round(t / 0.01))
            state = EpidemicState.from_array(traj.states[i])
            jet = output_jets(state, params, kind, t=t)
            rec = recover(jet, y1_at_0=params.alpha * epsilon, N=params.N)
            worst = max(
                worst,
                abs(rec.rho - rho) / rho,
                abs(rec.alpha - alpha) / alpha,
                abs(rec.beta - beta) / beta,
                abs(rec.epsilon - epsilon) / epsilon,
            )
    return worst


def test_criterion_2_identifiability_round_trip_full():
    start = time.perf_counter()
    worst = _round_trip(ModelKind.FULL, recover_full)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    assert report(
        2, ok, f"full model, 100 draws x 4 instants, worst rel err {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_3_identifiability_round_trip_simplified():
    start = time.perf_counter()
    worst = _round_trip(ModelKind.SIMPLIFIED, recover_simplified)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    assert report(
        3,
        ok,
        f"simplified model, 100 draws x 4 instants, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def _reference_estimation(noisy):
    sc = Scenario()
    traj, run = estimate_scenario(sc if noisy else replace(sc, relative_sigma=0.0))
    return sc, traj, run


def test_criterion_4_reference_noise_free_observer_run():
    start = time.perf_counter()
    sc, traj, run = _reference_estimation(noisy=False)
    est = run.estimates
    rel = {
        "rho": abs(est.rho_hat[-1] - sc.rho) / sc.rho,
        "beta": abs(est.beta_hat[-1] - sc.beta) / sc.beta,
        "alpha": abs(est.alpha_hat[-1] - sc.alpha) / sc.alpha,
    }
    last_day = est.times >= sc.horizon - 1.0
    i_err = np.nanmax(
        np.abs(est.I_hat[last_day] - traj.states[last_day, 1]) / traj.states[last_day, 1]
    )
    elapsed = time.perf_counter() - start
    ok = all(v < 0.05 for v in rel.values()) and i_err < 0.10 and elapsed < 5.0
    assert report(
        4,
        ok,
        "noise-free final rel errors "
        f"rho={rel['rho']:.3f} beta={rel['beta']:.3f} alpha={rel['alpha']:.3f} "
        f"(tol 0.05), last-day I err {i_err:.3f} (tol 0.10), {elapsed:.1f}s",
    )


def test_criterion_5_reference_noisy_observer_run():
    sc, traj, run = _reference_estimation(noisy=True)
    est = run.estimates
    window = est.times >= 8.0
    avg = {
        "rho": float(np.mean(np.abs(est.rho_hat[window] - sc.rho)) / sc.rho),
        "beta": float(np.mean(np.abs(est.beta_hat[window] - sc.beta)) / sc.beta),
        "alpha": float(np.mean(np.abs(est.alpha_hat[window] - sc.alpha)) / sc.alpha),
    }
    smoothed = moving_average(est.I_hat, sc.smooth_window)
    i_rel = np.nanmax(
        np.abs(smoothed[window] - traj.states[window, 1]) / traj.states[window, 1]
    )
    # determinism per seed
    _, _, rerun = _reference_estimation(noisy=True)
    deterministic = np.array_equal(rerun.estimates.beta_hat, est.beta_hat)
    ok = all(v < 0.15 for v in avg.values()) and i_rel < 0.20 and deterministic
    assert report(
        5,
        ok,
        "noisy days 8-10 avg rel errors "
        f"rho={avg['rho']:.3f} beta={avg['beta']:.3f} alpha={avg['alpha']:.3f} "
        f"(tol 0.15), smoothed I err {i_rel:.3f} (tol 0.20), deterministic={deterministic}",
    )


def test_criterion_6_initial_inequality_signs():
    params = ModelParams(beta=0.4, rho=0.1, alpha=0.07, N=1e5)
    out = check_initial_inequalities(params, epsilon=10.0)
    expected_dh1 = 0.4 * 10.0 / 1e5 * (0.07 - 0.4) * (1.0 - 10.0 / 1e5)
    expected_cterm = 0.07 * 0.4 * 0.1 * 10.0**2 * (0.4 - 0.07) * (1.0 - 10.0 / 1e5)
    rel1 = abs(out["dh1_at_0"] - expected_dh1) / abs(expected_dh1)
    rel2 = abs(out["cterm_at_0"] - expected_cterm) / abs(expected_cterm)
    ok = out["dh1_at_0"] < 0 and out["cterm_at_0"] > 0 and rel1 < 1e-6 and rel2 < 1e-6
    assert report(
        6,
        ok,
        f"dh1_at_0={out['dh1_at_0']:.6e} (<0), cterm_at_0={out['cterm_at_0']:.6e} (>0), "
        f"closed-form rel errs ({rel1:.1e}, {rel2:.1e}) < 1e-6",
    )


def test_criterion_7_estimator_round_trip():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.3)
        rho = alpha + rng.uniform(0.0, 0.3)  # assumption: rho >= alpha
        beta = (rho + alpha) * rng.uniform(1.05, 3.0)
        beta_out = beta_hat(beta**2 / alpha, beta - alpha)
        alpha_out = beta_out - (beta - alpha)
        worst = max(worst, abs(beta_out - beta) / beta, abs(alpha_out - alpha) / alpha)
    beta_p = beta_hat(2.285714, 0.33)
    alpha_p = beta_p - 0.33
    pinned_ok = abs(beta_p - 0.4) / 0.4 < 1e-6 and abs(alpha_p - 0.07) / 0.07 < 1e-5
    ok = worst < 1e-12 and pinned_ok
    assert report(
        7,
        ok,
        f"100 random (k, delta) pairs worst rel err {worst:.2e} < 1e-12, "
        f"pinned (2.285714, 0.33) -> ({beta_p:.7f}, {alpha_p:.7f})",
    )


def test_criterion_8_conservation_and_convergence_order():
    sc = Scenario()
    params = sc.params()
    x0 = sc.initial_state()
    traj = integrate(
        vector_field(ModelKind.SIMPLIFIED, params), x0, IntegratorConfig(dt=0.01, horizon=10.0)
    )
    conservation = float(np.max(np.abs(traj.states.sum(axis=1) - params.N)) / params.N)

    fast = ModelParams(beta=4.0, rho=1.0, alpha=0.7, N=1e5)
    field = vector_field(ModelKind.SIMPLIFIED, fast)
    x0_fast = np.array([1e5 - 10.0, 10.0, 0.0, 0.0])
    reference = integrate(field, x0_fast, IntegratorConfig(dt=0.000625, horizon=10.0)).states[-1]
    dts = [0.04, 0.02, 0.01, 0.005]
    errors = [
        np.linalg.norm(
            integrate(field, x0_fast, IntegratorConfig(dt=dt, horizon=10.0)).states[-1]
            - reference
        )
        for dt in dts
    ]
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    ok = conservation < 1e-6 and slope >= 3.5
    assert report(
        8,
        ok,
        f"conservation {conservation:.2e} < 1e-6 over 10 days at dt=0.01, "
        f"observed RK4 order {slope:.2f} >= 3.5",
    )


def test_criterion_9_flow_block_error_decay_bound():
    delta, rho = 0.33, 0.1
    cfg = IntegratorConfig(dt=0.01, horizon=10.0)
    series = linear_regime_series(delta, rho, 0.7, 5.0, cfg.times)
    weight = float(np.trapezoid(series.y1, series.times))
    bound_factor = 1.1 * np.exp(-min(DEFAULT_MU) * weight)
    gs = gains(DEFAULT_LAMBDA, DEFAULT_MU)
    worst_ratio = 0.0
    for magnitude in (0.5, 1.0, 2.0):
        init = ObserverState(
            z1_hat=float(np.log(series.y1[0])),
            z2_hat=float(np.log(series.y2[0])),
            delta_hat=delta,
            rho_hat=rho,
            y1_hat=series.y1[0],
            v_hat=delta - rho,
            k_hat=magnitude,  # consistent truth on exponential data is k = 0
        )
        run = run_observer(series, gs, 1e5, init, cfg)
        final = run.trajectory.states[-1]
        e2_final = np.linalg.norm(
            [final[4] - series.y1[-1], final[5] - (delta - rho), final[6]]
        )
        worst_ratio = max(worst_ratio, e2_final / (bound_factor * magnitude))
    ok = worst_ratio <= 1.0
    assert report(
        9,
        ok,
        f"||e2(T)|| <= 1.1*exp(-min_mu*int y1)*||e2(0)|| for 3 magnitudes, "
        f"worst ratio {worst_ratio:.3f} <= 1",
    )
