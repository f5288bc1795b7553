import warnings

import numpy as np
import pytest

from siqr import (
    DivergenceError,
    DomainError,
    IntegratorConfig,
    ModelKind,
    ModelParams,
    integrate,
)
from siqr.models import vector_field

REF = ModelParams(beta=0.4, rho=0.1, alpha=0.07, N=1e5)


def test_constant_field_gives_constant_trajectory():
    cfg = IntegratorConfig(dt=0.1, horizon=2.0)
    traj = integrate(lambda x: np.zeros_like(x), np.array([3.0, -1.0]), cfg)
    assert np.all(traj.states == [3.0, -1.0])
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0)


def test_exponential_decay_accuracy():
    cfg = IntegratorConfig(dt=0.01, horizon=1.0)
    traj = integrate(lambda x: -x, np.array([1.0]), cfg)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8


def test_reference_run_conserves_population():
    cfg = IntegratorConfig(dt=0.01, horizon=10.0)
    x0 = np.array([99985.0, 10.0, 5.0, 0.0])
    traj = integrate(vector_field(ModelKind.SIMPLIFIED, REF), x0, cfg)
    totals = traj.states.sum(axis=1)
    assert np.max(np.abs(totals - 1e5)) / 1e5 < 1e-6


def test_domain_error_carries_time():
    bad_state = np.array([0.0, 1.0, 2e5, 0.0])
    cfg = IntegratorConfig(dt=0.01, horizon=1.0)
    with pytest.raises(DomainError, match=r"t=0"):
        integrate(vector_field(ModelKind.FULL, REF), bad_state, cfg)


def test_driven_constant_input_is_exact():
    cfg = IntegratorConfig(dt=0.05, horizon=1.0)
    times = cfg.times
    inputs = np.full((times.size, 1), 2.5)
    traj = integrate(lambda x, u: np.array([u]), np.array([1.0]), cfg, inputs=(times, inputs))
    assert traj.states[-1, 0] == pytest.approx(1.0 + 2.5 * 1.0, rel=1e-12)


def test_driven_ramp_input_integrates_exactly():
    cfg = IntegratorConfig(dt=0.01, horizon=1.0)
    times = cfg.times
    inputs = times.reshape(-1, 1)
    traj = integrate(lambda x, u: np.array([u]), np.array([0.0]), cfg, inputs=(times, inputs))
    assert np.max(np.abs(traj.states[:, 0] - 0.5 * times**2)) < 1e-10


def test_driven_rejects_short_input_series():
    cfg = IntegratorConfig(dt=0.1, horizon=2.0)
    times = np.arange(11) * 0.1  # covers only [0, 1]
    inputs = np.zeros((11, 1))
    with pytest.raises(ValueError, match="input series"):
        integrate(lambda x, u: np.array([u]), np.array([0.0]), cfg, inputs=(times, inputs))


def test_overflow_raises_divergence_at_first_non_finite_step():
    # x' = 1 while the stage state is below 3, then a value that
    # overflows: the step from t = 2.5 evaluates its last stage at x = 3,
    # so t = 3 is the first step whose state is not finite.
    def field(x):
        return np.where(x < 3.0, 0.1, 1e308) * 10.0

    cfg = IntegratorConfig(dt=0.5, horizon=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the loop keeps overflow quiet
        with pytest.raises(
            DivergenceError, match=r"state component 0 became non-finite at t=3\b"
        ) as excinfo:
            integrate(field, np.array([0.0]), cfg)
    assert excinfo.value.time == 3.0
    assert excinfo.value.component == 0


def test_rk4_observed_order_at_least_3_5():
    # Fast epidemic wave so truncation error dominates roundoff on
    # the prescribed step sizes.
    params = ModelParams(beta=4.0, rho=1.0, alpha=0.7, N=1e5)
    field = vector_field(ModelKind.SIMPLIFIED, params)
    x0 = np.array([1e5 - 10.0, 10.0, 0.0, 0.0])
    reference = integrate(x0=x0, rhs=field, cfg=IntegratorConfig(dt=0.000625, horizon=10.0)).states[-1]
    dts = [0.04, 0.02, 0.01, 0.005]
    errors = [
        np.linalg.norm(
            integrate(field, x0, IntegratorConfig(dt=dt, horizon=10.0)).states[-1]
            - reference
        )
        for dt in dts
    ]
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope >= 3.5


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.5, horizon=0.1)
    cfg = IntegratorConfig(dt=0.01, horizon=10.0)
    assert cfg.n_steps == 1000
    assert cfg.times.size == 1001
