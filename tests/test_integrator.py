import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from siqr import (
    DivergenceError,
    DomainError,
    IntegratorConfig,
    ModelKind,
    ModelParams,
    Scenario,
    guard_measurements,
    integrate,
    run_observer,
)
from siqr.cli import make_measurements
from siqr.integrator import _BLOCK_ROWS
from siqr.models import rhs, vector_field
from siqr.observer import _field

REF = ModelParams(beta=0.4, rho=0.1, alpha=0.07, N=1e5)


def test_constant_field_gives_constant_trajectory():
    cfg = IntegratorConfig(dt=0.1, horizon=2.0)
    traj = integrate(lambda x: np.zeros_like(x), np.array([3.0, -1.0]), cfg)
    assert np.all(traj.states == [3.0, -1.0])
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0)


def test_exponential_decay_accuracy():
    cfg = IntegratorConfig(dt=0.01, horizon=1.0)
    traj = integrate(lambda x: [-v for v in x], np.array([1.0]), cfg)
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
        return np.where(np.asarray(x) < 3.0, 0.1, 1e308) * 10.0

    cfg = IntegratorConfig(dt=0.5, horizon=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the loop keeps overflow quiet
        with pytest.raises(
            DivergenceError, match=r"state component 0 became non-finite at t=3\b"
        ) as excinfo:
            integrate(field, np.array([0.0]), cfg)
    assert excinfo.value.time == 3.0
    assert excinfo.value.component == 0


def _array_rk4(field, x0, cfg, inputs=None):
    """RK4 on numpy arrays, one array per stage: the reference that
    `integrate`'s loop over Python floats must equal bitwise."""
    n, dt = cfg.n_steps, cfg.dt
    if inputs is None:
        u_nodes = u_mids = [()] * (n + 1)
    else:
        times, values = inputs

        def rows(at):
            return list(map(tuple, np.column_stack([np.interp(at, times, v) for v in values.T])))

        u_nodes, u_mids = rows(cfg.times), rows(cfg.times[:-1] + 0.5 * dt)
    x = np.asarray(x0, dtype=float)
    states = np.empty((n + 1, x.size))
    states[0] = x
    for i in range(n):
        k1 = field(x, *u_nodes[i])
        k2 = field(x + 0.5 * dt * k1, *u_mids[i])
        k3 = field(x + 0.5 * dt * k2, *u_mids[i])
        k4 = field(x + dt * k3, *u_nodes[i + 1])
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = x
    return states


@pytest.mark.parametrize(
    "kind, dt, horizon",
    [
        (ModelKind.FULL, 0.01, 10.0),
        (ModelKind.SIMPLIFIED, 0.01, 10.0),
        (ModelKind.FULL, 0.004, 10.0),  # 2,500 steps: the last block is partial
        (ModelKind.SIMPLIFIED, 0.01, _BLOCK_ROWS * 0.01),  # exactly one block
    ],
)
def test_model_run_equals_array_rk4_bitwise(kind, dt, horizon):
    cfg = IntegratorConfig(dt=dt, horizon=horizon)
    x0 = [99985.0, 10.0, 5.0, 0.0]
    traj = integrate(vector_field(kind, REF), x0, cfg)

    def array_field(x):
        return np.array(rhs(kind, x.tolist(), REF))

    assert np.array_equal(traj.states, _array_rk4(array_field, x0, cfg))


def test_observer_run_equals_array_rk4_bitwise():
    # The full model with 5% measurement noise, over 2,500 steps: the
    # input rows are interpolated block by block.
    sc = dataclasses.replace(Scenario(), dt=0.004)
    _, _, measurements = make_measurements(sc, noisy=True)
    guarded, _, _ = guard_measurements(measurements)
    init = sc.observer_init(guarded.y1[0], guarded.y2[0])
    cfg, K = sc.integrator_config(), sc.gain_set()
    run = run_observer(measurements, K, sc.N, init, cfg, sc.kind)

    def array_field(x, y1, y2):
        return np.array(_field(x.tolist(), y1, y2, K.K, sc.N, True))

    inputs = (guarded.times, np.column_stack([guarded.y1, guarded.y2]))
    expected = _array_rk4(array_field, init.as_array(), cfg, inputs)
    assert np.array_equal(run.trajectory.states, expected)


def test_steps_are_written_in_blocks_not_kept_as_rows():
    # Python floats cost about 6x the states array when every step is
    # kept as a row; written in blocks, the peak stays near one array.
    cfg = IntegratorConfig(dt=0.001, horizon=20.0)
    tracemalloc.start()
    try:
        traj = integrate(lambda x: [-0.1 * v for v in x], [4.0, 3.0, 2.0, 1.0], cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (20001, 4)
    assert peak < 2 * traj.states.nbytes + 256 * 1024


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
