import re
import struct

import numpy as np
import pytest

from siqr import (
    DomainError,
    EpidemicState,
    IntegratorConfig,
    ModelKind,
    ModelParams,
    NoiseSpec,
    add_noise,
    integrate,
    moving_average,
    observe,
    output_jets,
)
from siqr.models import vector_field
from siqr.observation import OutputSeries

REF = ModelParams(beta=0.4, rho=0.1, alpha=0.07, N=1e5)
REF_X0 = np.array([99985.0, 10.0, 5.0, 0.0])


def reference_trajectory(kind, dt=0.01, horizon=10.0):
    cfg = IntegratorConfig(dt=dt, horizon=horizon)
    return integrate(vector_field(kind, REF), REF_X0, cfg)


def test_observe_reference_first_sample():
    traj = reference_trajectory(ModelKind.SIMPLIFIED, horizon=1.0)
    series = observe(traj, REF.alpha)
    assert series.y1[0] == pytest.approx(0.7, rel=1e-14)
    assert series.y2[0] == 5.0
    assert np.array_equal(series.y2, traj.states[:, 2])


def test_observe_zero_infected():
    from siqr import Trajectory

    times = np.arange(3) * 0.5
    states = np.column_stack(
        [np.full(3, 5e4), np.zeros(3), np.full(3, 7.0), np.zeros(3)]
    )
    series = observe(Trajectory(times=times, states=states), 0.07)
    assert np.all(series.y1 == 0.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_observe_rejects_alpha_that_is_not_finite_and_positive(alpha):
    # The rule of ModelParams: a nan or inf rate would give non-finite
    # measurements instead of an error.
    traj = reference_trajectory(ModelKind.SIMPLIFIED, horizon=1.0)
    with pytest.raises(ValueError, match="^alpha must be"):
        observe(traj, alpha)


def test_jet_reference_dy2():
    jet = output_jets(EpidemicState(99985, 10, 5, 0), REF, ModelKind.SIMPLIFIED)
    assert jet.dy2 == pytest.approx(0.07 * 10 - 0.1 * 5, rel=1e-14)
    assert (jet.y1 - jet.dy2) / jet.y2 == pytest.approx(0.1, rel=1e-12)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_jet_quarantine_identities_along_trajectory(kind):
    traj = reference_trajectory(kind)
    for i in range(0, traj.states.shape[0], 100):
        state = EpidemicState.from_array(traj.states[i])
        jet = output_jets(state, REF, kind, t=traj.times[i])
        assert jet.dy2 == pytest.approx(jet.y1 - REF.rho * jet.y2, rel=1e-10)
        assert jet.d2y2 == pytest.approx(jet.dy1 - REF.rho * jet.dy2, rel=1e-10)


def _array_jet(state, params, kind, t):
    """The jet from the Taylor recurrence on float64 arrays, as (t, y1,
    ..., d2y2): the oracle for the bits of `output_jets`, which runs the
    recurrence on Python floats in a loop over the orders. Here each
    order's sums are written out left to right on numpy float64 scalars,
    which round every operation once, so no BLAS build changes them."""
    beta, rho, alpha, N = (np.float64(v) for v in (params.beta, params.rho, params.alpha, params.N))
    S, I, Q, G = np.zeros(3), np.zeros(4), np.zeros(3), np.zeros(3)
    S[0], I[0], Q[0] = state[0], state[1], state[2]
    pool0 = N - Q[0]

    def advance(k, si_k, correction):
        # Coefficient k of the field gives coefficient k + 1 of the state.
        if kind is ModelKind.FULL:
            G[k] = (si_k + correction) / pool0
            infection_k = beta * G[k]
        else:
            infection_k = beta * si_k / N
        I[k + 1] = (infection_k - alpha * I[k] - rho * I[k]) / (k + 1)
        if k < 2:
            S[k + 1] = -infection_k / (k + 1)
            Q[k + 1] = (alpha * I[k] - rho * Q[k]) / (k + 1)

    advance(0, S[0] * I[0], 0.0)
    advance(1, S[0] * I[1] + S[1] * I[0], Q[1] * G[0])
    advance(2, S[0] * I[2] + S[1] * I[1] + S[2] * I[0], Q[1] * G[1] + Q[2] * G[0])
    a = alpha
    jet = (t, a * I[0], a * I[1], 2.0 * a * I[2], 6.0 * a * I[3], Q[0], Q[1], 2.0 * Q[2])
    return tuple(float(v) for v in jet)


def _assert_jet_is_the_array_jet(state, params, kind, t=0.0):
    jet = output_jets(state, params, kind, t=t)
    values = tuple(jet)
    assert [type(v) for v in values] == [float] * 8
    # Bit patterns, so that the sign of a zero counts too.
    assert struct.pack("<8d", *values) == struct.pack("<8d", *_array_jet(state, params, kind, t))
    return jet


def _drawn_outbreaks(count=20, horizon=20.0):
    rng = np.random.default_rng(13)
    for j in range(count):
        beta, rho, alpha, log4_n = rng.uniform([0.3, 0.08, 0.05, 0.0], [0.5, 0.12, 0.08, 1.0])
        params = ModelParams(beta=beta, rho=rho, alpha=alpha, N=5e4 * 4.0**log4_n)
        kind = ModelKind.FULL if j % 2 == 0 else ModelKind.SIMPLIFIED
        x0 = [params.N - 15.0, 10.0, 5.0, 0.0]
        cfg = IntegratorConfig(dt=0.01, horizon=horizon)
        yield params, integrate(vector_field(kind, params), x0, cfg)


def test_jets_equal_the_array_recurrence_bitwise_along_drawn_outbreaks():
    for params, traj in _drawn_outbreaks():
        for i in range(0, traj.times.size, 7):
            state = EpidemicState.from_array(traj.states[i])
            for kind in ModelKind:
                _assert_jet_is_the_array_jet(state, params, kind, t=traj.times[i])


_EDGE_STATES = [
    EpidemicState(99995.0, 0.0, 5.0, 0.0),
    EpidemicState(99990.0, 10.0, 0.0, 0.0),
    EpidemicState(1e5, 0.0, 0.0, 0.0),
    EpidemicState(-1.0, 0.0, 5.0, 0.0),
]


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("state", _EDGE_STATES, ids=["I=0", "Q=0", "I=Q=0", "S<0,I=0"])
def test_jets_equal_the_array_recurrence_bitwise_at_edge_states(state, kind):
    jet = _assert_jet_is_the_array_jet(state, REF, kind)
    if state.S < 0:
        # S*I = -0.0. A sum starts from its first product, so a sum of
        # -0.0 terms stays -0.0 (a BLAS sum starts from +0.0 and gave +0.0
        # for the full model's d2y1 and the simplified model's d3y1). The
        # full model's order-0 correction adds +0.0, which makes its dy1
        # +0.0.
        negative_zeros = ["d2y1"] if kind is ModelKind.FULL else ["dy1", "d3y1"]
        for name in ("y1", "dy1", "d2y1", "d3y1"):
            sign = -1.0 if name in negative_zeros else 1.0
            assert struct.pack("<d", getattr(jet, name)) == struct.pack("<d", sign * 0.0), name


def _raise(*args, **kwargs):
    raise AssertionError("numpy.dot called")


@pytest.mark.parametrize("kind", list(ModelKind))
def test_jets_call_no_blas(kind, monkeypatch):
    states = [EpidemicState.from_array(reference_trajectory(kind, horizon=3.0).states[-1])]
    states += _EDGE_STATES
    monkeypatch.setattr(np, "dot", _raise)
    for state in states:
        output_jets(state, REF, kind)


# One state and its jet's eight fields per kind, by exact repr. CPython
# rounds every float operation once (it never contracts a multiply and an
# add into a fused multiply-add), so these digits hold on every platform.
# At this state d3y1 differs in its last digit both when S*I's order-2 sum
# runs right to left and when it is rounded as a chain of fused
# multiply-adds.
_GOLDEN_STATE = EpidemicState(91259.0, 4267.25, 4433.25, 40.5)
_GOLDEN_JETS = [
    (ModelKind.FULL,
     ("2.5", "298.70750000000004", "63.31693032507384", "11.210740898476303",
      "1.146272925375957", "4433.25", "-144.6175", "77.77868032507385")),
    (ModelKind.SIMPLIFIED,
     ("2.5", "298.70750000000004", "58.258715970000004", "9.50136039105799",
      "0.7958807860150314", "4433.25", "-144.6175", "72.72046597")),
]


@pytest.mark.parametrize("kind, expected", _GOLDEN_JETS, ids=["full", "simplified"])
def test_jet_bits_at_a_literal_state(kind, expected):
    jet = output_jets(_GOLDEN_STATE, REF, kind, t=2.5)
    assert tuple(repr(v) for v in jet) == expected


def test_jet_rejects_a_kind_that_is_no_model_kind():
    # The recurrence tests `kind is ModelKind.FULL`, so the string
    # "full" would give the simplified model's jet.
    with pytest.raises(ValueError, match="^kind must be a ModelKind, got 'full'$"):
        output_jets(EpidemicState(99985, 10, 5, 0), REF, "full")


def test_jet_full_kind_rejects_saturated_quarantine():
    with pytest.raises(DomainError):
        output_jets(EpidemicState(0, 1, 1e5, 0), REF, ModelKind.FULL)


def _third_derivative_stencil(y, i, h):
    # Central 4th-order stencil for f''' (offsets -3..3).
    return (
        -(y[i + 3] - y[i - 3]) / 8.0
        + (y[i + 2] - y[i - 2])
        - 13.0 * (y[i + 1] - y[i - 1]) / 8.0
    ) / h**3


def test_third_derivative_stencil_on_known_functions():
    h = 1e-3
    x = np.arange(-5, 6) * h
    assert _third_derivative_stencil(x**3, 5, h) == pytest.approx(6.0, rel=1e-9)
    assert _third_derivative_stencil(np.exp(x), 5, h) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_jet_third_derivative_matches_finite_differences(kind):
    dt = 1e-3
    traj = reference_trajectory(kind, dt=dt, horizon=2.0)
    y1 = REF.alpha * traj.states[:, 1]
    i = 1000  # t = 1.0
    fd = _third_derivative_stencil(y1, i, dt)
    jet = output_jets(EpidemicState.from_array(traj.states[i]), REF, kind)
    assert abs(jet.d3y1 - fd) / abs(fd) < 1e-4


@pytest.mark.parametrize("kind", list(ModelKind))
def test_growth_rate_stays_within_linear_regime_bound(kind):
    # |dy1/y1 - (delta - rho)| <= beta * (1 - S/N) along the reference run.
    traj = reference_trajectory(kind)
    delta = REF.beta - REF.alpha
    for i in range(0, traj.states.shape[0], 50):
        state = EpidemicState.from_array(traj.states[i])
        jet = output_jets(state, REF, kind)
        lhs = abs(jet.dy1 / jet.y1 - (delta - REF.rho))
        bound = REF.beta * (1.0 - state.S / REF.N)
        assert lhs <= bound * (1 + 1e-12) + 1e-15


def test_add_noise_zero_sigma_is_identity():
    series = OutputSeries(
        times=np.arange(5.0), y1=np.arange(5.0) + 1.0, y2=np.arange(5.0) + 2.0
    )
    out = add_noise(series, NoiseSpec(relative_sigma=0.0, seed=7))
    assert np.array_equal(out.y1, series.y1)
    assert np.array_equal(out.y2, series.y2)


def test_add_noise_is_deterministic_per_seed():
    series = OutputSeries(
        times=np.arange(100.0), y1=np.linspace(1, 9, 100), y2=np.linspace(2, 5, 100)
    )
    spec = NoiseSpec(relative_sigma=0.05, seed=123)
    a = add_noise(series, spec)
    b = add_noise(series, spec)
    assert np.array_equal(a.y1, b.y1)
    assert np.array_equal(a.y2, b.y2)
    c = add_noise(series, NoiseSpec(relative_sigma=0.05, seed=124))
    assert not np.array_equal(a.y1, c.y1)


def test_add_noise_standard_deviation_scale():
    n = 10_000
    series = OutputSeries(
        times=np.arange(float(n)), y1=np.full(n, 100.0), y2=np.full(n, 100.0)
    )
    out = add_noise(series, NoiseSpec(relative_sigma=0.05, seed=0))
    assert 4.8 <= out.y1.std() <= 5.2
    assert 4.8 <= out.y2.std() <= 5.2


def test_add_noise_clamps_at_zero():
    series = OutputSeries(times=np.arange(200.0), y1=np.full(200, 1.0), y2=np.full(200, 1.0))
    out = add_noise(series, NoiseSpec(relative_sigma=5.0, seed=3))
    assert out.y1.min() >= 0.0
    assert out.y2.min() >= 0.0


def test_moving_average_window_one_is_identity():
    x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    assert np.array_equal(moving_average(x, 1), x)


def test_moving_average_constant_series_unchanged():
    x = np.full(11, 2.5)
    assert moving_average(x, 5) == pytest.approx(x)


def test_moving_average_reference_values():
    out = moving_average(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), 3)
    assert out == pytest.approx([0.5, 1.0, 2.0, 3.0, 3.5])


def test_moving_average_rejects_even_window():
    with pytest.raises(ValueError, match="odd"):
        moving_average(np.arange(10.0), 4)


@pytest.mark.parametrize("window", [3.0, np.float64(3.0)], ids=["float", "np.float64"])
def test_moving_average_rejects_a_window_that_is_no_integer(window):
    with pytest.raises(ValueError, match=re.escape(f"window must be an integer, got {window!r}")):
        moving_average(np.arange(10.0), window)


def test_moving_average_takes_a_numpy_integer_window():
    x = np.arange(10.0)
    assert np.array_equal(moving_average(x, np.int64(3)), moving_average(x, 3))


def test_moving_average_skips_nan_samples():
    x = np.array([1.0, np.nan, 3.0, 5.0, 7.0])
    out = moving_average(x, 3)
    assert out[0] == pytest.approx(1.0)  # only the finite neighbour counts
    assert out[1] == pytest.approx(2.0)
    assert out[2] == pytest.approx(4.0)
