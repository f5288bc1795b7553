import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from siqr import (
    DomainError,
    EpidemicState,
    IntegratorConfig,
    ModelKind,
    ModelParams,
    check_assumptions,
    integrate,
    r0,
)
from siqr.models import vector_field
from test_integrator import _array_rk4

REF = ModelParams(beta=0.4, rho=0.1, alpha=0.07, N=1e5)
REF_STATE = EpidemicState(S=99985.0, I=10.0, Q=5.0, R=0.0)

rates = st.floats(min_value=1e-3, max_value=2.0, allow_nan=False)
sizes = st.floats(min_value=0.0, max_value=25000.0, allow_nan=False)


@pytest.mark.parametrize("row", [np.zeros(5), [1.0, 2.0, 3.0], np.zeros(0)])
def test_from_array_refuses_a_row_that_is_not_four_numbers(row):
    with pytest.raises(ValueError, match="a state row has 4 entries"):
        EpidemicState.from_array(row)


def test_rhs_simplified_reference_values():
    d = vector_field(ModelKind.SIMPLIFIED, REF)(REF_STATE)
    assert d == pytest.approx([-3.9994, 2.2994, 0.2, 1.5], rel=1e-12)


def test_rhs_full_reference_values():
    d = vector_field(ModelKind.FULL, REF)(REF_STATE)
    assert d[0] == pytest.approx(-0.4 * 99985 * 10 / 99995, rel=1e-12)
    assert d[1] == pytest.approx(0.4 * 99985 * 10 / 99995 - 1.7, rel=1e-12)
    assert d[2] == pytest.approx(0.2, rel=1e-12)
    assert d[3] == pytest.approx(1.5, rel=1e-12)


def test_rhs_conserves_population_at_reference():
    for kind in ModelKind:
        assert np.asarray(vector_field(kind, REF)(REF_STATE)).sum() == 0.0


def test_rhs_no_infected_leaves_only_quarantine_flow():
    state = EpidemicState(S=5e4, I=0.0, Q=120.0, R=30.0)
    for kind in ModelKind:
        d = vector_field(kind, REF)(state)
        assert d == pytest.approx([0.0, 0.0, -REF.rho * 120.0, REF.rho * 120.0])


def test_rhs_full_rejects_q_at_population_size():
    state = EpidemicState(S=0.0, I=1.0, Q=1e5, R=0.0)
    with pytest.raises(DomainError):
        vector_field(ModelKind.FULL, REF)(state)
    # the simplified variant has no such singularity
    vector_field(ModelKind.SIMPLIFIED, REF)(state)


def _written_out(kind, params):
    """The model equations written out term by term, in the order and
    grouping that `vector_field` must keep."""

    def field(x):
        S, I, Q, _ = x
        pool = params.N - Q if kind is ModelKind.FULL else params.N
        return (
            -(params.beta * S * I / pool),
            params.beta * S * I / pool - params.alpha * I - params.rho * I,
            params.alpha * I - params.rho * Q,
            params.rho * I + params.rho * Q,
        )

    return field


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# Uniformly drawn states: every term is nonzero, and regrouping a product
# or a difference of the field changes the last bit for some of them.
_STATES = np.random.default_rng(5).uniform([5e4, 1.0, 0.0, 0.0], [1e5, 3e4, 2e4, 3e4], (200, 4))


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("as_tuple", [True, False], ids=["tuple", "ndarray"])
def test_field_and_rhs_equal_the_written_out_equations_bitwise(kind, as_tuple):
    params = ModelParams(beta=0.37, rho=0.11, alpha=0.067, N=1e5)
    field = vector_field(kind, params)
    expected = _written_out(kind, params)
    for row in _STATES:
        x = tuple(row.tolist()) if as_tuple else row
        assert type(field(x)) is tuple
        assert _bits(field(x)) == _bits(expected(x))


@pytest.mark.parametrize("call", [lambda kind: vector_field(kind, REF)], ids=["vector_field"])
def test_field_rejects_a_kind_that_is_no_model_kind(call):
    # `vector_field` binds `full = kind is ModelKind.FULL`, so the string
    # "full" would bind the simplified model.
    with pytest.raises(ValueError, match="^kind must be a ModelKind, got 'full'$"):
        call("full")


@pytest.mark.parametrize("kind", list(ModelKind))
def test_model_run_equals_array_rk4_over_the_written_out_equations(kind):
    cfg = IntegratorConfig(dt=0.01, horizon=10.0)
    x0 = [99985.0, 10.0, 5.0, 0.0]
    written_out = _written_out(kind, REF)
    traj = integrate(vector_field(kind, REF), x0, cfg)
    assert _bits(traj.states) == _bits(_array_rk4(lambda x: np.array(written_out(x)), x0, cfg))


@given(beta=rates, rho=rates, alpha=rates, S=sizes, I=sizes, Q=sizes, R=sizes)
def test_rhs_conservation_property(beta, rho, alpha, S, I, Q, R):
    params = ModelParams(beta=beta, rho=rho, alpha=alpha, N=1e5)
    state = EpidemicState(S=S, I=I, Q=Q, R=R)
    for kind in ModelKind:
        d = vector_field(kind, params)(state)
        scale = np.abs(d).sum() + 1.0
        assert abs(math.fsum(d)) <= 1e-12 * scale


@given(beta=rates, rho=rates, alpha=rates, S=sizes, I=sizes, R=sizes)
def test_full_matches_simplified_when_quarantine_empty(beta, rho, alpha, S, I, R):
    params = ModelParams(beta=beta, rho=rho, alpha=alpha, N=1e5)
    state = EpidemicState(S=S, I=I, Q=0.0, R=R)
    d_full = vector_field(ModelKind.FULL, params)(state)
    d_simple = vector_field(ModelKind.SIMPLIFIED, params)(state)
    assert np.array_equal(d_full, d_simple)


@given(
    beta=rates,
    rho=rates,
    alpha=rates,
    S=st.floats(min_value=1.0, max_value=25000.0),
    I=st.floats(min_value=1e-6, max_value=25000.0),
    Q=sizes,
)
def test_susceptibles_strictly_decrease_while_infection_active(beta, rho, alpha, S, I, Q):
    params = ModelParams(beta=beta, rho=rho, alpha=alpha, N=1e5)
    state = EpidemicState(S=S, I=I, Q=Q, R=0.0)
    for kind in ModelKind:
        assert vector_field(kind, params)(state)[0] < 0


def test_r0_reference_value():
    assert r0(REF) == pytest.approx(0.4 / 0.17, rel=1e-14)


def test_r0_boundary_cases():
    assert r0(ModelParams(beta=0.17, rho=0.1, alpha=0.07, N=1e5)) == pytest.approx(1.0)
    assert r0(ModelParams(beta=0.2, rho=0.1, alpha=0.1, N=1e5)) == pytest.approx(1.0)


def test_check_assumptions():
    assert check_assumptions(REF) == {"a1": True, "a2": True}
    assert check_assumptions(ModelParams(beta=0.1, rho=0.1, alpha=0.1, N=1e5)) == {
        "a1": False,
        "a2": True,
    }
    assert check_assumptions(ModelParams(beta=0.5, rho=0.05, alpha=0.1, N=1e5)) == {
        "a1": True,
        "a2": False,
    }


@pytest.mark.parametrize("field", ["beta", "rho", "alpha", "N"])
def test_params_must_be_positive(field):
    values = {"beta": 0.4, "rho": 0.1, "alpha": 0.07, "N": 1e5}
    values[field] = 0.0
    with pytest.raises(ValueError, match=field):
        ModelParams(**values)
    values[field] = -1.0
    with pytest.raises(ValueError, match=field):
        ModelParams(**values)


@pytest.mark.parametrize("value", ["0.4", 10**400, np.array([0.1, 0.2])])
def test_params_that_are_no_finite_real_number_name_the_field(value):
    # A string, an int too large for a float and an array of two would
    # raise TypeError or OverflowError naming no field.
    values = {"beta": 0.4, "rho": value, "alpha": 0.07, "N": 1e5}
    with pytest.raises(ValueError, match="^rho must be a finite real number, got "):
        ModelParams(**values)
