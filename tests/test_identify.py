import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siqr import (
    DegenerateInputError,
    EpidemicState,
    IntegratorConfig,
    ModelKind,
    ModelParams,
    OutputJet,
    RegimeError,
    RootSelectionError,
    SingularPointError,
    check_initial_inequalities,
    integrate,
    output_jets,
    recover_full,
    recover_simplified,
)
from siqr.identify import RecoveredParams, _chain
from siqr.models import vector_field

REF = ModelParams(beta=0.4, rho=0.1, alpha=0.07, N=1e5)


def outbreak_state(params, epsilon):
    return np.array([params.N - epsilon, epsilon, 0.0, 0.0])


def jet_at(params, kind, t, x0, dt=0.01):
    cfg = IntegratorConfig(dt=dt, horizon=t)
    traj = integrate(vector_field(kind, params), x0, cfg)
    state = EpidemicState.from_array(traj.states[-1])
    return output_jets(state, params, kind, t=t), traj


@pytest.mark.parametrize(
    "kind, recover",
    [(ModelKind.FULL, recover_full), (ModelKind.SIMPLIFIED, recover_simplified)],
    ids=["full", "simplified"],
)
def test_recover_rho_exact_on_analytic_jet(kind, recover):
    jet = output_jets(EpidemicState(99985, 10, 5, 0), REF, kind)
    rec = recover(jet, y1_at_0=0.7, N=REF.N)
    assert rec.rho == (jet.y1 - jet.dy2) / jet.y2
    assert rec.rho == pytest.approx(0.1, rel=1e-12)


@pytest.mark.parametrize("recover", [recover_full, recover_simplified], ids=["full", "simplified"])
def test_recover_rho_singular_at_empty_quarantine(recover):
    jet = OutputJet(t=0.0, y1=0.7, dy1=0.0, d2y1=0.0, d3y1=0.0, y2=0.0, dy2=0.2, d2y2=0.0)
    message = r"^rho recovery needs y2 > 0, got y2=0\.0 \(t=0\.0\)$"
    with pytest.raises(SingularPointError, match=message):
        recover(jet, y1_at_0=0.7, N=1e5)


@pytest.mark.parametrize(
    "kind, recover",
    [(ModelKind.FULL, recover_full), (ModelKind.SIMPLIFIED, recover_simplified)],
    ids=["full", "simplified"],
)
def test_recover_rho_is_time_invariant(kind, recover):
    values = []
    for t in (0.5, 3.0):
        jet, _ = jet_at(REF, kind, t, outbreak_state(REF, 10.0))
        values.append(recover(jet, y1_at_0=0.7, N=REF.N).rho)
    assert values[0] == pytest.approx(values[1], rel=1e-9)


@pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
def test_recover_full_round_trip_reference(t):
    jet, _ = jet_at(REF, ModelKind.FULL, t, outbreak_state(REF, 10.0))
    rec = recover_full(jet, y1_at_0=REF.alpha * 10.0, N=REF.N)
    assert rec.rho == pytest.approx(0.1, rel=1e-6)
    assert rec.alpha == pytest.approx(0.07, rel=1e-6)
    assert rec.beta == pytest.approx(0.4, rel=1e-6)
    assert rec.epsilon == pytest.approx(10.0, rel=1e-6)


def test_recover_full_round_trip_second_parameter_set():
    params = ModelParams(beta=0.6, rho=0.2, alpha=0.05, N=1e6)
    jet, _ = jet_at(params, ModelKind.FULL, 0.5, outbreak_state(params, 50.0))
    rec = recover_full(jet, y1_at_0=params.alpha * 50.0, N=params.N)
    assert rec.rho == pytest.approx(0.2, rel=1e-6)
    assert rec.alpha == pytest.approx(0.05, rel=1e-6)
    assert rec.beta == pytest.approx(0.6, rel=1e-6)
    assert rec.epsilon == pytest.approx(50.0, rel=1e-6)


def test_recover_full_handles_nonempty_initial_quarantine():
    # Reference scenario stores five people in quarantine at t = 0; the
    # recovery formulas are local and must not care.
    x0 = np.array([99985.0, 10.0, 5.0, 0.0])
    jet, _ = jet_at(REF, ModelKind.FULL, 1.0, x0)
    rec = recover_full(jet, y1_at_0=0.7, N=REF.N)
    assert rec.beta == pytest.approx(0.4, rel=1e-6)
    assert rec.epsilon == pytest.approx(10.0, rel=1e-6)


def test_selected_root_matches_trajectory_identity():
    # The admissible root is X = dy2 - beta*I with the generating beta.
    for t in (0.5, 1.5):
        jet, traj = jet_at(REF, ModelKind.FULL, t, outbreak_state(REF, 10.0))
        rec = recover_full(jet, y1_at_0=0.7, N=REF.N)
        x_from_rec = jet.dy2 - rec.beta * (jet.y1 / rec.alpha)
        x_true = jet.dy2 - REF.beta * traj.states[-1, 1]
        assert x_from_rec == pytest.approx(x_true, rel=1e-8)
        assert x_from_rec < 0


def test_beta_routes_agree():
    # beta from the time-t identity equals alpha - X(0)/epsilon, with
    # X(0) evaluated from the jet at the outbreak state itself.
    epsilon = 10.0
    jet, _ = jet_at(REF, ModelKind.FULL, 1.0, outbreak_state(REF, epsilon))
    rec = recover_full(jet, y1_at_0=REF.alpha * epsilon, N=REF.N)
    state0 = EpidemicState.from_array(outbreak_state(REF, epsilon))
    jet0 = output_jets(state0, REF, ModelKind.FULL)
    # At Q(0) = 0 _chain refuses the jet (y2 = 0), but the quadratic's
    # coefficients are defined. h1, dh1 and ddh1 do not read y2, so
    # _chain gives them with y2 replaced; h2 and dh2 are written out.
    # recover_full's round-trip tests cover _chain's own arithmetic.
    _, h1, dh1, ddh1, _, _ = _chain(*jet0._replace(y2=1.0), REF.N)
    h2 = (REF.N - jet0.y2) * dh1
    dh2 = -jet0.dy2 * dh1 + (REF.N - jet0.y2) * ddh1
    a_coef = dh1
    b_coef = h2 * h1 - dh2
    c_coef = h2 * (-h1 * jet0.dy2 + jet0.d2y2)
    roots = np.roots([a_coef, b_coef, c_coef])
    x0 = roots[roots < 0]
    assert x0.size == 1
    beta_alt = rec.alpha - float(x0[0]) / rec.epsilon
    assert beta_alt == pytest.approx(rec.beta, rel=1e-9)


@pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
def test_recover_simplified_round_trip_reference(t):
    jet, _ = jet_at(REF, ModelKind.SIMPLIFIED, t, outbreak_state(REF, 10.0))
    rec = recover_simplified(jet, y1_at_0=0.7, N=REF.N)
    assert rec.rho == pytest.approx(0.1, rel=1e-6)
    assert rec.alpha == pytest.approx(0.07, rel=1e-6)
    assert rec.beta == pytest.approx(0.4, rel=1e-6)
    assert rec.epsilon == pytest.approx(10.0, rel=1e-6)


def test_simplified_flow_identity_along_trajectory():
    # The inferred infection flow beta*I matches the trajectory values.
    # Tolerance 1e-7: the flow is carried by a curvature term ~1e-10 of
    # the jet magnitudes, so ~1e-8 relative is the double-precision
    # floor here.
    cfg = IntegratorConfig(dt=0.01, horizon=10.0)
    traj = integrate(
        vector_field(ModelKind.SIMPLIFIED, REF), outbreak_state(REF, 10.0), cfg
    )
    for i in range(10, traj.states.shape[0], 100):
        state = EpidemicState.from_array(traj.states[i])
        jet = output_jets(state, REF, ModelKind.SIMPLIFIED, t=traj.times[i])
        rec = recover_simplified(jet, y1_at_0=0.7, N=REF.N)
        flow = rec.beta * jet.y1 / rec.alpha
        assert flow == pytest.approx(REF.beta * state.I, rel=1e-7)


def test_recover_simplified_at_epidemic_peak():
    # I' = 0 exactly when S = N (rho + alpha) / beta; recovery still works.
    s_peak = REF.N * (REF.rho + REF.alpha) / REF.beta
    state = EpidemicState(S=s_peak, I=500.0, Q=300.0, R=REF.N - s_peak - 800.0)
    jet = output_jets(state, REF, ModelKind.SIMPLIFIED)
    assert jet.dy1 == 0.0
    rec = recover_simplified(jet, y1_at_0=0.7, N=REF.N)
    assert rec.alpha == pytest.approx(0.07, rel=1e-6)
    assert rec.beta == pytest.approx(0.4, rel=1e-6)
    assert rec.epsilon == pytest.approx(10.0, rel=1e-6)


def test_recover_simplified_rejects_positive_dh1():
    jet = OutputJet(t=1.0, y1=1.0, dy1=1.0, d2y1=2.0, d3y1=0.0, y2=1.0, dy2=0.9, d2y2=0.0)
    with pytest.raises(RegimeError):
        recover_simplified(jet, y1_at_0=1.0, N=1e5)


_JET_FIELDS = ("t", "y1", "dy1", "d2y1", "d3y1", "y2", "dy2", "d2y2")


_FINITE_JET = OutputJet(t=2.5, y1=0.7, dy1=0.1, d2y1=0.02, d3y1=0.003, y2=5.0, dy2=0.2, d2y2=0.01)


@pytest.mark.parametrize("recover", [recover_full, recover_simplified])
@pytest.mark.parametrize("entry", _JET_FIELDS[1:])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_recovery_rejects_a_jet_entry_that_is_not_finite(recover, entry, value):
    # Without the check, y1 = nan gives nan rates from recover_simplified
    # and an "ambiguous root selection" from recover_full. Every entry is
    # a case: one left out of the recoveries' one-product check would
    # reach the chain or the rates and raise another message.
    jet = _FINITE_JET._replace(**{entry: value})
    message = rf"^jet entry {entry} must be finite, got .* \(t=2\.5\)$"
    with pytest.raises(DegenerateInputError, match=message):
        recover(jet, y1_at_0=0.7, N=1e5)


@pytest.mark.parametrize("recover", [recover_full, recover_simplified])
@pytest.mark.parametrize("entry", ("y1", "dy1", "d2y2"))
def test_recovery_names_a_non_finite_entry_before_refusing_y2(recover, entry):
    # The finiteness check comes first: with y2 = 0 as well, the jet is
    # refused for its non-finite entry, not for y2.
    jet = _FINITE_JET._replace(y2=0.0, **{entry: float("nan")})
    message = rf"^jet entry {entry} must be finite, got nan \(t=2\.5\)$"
    with pytest.raises(DegenerateInputError, match=message):
        recover(jet, y1_at_0=0.7, N=1e5)


@pytest.mark.parametrize("recover", [recover_full, recover_simplified])
def test_recovery_refuses_y2_before_y1(recover):
    # rho's y2 > 0 comes before the chain's y1 > 0.
    jet = _FINITE_JET._replace(y1=0.0, y2=0.0)
    message = r"^rho recovery needs y2 > 0, got y2=0\.0 \(t=2\.5\)$"
    with pytest.raises(SingularPointError, match=message):
        recover(jet, y1_at_0=0.7, N=1e5)


@pytest.mark.parametrize("recover", [recover_full, recover_simplified])
def test_recovery_refuses_y1_once_y2_is_positive(recover):
    jet = _FINITE_JET._replace(y1=0.0)
    message = r"^log-derivative chain needs y1 > 0, got y1=0\.0 \(t=2\.5\)$"
    with pytest.raises(SingularPointError, match=message):
        recover(jet, y1_at_0=0.7, N=1e5)


@pytest.mark.parametrize("recover", [recover_full, recover_simplified])
def test_recovery_rejects_a_log_derivative_that_overflows_its_cube(recover):
    # dy1/y1 = 1e103: its cube, a float product, overflows to inf, and
    # the chain's one-product check catches the infinite ddh1 and dh2.
    jet = _FINITE_JET._replace(y1=1.0, dy1=1e103, d2y1=-1.0, d3y1=0.0)
    message = r"^log-derivative chain overflows, dy1/y1=1e\+103 \(t=2\.5\)$"
    with pytest.raises(DegenerateInputError, match=message):
        recover(jet, y1_at_0=0.7, N=1e5)


# Finite jets whose log-derivative ratios overflow. Without the checks,
# recover_simplified returns nan or infinite rates on the first two and
# recover_full reports an ambiguous root selection among [nan, nan].
_OVERFLOWING_JETS = [
    # dy1/y1 = inf, so ddh1 = inf - inf + inf.
    OutputJet(1.0, 1e-300, 1e10, 1e10, 1e10, 5.0, 0.1, 0.01),
    # A finite chain: beta overflows, and so does the quadratic's discriminant.
    OutputJet(1.0, 1e-200, -1e-100, 1e-50, 1e-10, 5.0, 0.1, 0.01),
    # dy1/y1 = -inf, so dh2 = inf - inf.
    OutputJet(1.0, 1e-300, -1e10, -1e10, -1e10, 5.0, 0.1, 0.01),
]


@pytest.mark.parametrize("recover", [recover_full, recover_simplified])
@pytest.mark.parametrize("jet", _OVERFLOWING_JETS, ids=["dy1/y1=inf", "beta=-inf", "dy1/y1=-inf"])
def test_recovery_rejects_a_finite_jet_whose_ratios_overflow(recover, jet):
    with pytest.raises(DegenerateInputError, match=r"overflows.*\(t=1\.0\)$"):
        recover(jet, y1_at_0=0.7, N=1e5)


@pytest.mark.parametrize(
    "jet, match",
    [
        # dh1 = -1 and 4*a1*a2 - 3*a1*a1*a1 - a3 = 0, so beta*I = 0.
        (OutputJet(t=1.0, y1=1.0, dy1=0.0, d2y1=-1.0, d3y1=0.0, y2=1.0, dy2=0.5, d2y2=0.0),
         r"beta\*I vanishes"),
        # beta*I = 2 and alpha = 1/2 - rho with rho = (1 - 0.5)/1.
        (OutputJet(t=1.0, y1=1.0, dy1=0.0, d2y1=-1.0, d3y1=2.0, y2=1.0, dy2=0.5, d2y2=0.0),
         "alpha vanishes"),
    ],
    ids=["beta*I = 0", "alpha = 0"],
)
def test_recover_simplified_rejects_a_zero_divisor(jet, match):
    with pytest.raises(DegenerateInputError, match=match):
        recover_simplified(jet, y1_at_0=0.7, N=1.0)


# Finite jets that no SIQR trajectory has, at which each recovery fails
# at a different check.
_UNUSABLE_JETS = [
    *(
        (recover, OutputJet(1.0, y1, 1.0, 1.0, 1.0, 5.0, 0.1, 0.01), SingularPointError,
         rf"^log-derivative chain needs y1 > 0, got y1={y1!r} \(t=1\.0\)$")
        for recover in (recover_full, recover_simplified)
        for y1 in (0.0, -1.0)
    ),
    # a1 = a2 = a3 = 1: dh1 = ddh1 = 0, so A = B = C = 0.
    (recover_full, OutputJet(1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 0.1, 0.01), DegenerateInputError,
     "^recovery quadratic vanished identically$"),
    # As above with d3y1 = 2: A = C = 0, and the one root -C/B is -0.0.
    (recover_full, OutputJet(1.0, 1.0, 1.0, 1.0, 2.0, 5.0, 0.1, 0.01), RootSelectionError,
     r"^no negative root with positive rates among \[-0\.0\]$"),
    (recover_full, OutputJet(1.0, 1.0, -1.0, 0.5, 1.0, 5.0, -1.0, 2.0), DegenerateInputError,
     r"^recovery quadratic has no real root \(discriminant -99994\.75\)$"),
    # The positive root fails x < 0; the negative one implies beta < 0.
    (recover_full, OutputJet(1.0, 1.0, -2.0, -2.0, -2.0, 5.0, -2.0, -2.0), RootSelectionError,
     r"^no negative root with positive rates among \[699967\.857\d*, -0\.857\d*\]$"),
]


@pytest.mark.parametrize(
    "recover, jet, error, match",
    _UNUSABLE_JETS,
    ids=["full y1=0", "full y1<0", "simplified y1=0", "simplified y1<0",
         "vanished quadratic", "root -0.0", "negative discriminant", "beta<0 root"],
)
def test_recovery_rejects_an_unusable_jet(recover, jet, error, match):
    with pytest.raises(error, match=match):
        recover(jet, y1_at_0=0.7, N=1e5)


@pytest.mark.parametrize(
    "recover, jet, rates",
    [
        (recover_full, OutputJet(1.0, 1.0, -1.0, 0.5, 1.0, 5.0, 2.0, -2.0),
         r"rho=-0\.2, alpha=24999\.95, beta=99999\.8, "),
        (recover_simplified, OutputJet(1.0, 1.0, -2.0, -2.0, -2.0, 5.0, -2.0, -2.0),
         r"rho=0\.6, alpha=0\.5428571428571428, beta=-380000\.0, "),
    ],
    ids=["full rho<0", "simplified beta<0"],
)
def test_recovery_rejects_rates_that_are_not_positive(recover, jet, rates):
    # Finite rates that no epidemic has: the full route's root filter
    # checks alpha and beta but not rho, and the simplified route has no
    # filter.
    message = rf"^recovered rates must be positive, got RecoveredParams\({rates}.*\(t=1\.0\)$"
    with pytest.raises(RegimeError, match=message):
        recover(jet, y1_at_0=0.7, N=1e5)


def test_recover_simplified_rejects_the_rates_of_a_dying_outbreak():
    # R0 = 0.1 / 0.55 < 1: on day 15 the simplified jet gives alpha < 0.
    params = ModelParams(beta=0.1, rho=0.5, alpha=0.05, N=1e5)
    x0 = [params.N - 15.0, 10.0, 5.0, 0.0]
    jet, _ = jet_at(params, ModelKind.SIMPLIFIED, 15.0, x0)
    with pytest.raises(RegimeError, match=r"alpha=-0\.08288410119061247, "):
        recover_simplified(jet, y1_at_0=params.alpha * 10.0, N=params.N)


# Jets of the reference outbreak (I0 = 10, Q0 = 0, dt = 0.01) at t = 3,
# written out, so that no BLAS sum plays a part: recovery runs on Python
# floats and `math.sqrt` only, and these are its bits.
_LITERAL_JETS = [
    (recover_full,
     OutputJet(3.0, 1.3953257181659284, 0.32078749994159633, 0.0737113446221819,
               0.016919724046432664, 2.6573948047927427, 1.1295862376866541,
               0.20782887617293092),
     ("0.10000000000000002", "0.07000000000038585", "0.4000000000018978", "9.999999999944878")),
    (recover_simplified,
     OutputJet(3.0, 1.3953052588194097, 0.32076797030873855, 0.07369714685896418,
               0.016911624272533395, 2.6573791157201163, 1.1295673472473982,
               0.20781123558399872),
     ("0.09999999999999996", "0.07000000102910081", "0.4000000048510691", "9.9999998529856")),
]


@pytest.mark.parametrize("recover, jet, expected", _LITERAL_JETS, ids=["full", "simplified"])
def test_recovery_bits_on_a_literal_jet(recover, jet, expected):
    rec = recover(jet, y1_at_0=0.7, N=1e5)
    assert tuple(repr(v) for v in rec) == expected


@pytest.mark.parametrize("recover, jet", [case[:2] for case in _LITERAL_JETS],
                         ids=["full", "simplified"])
def test_recovery_of_numpy_float64_entries_returns_the_same_python_floats(recover, jet):
    # Arithmetic on np.float64 entries gives np.float64 values; the
    # recoveries convert each rate to a Python float, with the same bits.
    numpy_jet = OutputJet(*np.array(jet))
    assert [type(v) for v in numpy_jet] == [np.float64] * 8
    rec = recover(numpy_jet, y1_at_0=0.7, N=1e5)
    assert type(rec) is RecoveredParams
    assert [type(v) for v in rec] == [float] * 4
    assert [repr(v) for v in rec] == [repr(v) for v in recover(jet, y1_at_0=0.7, N=1e5)]


@pytest.mark.parametrize(
    "cls, value, fields",
    [
        (OutputJet, _FINITE_JET, _JET_FIELDS),
        (OutputJet, output_jets(EpidemicState(99985, 10, 5, 0), REF, ModelKind.FULL, t=1),
         _JET_FIELDS),
        (RecoveredParams, recover_full(_LITERAL_JETS[0][1], 0.7, 1e5),
         ("rho", "alpha", "beta", "epsilon")),
    ],
    ids=["OutputJet", "output_jets", "RecoveredParams"],
)
def test_recovery_values_are_tuples_of_floats_in_field_order(cls, value, fields):
    assert type(value) is cls and isinstance(value, tuple)
    assert cls._fields == fields
    assert tuple(value) == tuple(getattr(value, name) for name in fields)
    assert [type(v) for v in value] == [float] * len(fields)


# epsilon >= 10: below ~10 seeded individuals at N = 1e5 the curvature
# carrying the parameter information drops to ~1e-10 of the jet terms,
# so double precision cannot support a 1e-6 round trip.
params_strategy = st.tuples(
    st.floats(min_value=0.03, max_value=0.3),  # alpha
    st.floats(min_value=0.03, max_value=0.3),  # rho
    st.floats(min_value=1.2, max_value=2.5),  # R0 multiplier
    st.floats(min_value=10.0, max_value=500.0),  # epsilon
    st.floats(min_value=0.1, max_value=2.0),  # t
)


@settings(max_examples=25, deadline=None)
@given(params_strategy)
def test_recover_full_round_trip_property(draw):
    alpha, rho, multiplier, epsilon, t = draw
    params = ModelParams(beta=(rho + alpha) * multiplier, rho=rho, alpha=alpha, N=1e5)
    jet, _ = jet_at(params, ModelKind.FULL, t, outbreak_state(params, epsilon))
    rec = recover_full(jet, y1_at_0=params.alpha * epsilon, N=params.N)
    assert rec.rho == pytest.approx(params.rho, rel=1e-6)
    assert rec.alpha == pytest.approx(params.alpha, rel=1e-6)
    assert rec.beta == pytest.approx(params.beta, rel=1e-6)
    assert rec.epsilon == pytest.approx(epsilon, rel=1e-6)
    assert rec.beta > rec.alpha


@settings(max_examples=25, deadline=None)
@given(params_strategy)
def test_recover_simplified_round_trip_property(draw):
    alpha, rho, multiplier, epsilon, t = draw
    params = ModelParams(beta=(rho + alpha) * multiplier, rho=rho, alpha=alpha, N=1e5)
    jet, _ = jet_at(params, ModelKind.SIMPLIFIED, t, outbreak_state(params, epsilon))
    rec = recover_simplified(jet, y1_at_0=params.alpha * epsilon, N=params.N)
    assert rec.rho == pytest.approx(params.rho, rel=1e-6)
    assert rec.alpha == pytest.approx(params.alpha, rel=1e-6)
    assert rec.beta == pytest.approx(params.beta, rel=1e-6)
    assert rec.epsilon == pytest.approx(epsilon, rel=1e-6)
    assert rec.beta > rec.alpha


def test_initial_inequalities_reference_values():
    report = check_initial_inequalities(REF, epsilon=10.0)
    expected_dh1 = 0.4 * 10 / 1e5 * (0.07 - 0.4) * (1 - 10 / 1e5)
    expected_cterm = 0.07 * 0.4 * 0.1 * 100.0 * (0.4 - 0.07) * (1 - 10 / 1e5)
    assert report["dh1_at_0"] == pytest.approx(expected_dh1, rel=1e-12)
    assert report["cterm_at_0"] == pytest.approx(expected_cterm, rel=1e-12)
    assert report["dh1_at_0"] == pytest.approx(-1.31987e-5, rel=1e-4)
    assert report["cterm_at_0"] == pytest.approx(0.0923908, rel=1e-4)
    assert report["ok"]


@pytest.mark.parametrize("epsilon", [0.0, 1e5], ids=["0", "N"])
def test_initial_inequalities_reject_epsilon_outside_the_population(epsilon):
    with pytest.raises(ValueError, match=rf"^epsilon must lie in \(0, N\), got {epsilon!r}$"):
        check_initial_inequalities(REF, epsilon)


def test_initial_inequalities_vanish_when_rates_equal():
    params = ModelParams(beta=0.2, rho=0.1, alpha=0.2, N=1e5)
    report = check_initial_inequalities(params, epsilon=10.0)
    assert report["dh1_at_0"] == 0.0
    assert report["cterm_at_0"] == 0.0
    assert not report["ok"]
