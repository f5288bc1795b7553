import ast
import dataclasses
import linecache
import re
import subprocess
import sys
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest

from siqr import (
    DivergenceError,
    DomainError,
    EpidemicState,
    IntegratorConfig,
    ModelKind,
    ModelParams,
    ObserverState,
    OutputSeries,
    Scenario,
    Trajectory,
    gains,
    guard_measurements,
    integrate,
    observer_rhs,
    run_observer,
)
from siqr.cli import make_measurements
from siqr.integrator import _BLOCK_ROWS, Field, FieldBody, _rk4_block
from siqr.models import _SIQR, vector_field
from siqr.observer import _OBSERVER, _observer_field

REF = ModelParams(beta=0.4, rho=0.1, alpha=0.07, N=1e5)


def _body_field(source, dim=1, inputs=(), env=None):
    """A `Field` of no constants whose body `source` reads state component
    i as s<i> and its inputs by the names in `inputs`."""
    state = tuple(f"s{i}" for i in range(dim))
    return Field(FieldBody("test", state, (), inputs, source, env or {}), ())


def _driven():
    """x' = y, y the one input."""
    return _body_field("{dx0} = y\n", inputs=("y",))


def test_constant_field_gives_constant_trajectory():
    cfg = IntegratorConfig(dt=0.1, horizon=2.0)
    traj = integrate(_body_field("{dx0} = 0.0\n{dx1} = 0.0\n", 2), np.array([3.0, -1.0]), cfg)
    assert np.all(traj.states == [3.0, -1.0])
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0)


def test_exponential_decay_accuracy():
    cfg = IntegratorConfig(dt=0.01, horizon=1.0)
    traj = integrate(_body_field("{dx0} = -s0\n"), np.array([1.0]), cfg)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8


def test_domain_error_carries_time():
    bad_state = np.array([0.0, 1.0, 2e5, 0.0])
    cfg = IntegratorConfig(dt=0.01, horizon=1.0)
    with pytest.raises(DomainError, match=r"t=0"):
        integrate(vector_field(ModelKind.FULL, REF), bad_state, cfg)


def test_driven_constant_input_is_exact():
    cfg = IntegratorConfig(dt=0.05, horizon=1.0)

    def inputs(t):
        return np.full((t.size, 1), 2.5)

    traj = integrate(_driven(), np.array([1.0]), cfg, inputs=inputs)
    assert traj.states[-1, 0] == pytest.approx(1.0 + 2.5 * 1.0, rel=1e-12)


def test_driven_ramp_input_integrates_exactly():
    cfg = IntegratorConfig(dt=0.01, horizon=1.0)
    times = cfg.times

    def inputs(t):
        return t.reshape(-1, 1)

    traj = integrate(_driven(), np.array([0.0]), cfg, inputs=inputs)
    assert np.max(np.abs(traj.states[:, 0] - 0.5 * times**2)) < 1e-10


@pytest.mark.parametrize("n_times, n_states", [(3, 2), (2, 3)])
def test_trajectory_rejects_times_and_states_of_different_lengths(n_times, n_states):
    with pytest.raises(ValueError, match="^times and states must be aligned$"):
        Trajectory(times=np.zeros(n_times), states=np.zeros((n_states, 4)))


def test_driven_rejects_short_input_series():
    sc = Scenario()
    cfg = IntegratorConfig(dt=0.1, horizon=2.0)
    times = np.arange(11) * 0.1  # covers only [0, 1]
    record = OutputSeries(times=times, y1=np.full(11, 10.0), y2=np.full(11, 50.0))
    init = sc.observer_init(10.0, 50.0)
    with pytest.raises(ValueError, match="input series covers"):
        run_observer(record, sc.gain_set(), sc.N, init, cfg, sc.kind)
    # A series with no samples covers nothing either.
    empty = OutputSeries(times=times[:0], y1=record.y1[:0], y2=record.y2[:0])
    with pytest.raises(ValueError, match="integration needs"):
        run_observer(empty, sc.gain_set(), sc.N, init, cfg, sc.kind)


@pytest.mark.parametrize(
    "rows",
    [
        lambda t: np.ones(t.size),
        lambda t: np.ones((t.size - 1, 1)),
        lambda t: np.ones((t.size + 1, 1)),
    ],
    ids=["1-D", "too-few-rows", "too-many-rows"],
)
def test_inputs_result_of_wrong_shape_names_inputs(rows):
    # The result is checked per block, before any stage runs, so the
    # error names `inputs` and the block instead of blaming rhs.
    cfg = IntegratorConfig(dt=0.1, horizon=1.0)
    with pytest.raises(ValueError, match=r"^inputs must return one row per time.*block from t=0\)"):
        integrate(_driven(), [0.0], cfg, inputs=rows)


def test_rhs_that_is_no_field_raises_type_error():
    # A callable is no `Field`: its equations are not there to inline.
    with pytest.raises(TypeError, match=r"^rhs must be a Field, got function$"):
        integrate(lambda x: x, [0.0], IntegratorConfig(0.1, 1.0))


def test_error_whose_type_needs_more_than_a_message_keeps_its_type():
    # CalledProcessError cannot be built from one message, so it is
    # re-raised as it is rather than as the TypeError of its constructor.
    def fail(v):
        raise subprocess.CalledProcessError(1, "cmd")

    field = _body_field("{dx0} = fail(s0)\n", env={"fail": fail})
    with pytest.raises(subprocess.CalledProcessError) as excinfo:
        integrate(field, [0.0], IntegratorConfig(0.1, 1.0))
    assert (excinfo.value.returncode, excinfo.value.cmd) == (1, "cmd")


def test_error_while_a_step_is_written_carries_its_time():
    # The slope turns complex at the last stage of the step from t = 0.2,
    # at x = 0.2 + 0.1: the step's state cannot be stored as floats.
    def slope(v):
        return 1j if v >= 0.3 else 1.0

    field = _body_field("{dx0} = slope(s0)\n", env={"slope": slope})
    with pytest.raises(TypeError, match=r"\(rhs evaluation at t=0\.2\)$"):
        integrate(field, [0.0], IntegratorConfig(0.1, 1.0))


@pytest.mark.parametrize(
    "field, x0, shape",
    [
        # A row such as traj.states[-1:].
        (_body_field("".join(f"{{dx{i}}} = s{i}\n" for i in range(4)), 4), np.zeros((1, 4)),
         r"\(1, 4\)"),
        (_body_field("{dx0} = s0\n"), 5.0, r"\(\)"),
        (vector_field(ModelKind.FULL, REF), [1.0, 2.0, 3.0], r"\(3,\)"),
    ],
    ids=["row", "scalar", "model-field-of-3"],
)
def test_x0_of_wrong_shape_names_x0(field, x0, shape):
    with pytest.raises(ValueError, match=rf"^x0 must .* got shape {shape}$"):
        integrate(field, x0, IntegratorConfig(0.1, 1.0))


def test_built_field_checks_the_width_of_the_input_rows():
    # A built field takes a known number of inputs: a row of another
    # width would be dropped or unpacked wrongly, so it is refused.
    with pytest.raises(ValueError, match=r"^inputs must return one row per time of 0 values"):
        integrate(vector_field(ModelKind.FULL, REF), _REF_X0, IntegratorConfig(0.1, 1.0),
                  inputs=lambda t: np.ones((t.size, 1)))


def test_error_in_a_later_block_carries_its_time():
    # Q passes N at step 4275, step 179 of the block from step 4096.
    params = ModelParams(beta=0.4, rho=0.001, alpha=0.01, N=1e5)
    cfg = IntegratorConfig(dt=0.01, horizon=60.0)
    with pytest.raises(DomainError) as excinfo:
        integrate(vector_field(ModelKind.FULL, params), [0.0, 3e5, 0.0, 0.0], cfg)
    assert str(excinfo.value) == (
        "full model needs Q < N, got Q=100000.3309152025 with N=100000.0 "
        "(rhs evaluation at t=42.75)"
    )
    # The generated block's lines are in linecache, so the traceback of
    # the original error shows the inlined line that raised it.
    frame = traceback.extract_tb(excinfo.value.__cause__.__traceback__)[-1]
    assert frame.filename == "<siqr rk4 model>"
    assert frame.line == 'raise DomainError(f"full model needs Q < N, got Q={Q!r} with N={N!r}")'


def test_observer_divergence_on_a_long_horizon_carries_its_time():
    # Past 10 days the reference flow poles outrun RK4's stability at
    # dt = 0.01: y1_hat blows up in the block from step 2048. At stiffness
    # 7.98 estimate_scenario refuses the run, so the observer runs here on
    # the record that estimate_scenario would guard.
    sc = dataclasses.replace(Scenario(), horizon=30.0)
    guarded, _, _ = guard_measurements(make_measurements(sc, True)[2])
    init = sc.observer_init(guarded.y1[0], guarded.y2[0])
    with pytest.raises(DivergenceError) as excinfo:
        run_observer(guarded, sc.gain_set(), sc.N, init, sc.integrator_config(), sc.kind)
    assert str(excinfo.value) == "state component 4 became non-finite at t=28.59"


def test_overflow_raises_divergence_at_first_non_finite_step():
    # x' = 1 while the stage state is below 3, then a value that
    # overflows: the step from t = 2.5 evaluates its last stage at x = 3,
    # so t = 3 is the first step whose state is not finite.
    def slope(v):
        return np.where(v < 3.0, 0.1, 1e308) * 10.0

    field = _body_field("{dx0} = slope(s0)\n", env={"slope": slope})
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
    """RK4 on numpy arrays, one array per stage, with `inputs` taken as
    `integrate` takes them: the reference that `integrate`'s loop over
    Python floats must equal bitwise."""
    n, dt = cfg.n_steps, cfg.dt
    if inputs is None:
        u_nodes = u_mids = [()] * (n + 1)
    else:
        u_nodes = np.asarray(inputs(cfg.times)).tolist()
        u_mids = np.asarray(inputs(cfg.times[:-1] + 0.5 * dt)).tolist()
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


def _coupled_polynomial(x):
    d = len(x)
    return tuple(x[(i + 1) % d] * x[i - 1] - x[i] ** 3 for i in range(d))


def _polynomial_field(d):
    """_coupled_polynomial as a body on d components."""
    source = "".join(f"{{dx{i}}} = s{(i + 1) % d} * s{(i - 1) % d} - s{i} ** 3\n" for i in range(d))
    return _body_field(source, d)


_REF_X0 = [99985.0, 10.0, 5.0, 0.0]
_FULL, _SIMPLIFIED = (vector_field(kind, REF) for kind in (ModelKind.FULL, ModelKind.SIMPLIFIED))


@pytest.mark.parametrize(
    "field, reference, x0, dt, horizon",
    [
        # 2,500 steps: the last block is partial.
        pytest.param(_FULL, _FULL, _REF_X0, 0.004, 10.0, id="ModelKind.FULL-0.004-10.0"),
        # Exactly one block.
        pytest.param(_SIMPLIFIED, _SIMPLIFIED, _REF_X0, 0.01, _BLOCK_ROWS * 0.01,
                     id="ModelKind.SIMPLIFIED-0.01-10.24"),
        # Each state size has its own generated stepper; 2,500 steps.
        *(
            pytest.param(_polynomial_field(d), _coupled_polynomial,
                         [0.2 + 0.1 * i for i in range(d)], 0.004, 10.0, id=f"polynomial-d{d}")
            for d in (0, 1, 2, 3, 5, 11)
        ),
    ],
)
def test_model_run_equals_array_rk4_bitwise(field, reference, x0, dt, horizon):
    cfg = IntegratorConfig(dt=dt, horizon=horizon)
    traj = integrate(field, x0, cfg)

    def array_field(x):
        return np.array(reference(x.tolist()))

    assert np.array_equal(traj.states, _array_rk4(array_field, x0, cfg))


def test_steps_are_written_in_blocks_not_kept_as_rows():
    # Python floats cost about 6x the states array when every step is
    # kept as a row; written in blocks, the peak stays near one array.
    cfg = IntegratorConfig(dt=0.001, horizon=20.0)
    tracemalloc.start()
    try:
        field = _body_field("".join(f"{{dx{i}}} = -0.1 * s{i}\n" for i in range(4)), 4)
        traj = integrate(field, [4.0, 3.0, 2.0, 1.0], cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (20001, 4)
    assert peak < 2 * traj.states.nbytes + 256 * 1024


def test_driven_steps_are_written_in_blocks_not_kept_as_rows():
    # The input rows are Python floats too: interpolated per block, on
    # arrays, they leave the peak near one states array as well.
    cfg = IntegratorConfig(dt=0.001, horizon=20.0)
    samples = np.linspace(0.0, 20.0, 201)
    values = 1.0 + np.sin(samples)

    def inputs(at):
        return np.interp(at, samples, values)[:, None]

    tracemalloc.start()
    try:
        field = _body_field("".join(f"{{dx{i}}} = y - 0.1 * s{i}\n" for i in range(4)), 4, ("y",))
        traj = integrate(field, [4.0, 3.0, 2.0, 1.0], cfg, inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (20001, 4)
    assert peak < 2 * traj.states.nbytes + 256 * 1024


def test_inputs_is_called_once_per_block_at_its_stage_times_in_order():
    # 2,500 steps make three blocks. Each asks for its rows once, at
    # t_j, t_j + dt/2, t_{j+1}, ..., each half step computed as
    # times[j] + 0.5 * dt, so that interpolated rows keep their bits.
    cfg = IntegratorConfig(dt=0.004, horizon=10.0)
    calls = []

    def inputs(at):
        calls.append(at.copy())
        return np.ones((at.size, 1))

    integrate(_driven(), [0.0], cfg, inputs)
    starts = range(0, cfg.n_steps, _BLOCK_ROWS)
    assert cfg.n_steps == 2500 and len(calls) == len(starts) == 3
    for start, at in zip(starts, calls):
        stop = min(start + _BLOCK_ROWS, cfg.n_steps)
        assert np.array_equal(at[0::2], cfg.times[start : stop + 1])
        assert np.array_equal(at[1::2], cfg.times[start:stop] + 0.5 * cfg.dt)
        assert np.all(np.diff(at) > 0)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.5, horizon=0.1)
    cfg = IntegratorConfig(dt=0.01, horizon=10.0)
    assert cfg.n_steps == 1000
    assert cfg.times.size == 1001


@pytest.mark.parametrize("field", ["dt", "horizon"])
@pytest.mark.parametrize("value", ["0.4", 10**400, np.array([0.1, 0.2])])
def test_config_value_that_is_no_finite_real_number_names_the_field(field, value):
    # math.isfinite alone raises TypeError or OverflowError, naming no field.
    with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got "):
        IntegratorConfig(**{"dt": 0.1, "horizon": 1.0, field: value})


def _calls_of(code, run):
    """run() and the number of calls of `code` it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def _model_case(kind):
    """(field body, config, inlined run, called run) on the reference
    run: `integrate` inlines the field, the array RK4 calls it."""
    field, cfg = vector_field(kind, REF), IntegratorConfig(dt=0.01, horizon=12.0)
    return (
        field.body, cfg, lambda: integrate(field, _REF_X0, cfg).states,
        lambda: _array_rk4(lambda x: np.array(field(x.tolist())), _REF_X0, cfg),
    )


def _observer_case(kind, noisy, dt=0.01, horizon=12.0):
    """As `_model_case`, for the observer on the guarded record:
    `run_observer` takes the `_inputs` rows of a block of steps at once,
    the array RK4 over `observer_rhs` the row of one stage."""
    sc = dataclasses.replace(Scenario(), kind=kind, dt=dt, horizon=horizon)
    if not noisy:
        sc = dataclasses.replace(sc, relative_sigma=0.0)
    _, _, measurements = make_measurements(sc, noisy=True)
    guarded, _, _ = guard_measurements(measurements)
    init = sc.observer_init(guarded.y1[0], guarded.y2[0])
    cfg, K = sc.integrator_config(), sc.gain_set()

    def inputs(at):
        return np.column_stack([np.interp(at, guarded.times, y) for y in (guarded.y1, guarded.y2)])

    return (
        _observer_field(K, sc.N, kind).body, cfg,
        lambda: run_observer(guarded, K, sc.N, init, cfg, kind).trajectory.states,
        lambda: _array_rk4(lambda x, y1, y2: observer_rhs(x, y1, y2, K, sc.N, kind),
                           init, cfg, inputs),
    )


@pytest.mark.parametrize(
    "case",
    [
        *(pytest.param(lambda kind=kind: _model_case(kind), id=f"model-{kind.value}")
          for kind in ModelKind),
        *(pytest.param(lambda kind=kind, noisy=noisy: _observer_case(kind, noisy),
                       id=f"observer-{kind.value}-{'noisy' if noisy else 'noise-free'}")
          for kind in ModelKind for noisy in (True, False)),
        # 2,500 steps: the last block is partial.
        *(pytest.param(lambda kind=kind: _observer_case(kind, True, 0.004, 10.0),
                       id=f"observer-{kind.value}-noisy-0.004-10.0")
          for kind in ModelKind),
    ],
)
def test_inlined_field_equals_called_field_bitwise(case):
    # 1,200 steps over two blocks (2,500 over three at dt = 0.004).
    # `integrate` inlines a `Field`'s equations and never calls it; the
    # array RK4 calls the same field, which runs the code compiled with
    # its body once per stage, and must give the same bits.
    body, cfg, inlined_run, called_run = case()
    assert cfg.n_steps > _BLOCK_ROWS
    code = body.code
    assert code.co_filename == f"<siqr field {body.name}>"
    inlined, inlined_calls = _calls_of(code, inlined_run)
    called, called_calls = _calls_of(code, called_run)
    assert inlined_calls == 0
    assert called_calls == 4 * cfg.n_steps
    assert np.array_equal(inlined, called)


def _decay_body(state=("v",), constants=("k",), source=None):
    """x' = -k * x on one component, with its state and constant named,
    or the body of `source`."""
    source = source or f"{{dx0}} = -{constants[0]} * {state[0]}\n"
    return FieldBody("decay", state, constants, (), source, {})


def test_field_body_reads_its_state_by_name():
    traj = integrate(Field(_decay_body(), (2.0,)), [1.0], IntegratorConfig(dt=0.1, horizon=1.0))
    assert traj.states[-1, 0] == pytest.approx(np.exp(-2.0), rel=1e-4)


@pytest.mark.parametrize(
    "state, constants, source",
    [(("v",), ("h",), None), (("v",), ("c",), None), (("x0",), ("k",), None),
     (("v",), ("dt",), None), (("k1_0",), ("k",), None),
     (("v",), ("k",), "c = k * v\n{dx0} = -c\n"),
     (("v",), ("k",), "{dx0} = -k * v\ndx0 = 0.0\n")],
    ids=["constant-h", "constant-c", "state-x0", "constant-dt", "state-k1_0", "block-c",
         "block-dx0-literal"],
)
def test_field_body_may_name_h_c_dt_x0_k1_0_and_dx0(state, constants, source):
    # The RK4 block's own names (_h, _c, _dt, _x0, _k1_0, ...) and the
    # field form's slots (_dx0, ...) start with _, so a body may use them
    # without it. Were the half step named h, a constant h would read it
    # and x' = -2x would reach 0.951 at t = 1, not e^-2; here every such
    # body gives the bits of the body with neutral names.
    cfg = IntegratorConfig(dt=0.1, horizon=1.0)
    expected = integrate(Field(_decay_body(), (2.0,)), [1.0], cfg).states
    run = integrate(Field(_decay_body(state, constants, source), (2.0,)), [1.0], cfg)
    assert np.array_equal(run.states, expected)


@pytest.mark.parametrize(
    "state, constants, clash",
    [(("v",), ("v",), "v"), (("v",), ("_h",), "_h"), (("_x0",), ("k",), "_x0")],
    ids=["state-also-a-constant", "constant-_h", "state-_x0"],
)
def test_field_body_refuses_a_name_the_rk4_block_overwrites(state, constants, clash):
    # The RK4 block binds each state name at every stage, so a constant of
    # the same name would read the stage state instead of its value; and
    # the block's own names all start with _.
    with pytest.raises(ValueError, match=rf"^decay field names '{clash}' twice or with a leading _$"):
        _decay_body(state, constants)


@pytest.mark.parametrize(
    "source, message",
    [("k = 2 * k\n{dx0} = -k * v\n", "assigns its constant 'k'"),
     ("{dx0} = -k * v\n_x0 += 1.0\n", "names '_x0' twice or with a leading _"),
     ("{dx0} = -k * v\n_dx0 = 0.0\n", "names '_dx0' twice or with a leading _"),
     ("_h = 0.5\n{dx0} = -k * v\n", "names '_h' twice or with a leading _")],
    ids=["constant-k", "block-_x0-augmented", "block-_dx0-literal", "block-_h"],
)
def test_field_body_refuses_a_source_that_assigns_a_block_name_or_a_constant(source, message):
    # A source runs inside the RK4 block, so what it assigns stays bound
    # for the stages after it: `k = 2 * k` would double k at every stage,
    # `_x0 += 1.0` would move the state and `_h = 0.5` the half step. _dx0
    # is the slot that {dx0} fills in the called form.
    with pytest.raises(ValueError, match=rf"^decay field {re.escape(message)}$"):
        FieldBody("decay", ("v",), ("k",), (), source, {})


def _assigned(body):
    """The names that the source of `body` assigns, read from its syntax
    tree with each {dx<i>} parsed as an item of a list."""
    tree = ast.parse(re.sub(r"\{dx(\d+)\}", r"slots[\1]", body.source))
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


@pytest.mark.parametrize("body", [_SIQR, _OBSERVER, _driven().body],
                         ids=["model", "observer", "driven"])
def test_generated_names_start_with_an_underscore(body):
    # FieldBody refuses every name that starts with _, so none of the
    # names that the RK4 block and the field form make up can clash with
    # a name of the body.
    own = {*body.state, *body.constants, *body.inputs, *_assigned(body)}
    for code in (_rk4_block(body).__code__, body.code):
        made_up = [name for name in code.co_varnames if name not in own]
        assert made_up and all(name.startswith("_") for name in made_up), made_up


@pytest.mark.parametrize(
    "use",
    [lambda field: integrate(field, _REF_X0, IntegratorConfig(0.1, 1.0)),
     lambda field: field(_REF_X0)],
    ids=["integrated", "called"],
)
@pytest.mark.parametrize("constants", [(0.4, 0.1), (0.4, 0.1, 0.07, 1e5, True, 0.0)],
                         ids=["too-few", "too-many"])
def test_field_checks_how_many_constants_it_gets(constants, use):
    # Too few constants would fail only inside the RK4 block or the called
    # form, and too many would be dropped, so a `Field` counts them.
    message = f"model field takes 5 constants (beta, rho, alpha, N, full), got {len(constants)}"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        use(Field(_SIQR, constants))


@pytest.mark.parametrize(
    "field, args, message",
    [
        (_FULL, ([1.0, 2.0, 3.0],),
         "model field takes 4 state components and 0 inputs, got 3 and 0"),
        (_observer_field(gains((1.0, 1.5, 2.0, 2.5), (1.0, 1.0, 1.0)), 1e5, ModelKind.FULL),
         ([0.0] * 7, 1.0, 2.0),
         "observer field takes 7 state components and 4 inputs, got 7 and 2"),
    ],
    ids=["model-x-of-3", "observer-two-inputs"],
)
def test_called_field_checks_its_state_and_inputs(field, args, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        field(*args)


def test_built_field_without_inputs_names_inputs():
    field = _observer_field(gains((1.0, 1.5, 2.0, 2.5), (1.0, 1.0, 1.0)), 1e5, ModelKind.FULL)
    with pytest.raises(ValueError, match=r"^inputs must be set for the observer field's "
                                         r"y1, y2, z1, z2$"):
        integrate(field, [0.0] * 7, IntegratorConfig(0.1, 1.0))


@pytest.mark.parametrize(
    "body, fields, bound",
    [
        (_SIQR, EpidemicState._fields, ("S", "I", "Q")),
        (_OBSERVER, ObserverState._fields, ObserverState._fields),
    ],
    ids=["model", "observer"],
)
def test_bodies_bind_the_state_names_they_read(body, fields, bound):
    # The model never reads R, so no stage binds it; the observer reads
    # all seven of its names. The RK4 block binds each at its four
    # stages; the callable form takes the state names, then the input
    # names, as its parameters and binds none of them.
    assert body.state == fields
    assert body.dim == len(body.state)
    assert body.code.co_varnames[: body.code.co_argcount] == (*fields, *body.inputs)
    _rk4_block(body)
    for form, stages in (("rk4", 4), ("field", 0)):
        source = "".join(linecache.cache[f"<siqr {form} {body.name}>"][2])
        for name in fields:
            count = len(re.findall(rf"^ *{name} = ", source, re.MULTILINE))
            assert count == (stages if name in bound else 0), name
        assert "{x" not in source
        assert "{dx" not in source and "{u}" not in source
