"""SIQR epidemic toolkit: simulation, exact recovery, online estimation."""

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
from .identify import (
    HChain,
    RecoveredParams,
    check_initial_inequalities,
    h_chain,
    recover_full,
    recover_rho,
    recover_simplified,
)
from .integrator import IntegratorConfig, Trajectory, integrate
from .models import (
    EpidemicState,
    ModelKind,
    ModelParams,
    check_assumptions,
    r0,
    rhs,
    vector_field,
)
from .observation import (
    NoiseSpec,
    OutputJet,
    OutputSeries,
    add_noise,
    moving_average,
    observe,
    output_jets,
)
from .observer import (
    EstimateSeries,
    GainSet,
    ObserverRun,
    ObserverState,
    assemble_m1,
    assemble_m2,
    beta_hat,
    char_poly,
    gains,
    guard_measurements,
    observer_rhs,
    run_observer,
    sigma,
    verify_pole_placement,
)
from .scenario import DEFAULT_LAMBDA, DEFAULT_MU, REFERENCE_MU, Scenario, parse_scenario

__version__ = "0.1.0"
