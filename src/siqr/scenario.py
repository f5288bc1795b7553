"""Scenario configuration: a flat key-value document with full defaults.

The default scenario is the reference numerical experiment: a population
of 1e5 with rates (alpha, beta, rho) = (0.07, 0.4, 0.1), ten initially
infected, five initially quarantined, a 10-day horizon at dt = 0.01,
pole vectors lambda = [1, 1.5, 2, 2.5] and mu = REFERENCE_MU, and 5%
relative measurement noise.

The flow block's poles act in the rescaled time integral(y1 dt), the
number of individuals placed in quarantine so far. The seed vector
DEFAULT_MU = [1/13000, 1/15000, 1/19000] contracts the block's error by
only exp(-min(mu) * integral(y1 dt)) ~ 0.9986 over the reference ten
days (about 27 placements), so k_hat never leaves its initial guess:
noise-proof, but inert. REFERENCE_MU keeps the seed vector's ratios and
scales it so that its slowest pole is 1, i.e. the error shrinks at least
by e per individual placed in quarantine (mu ~ [1.46, 1.27, 1.0]). On
the noise-free reference run, scales of the seed vector from about 1.5e4
to 5e4 meet acceptance criterion 4; this rule gives 1.9e4. With noise
these gains pass the 5%-noise y1 innovation into k_hat (K7*N ~ 1.9e5),
so on noisy data the seed vector is the safer setting.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .integrator import IntegratorConfig, _real
from .models import EpidemicState, ModelKind, ModelParams, is_full
from .observation import NoiseSpec, check_window
from .observer import GainSet, ObserverState, _inputs, gains

__all__ = ["Scenario", "parse_scenario", "DEFAULT_LAMBDA", "DEFAULT_MU", "REFERENCE_MU"]

DEFAULT_LAMBDA = (1.0, 1.5, 2.0, 2.5)
DEFAULT_MU = (1.0 / 13000.0, 1.0 / 15000.0, 1.0 / 19000.0)
REFERENCE_MU = tuple(m / min(DEFAULT_MU) for m in DEFAULT_MU)


def _parse_floats(text):
    return tuple(float(p) for p in text.split(",") if p.strip())


def _key(key: str, default, convert=float):
    """A `Scenario` field read from the file's `key`, whose value text
    `convert` turns into the field's value."""
    return field(default=default, metadata={"key": key, "convert": convert})


@dataclass(frozen=True)
class Scenario:
    """One run's settings, valid by construction.

    Construction runs one check per section, in the document's order:
    the kind, each part, the initial counts, the smoothing window and
    the observer guesses. A check's ValueError starts with its field's
    name and becomes a ConfigError naming the key. `params()`,
    `integrator_config()` and `noise_spec()` build a new part at each
    call; `gain_set()` returns the `GainSet` the check built. The fields
    keep the values given. `relative_sigma = 0` is a noise-free run, as
    `--no-noise` sets. Each field declares its file key, and the
    converter of its value text where that is not `float`, by `_key`.
    """

    kind: ModelKind = _key("model.kind", ModelKind.FULL, lambda text: ModelKind(text.lower()))
    beta: float = _key("params.beta", 0.4)
    rho: float = _key("params.rho", 0.1)
    alpha: float = _key("params.alpha", 0.07)
    N: float = _key("params.N", 1e5)
    I0: float = _key("init.I0", 10.0)
    Q0: float = _key("init.Q0", 5.0)
    R0: float = _key("init.R0", 0.0)
    dt: float = _key("sim.dt", 0.01)
    horizon: float = _key("sim.horizon", 10.0)
    lam: tuple = _key("poles.lambda", DEFAULT_LAMBDA, _parse_floats)
    mu: tuple = _key("poles.mu", REFERENCE_MU, _parse_floats)
    relative_sigma: float = _key("noise.relative_sigma", 0.05)
    seed: int = _key("noise.seed", 0, int)
    smooth_window: int = _key("smooth.window", 101, int)
    delta0: float = _key("observer.delta0", 0.2)
    rho0: float = _key("observer.rho0", 0.05)
    v0: float = _key("observer.v0", 0.1)
    k0: float = _key("observer.k0", 1.0)
    out_dir: str = _key("out.dir", "out", str)

    def __post_init__(self):
        for prefix, check in (
            ("model", lambda: is_full(self.kind)),
            ("params", self.params),
            ("sim", self.integrator_config),
            ("noise", self.noise_spec),
            ("poles", lambda: object.__setattr__(self, "_gains", gains(self.lam, self.mu))),
            ("init", self._check_init),
            ("smooth", lambda: check_window(self.smooth_window)),
            ("observer", self._check_guesses),
        ):
            try:
                check()
            except ValueError as exc:
                # Each check's message starts with its field's name, so
                # "beta must be ..." reads "params.beta must be ...".
                raise ConfigError(f"{prefix}.{exc}") from exc

    def _check_init(self) -> None:
        _real("I0", self.I0, lambda v: v > 0, "strictly positive")
        for name in ("Q0", "R0"):
            _real(name, getattr(self, name), lambda v: v >= 0, "non-negative")
        if not self.initial_state().S > 0:
            raise ValueError("I0 + Q0 + R0 must be below the population size params.N")

    def _check_guesses(self) -> None:
        for name in ("delta0", "rho0", "v0", "k0"):
            _real(name, getattr(self, name), lambda v: True, "")

    def params(self) -> ModelParams:
        return ModelParams(beta=self.beta, rho=self.rho, alpha=self.alpha, N=self.N)

    def initial_state(self) -> EpidemicState:
        s0 = self.N - self.I0 - self.Q0 - self.R0
        return EpidemicState(S=s0, I=self.I0, Q=self.Q0, R=self.R0)

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(dt=self.dt, horizon=self.horizon)

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(relative_sigma=self.relative_sigma, seed=self.seed)

    def gain_set(self) -> GainSet:
        return self._gains

    def observer_init(self, y1_0: float, y2_0: float) -> ObserverState:
        """The observer's start: z1, z2, y1 from the `_inputs` row of the
        first measurements (y1_0, y2_0), the rest from the guesses."""
        y1, _, z1, z2 = _inputs([y1_0], [y2_0])[0].tolist()
        return ObserverState(z1, z2, self.delta0, self.rho0, y1, self.v0, self.k0)


# key -> (Scenario field, converter of the value text)
_KEYS = {f.metadata["key"]: (f.name, f.metadata["convert"]) for f in fields(Scenario)}


def parse_scenario(text: str) -> Scenario:
    """Parse a flat key-value document; missing keys keep their defaults.

    One `key = value` pair per line; blank lines and lines starting with
    '#' are ignored; unknown keys are rejected. Raises ConfigError
    naming the key of a value that does not convert or is out of range.
    """
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name, convert = _KEYS[key]
        if field_name in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            overrides[field_name] = convert(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    return Scenario(**overrides)
