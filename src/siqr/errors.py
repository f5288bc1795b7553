"""Exception types shared across the package."""


class DomainError(ValueError):
    """State outside the admissible region of a model (e.g. Q >= N)."""


class SingularPointError(ValueError):
    """Recovery attempted at a point where the formulas are singular."""


class RootSelectionError(ValueError):
    """No admissible root (or more than one) of the recovery quadratic."""


class DegenerateInputError(ValueError):
    """Jet the recovery cannot use: an entry not finite, an overflow, a
    vanishing divisor or quadratic, or a quadratic with no real roots."""


class RegimeError(ValueError):
    """Jet violates a sign condition the recovery formulas rely on."""


class MeasurementError(ValueError):
    """Observer driven with a non-positive measurement."""


class ConfigError(ValueError):
    """Scenario document failed to parse or validate."""


class DivergenceError(RuntimeError):
    """Numerical state, or a noisy sample, stopped being finite.

    `time` is the first step or sample that is not finite and `component`
    the index of that state's first non-finite entry (None for a sample).
    """

    def __init__(self, message, time=None, component=None):
        super().__init__(message)
        self.time = time
        self.component = component
