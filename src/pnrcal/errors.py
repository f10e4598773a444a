"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """Input violates a documented precondition."""


class UninformativeBinError(DomainError):
    """Estimator denominator vanishes for the requested photon number."""


class FitFailureError(RuntimeError):
    """A fit could not be seeded, did not converge within the iteration cap,
    or failed a gate; `keys` hold key=value diagnostics, `reason` among them
    (the command line prints them on stderr)."""

    def __init__(self, message, **keys):
        super().__init__(message)
        self.keys = keys


class NumericalInstabilityError(RuntimeError):
    """Analytic and finite-difference gradients disagree beyond tolerance."""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""
