"""Exception types shared across sdlab modules."""


class SdlabError(Exception):
    """Base class for all sdlab errors."""


class GridMismatchError(SdlabError):
    """Two grid objects that must match do not."""


class SpectralDomainError(SdlabError):
    """A multiplier parameter lies outside its half-plane of validity."""


class NonFiniteFieldError(SdlabError, ValueError):
    """A drift field holds a NaN or infinite value.

    It is a ValueError too, so the CLI reports a field config that
    samples to such values as a config error (exit 2).
    """


class ComplexFieldError(SdlabError, ValueError):
    """A drift field holds a value with a nonzero imaginary part; drifts are real."""


class GuardViolationError(SdlabError):
    """The smallness condition gating the Neumann inversion fails.

    Raised when m_d * c_p * delta >= 1 (or an equivalent precondition),
    i.e. the requested operator assembly is outside the regime where the
    series inverse is known to converge.
    """


class NeumannDivergenceError(SdlabError):
    """Partial-sum increments of the series inverse grew repeatedly."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class NeumannMaxTermsError(SdlabError):
    """Series inverse hit its term cap before reaching tolerance."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class PowerIterationError(SdlabError):
    """The top-eigenvalue solve of a class estimator failed to converge."""


class QuadratureError(SdlabError):
    """A quadrature did not settle to its tolerance under refinement."""


class ConfigError(SdlabError):
    """An experiment configuration is malformed; message names the key."""
