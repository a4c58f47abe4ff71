"""Exception types shared across the package."""


class CondcovError(Exception):
    """Base class for all package errors."""


class ParameterError(CondcovError, ValueError):
    """A parameter is outside its admissible domain."""


class ValidationError(CondcovError, ValueError):
    """Inputs (data, network structure, shapes) fail validation."""


class ConfigError(ValidationError):
    """A configuration file is malformed or inconsistent."""


class InsufficientDataError(ValidationError):
    """Too few observations for the requested operation."""


class InvalidModelError(CondcovError):
    """A model's grid covariance does not factor within the jitter policy.

    Raised on the first read of ``JointModel.chol`` or ``.jitter``; failures
    to factor observation covariances are NumericalError (both CLI exit 2).
    """


class NumericalError(CondcovError):
    """A linear system is too ill-conditioned to solve within the jitter policy."""


class OptimizationError(CondcovError):
    """The optimizer failed to produce a usable estimate."""
