"""Exception types shared across the package.

Every computational module raises subclasses of :class:`BergreenError` so
callers (in particular the command line driver) can distinguish numerical
failures from programming errors and report them uniformly.
"""


class BergreenError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BergreenError):
    """Invalid or degenerate domain specification."""


class CoincidentPointsError(BergreenError):
    """Green function requested at coincident source/evaluation points."""


class NonConvergenceError(BergreenError):
    """A truncated series did not meet its tail tolerance."""


class SolverSingularError(BergreenError):
    """A discretized linear system is numerically singular."""


class AccuracyError(BergreenError):
    """Refinement changed a result by more than the admissible tolerance."""


class DivergentIntegralError(BergreenError):
    """A requested moment integral diverges for the given weight/domain."""


class TruncationError(BergreenError):
    """Series/basis truncation error estimate exceeds its tolerance."""


class ZeroKernelError(BergreenError):
    """Kernel diagonal is not strictly positive where it must be."""


class DerivativeMismatchError(BergreenError):
    """Analytic and complex-step derivatives disagree."""


class ParameterError(BergreenError):
    """A parameter lies outside its documented range."""


class ConfigError(BergreenError):
    """Malformed run configuration."""
