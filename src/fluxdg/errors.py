"""Exception types shared across the package."""


class FluxdgError(Exception):
    """Base class for package-specific errors."""


class AdmissibilityError(FluxdgError):
    """A state left the admissible set (rho > 0, p > 0). Raised for an array
    of states, `index` is the position of the first bad one."""

    index = None


class DomainError(FluxdgError, ValueError):
    """An argument is outside the mathematical domain of a function."""


class ConfigurationError(FluxdgError, ValueError):
    """Inconsistent or unknown configuration options."""


class UnsupportedOperatorError(FluxdgError, ValueError):
    """Operator family/degree combination outside the supported range."""


class MeshError(FluxdgError, ValueError):
    """Invalid mesh geometry (non-positive Jacobian, bad dimensions, ...)."""


class BenchmarkError(FluxdgError, RuntimeError):
    """A timing measurement cannot be reported reliably."""


class DivergenceError(FluxdgError, RuntimeError):
    """Time integration produced non-finite values."""
