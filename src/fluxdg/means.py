"""Scalar mean values used by two-point volume fluxes.

All functions take plain floats and return floats. The logarithmic mean is
the numerically delicate one: the naive quotient (logmean_reference, the
oracle) cancels catastrophically for nearly equal arguments, so
logmean_optimized and inv_logmean_optimized, which the scalar flux kernels
call, switch to a truncated series once the squared normalized jump
z = ((a+ - a-)/(a+ + a-))^2 falls below SERIES_EPSILON. The jump
a+ - a- and the sum a+ + a- are formed once and shared by z and by both
branches. The lane versions (batched.logmean_batched, inv_logmean_batched)
evaluate the same expressions, operation for operation, on lane arrays:
the series on every lane, then the log quotient on the lanes with
z >= SERIES_EPSILON only, so each lane takes the branch the scalar takes.
"""

import math

from .errors import DomainError

# Branch threshold for 64-bit floats: series truncation error ~ z^4 stays
# below roundoff while the log quotient is still well conditioned above it.
SERIES_EPSILON = 1.0e-4


def _check_positive(a_minus, a_plus):
    if a_minus <= 0.0 or a_plus <= 0.0:
        raise DomainError(
            "logarithmic mean needs positive arguments, got (%r, %r)" % (a_minus, a_plus)
        )


def logmean_reference(a_minus, a_plus):
    """Textbook quotient (a+ - a-)/(log a+ - log a-).

    No special casing: equal arguments are a domain error here. Only useful
    as a cross-check for well separated arguments.
    """
    _check_positive(a_minus, a_plus)
    if a_minus == a_plus:
        raise DomainError("logmean_reference is singular for equal arguments")
    return (a_plus - a_minus) / (math.log(a_plus) - math.log(a_minus))


def logmean_optimized(a_minus, a_plus):
    """Division-minimal log mean.

    The sum s = a- + a+ and the jump j = a+ - a- are formed once:
    z = (j/s)^2 selects the branch, the series branch is
    s/(2 + z(2/3 + z(2/5 + z 2/7))) and the log branch j/log(a+/a-).
    """
    _check_positive(a_minus, a_plus)
    total = a_minus + a_plus
    jump = a_plus - a_minus
    ratio = jump / total
    z = ratio * ratio
    if z < SERIES_EPSILON:
        return total / (2.0 + z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0))))
    return jump / math.log(a_plus / a_minus)


def inv_logmean_optimized(a_minus, a_plus):
    """Reciprocal 1/logmean(a-, a+) without dividing by the mean.

    The energy flux needs the reciprocal of a log mean; computing it directly
    turns the series branch into (2 + z(...))/s and the log branch into
    log(a+/a-)/j, with s, j and z = (j/s)^2 as in logmean_optimized.
    """
    _check_positive(a_minus, a_plus)
    total = a_minus + a_plus
    jump = a_plus - a_minus
    ratio = jump / total
    z = ratio * ratio
    if z < SERIES_EPSILON:
        return (2.0 + z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0)))) / total
    return math.log(a_plus / a_minus) / jump
