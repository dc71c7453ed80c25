"""Scalar mean values used by two-point volume fluxes.

All functions take plain floats and return floats. The logarithmic mean is
the numerically delicate one: the naive quotient (logmean_reference, the
oracle) cancels catastrophically for nearly equal arguments, so
logmean_optimized and inv_logmean_optimized, which the scalar flux kernels
call, switch to a truncated series once the squared normalized jump
u = ((a+ - a-)/(a+ + a-))^2 falls below SERIES_EPSILON. The lane versions
(batched.logmean_batched, inv_logmean_batched) evaluate the same
expressions on arrays.
"""

import math

from .errors import DomainError

# Branch threshold for 64-bit floats: series truncation error ~ u^4 stays
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

    u is computed directly from the arguments (one division total in the
    series branch), and the log branch needs a single log and division.
    """
    _check_positive(a_minus, a_plus)
    u = (a_minus * (a_minus - 2.0 * a_plus) + a_plus * a_plus) / (
        a_minus * (a_minus + 2.0 * a_plus) + a_plus * a_plus
    )
    if u < SERIES_EPSILON:
        return (a_minus + a_plus) / (
            2.0 + u * (2.0 / 3.0 + u * (2.0 / 5.0 + u * (2.0 / 7.0)))
        )
    return (a_plus - a_minus) / math.log(a_plus / a_minus)


def inv_logmean_optimized(a_minus, a_plus):
    """Reciprocal 1/logmean(a-, a+) without dividing by the mean.

    The energy flux needs the reciprocal of a log mean; computing it directly
    turns the series branch into (2 + u(...))/(a- + a+) and the log branch
    into log(a+/a-)/(a+ - a-).
    """
    _check_positive(a_minus, a_plus)
    u = (a_minus * (a_minus - 2.0 * a_plus) + a_plus * a_plus) / (
        a_minus * (a_minus + 2.0 * a_plus) + a_plus * a_plus
    )
    if u < SERIES_EPSILON:
        return (2.0 + u * (2.0 / 3.0 + u * (2.0 / 5.0 + u * (2.0 / 7.0)))) / (
            a_minus + a_plus
        )
    return math.log(a_plus / a_minus) / (a_plus - a_minus)
