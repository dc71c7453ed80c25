"""Flux kinds, the log-mean branch threshold and the evaluation counters.

Both kernel families read these: the scalar oracle in `fluxdg.reference`
(one state pair per call) and the lane kernels in `fluxdg.batched`, which
`rhs` runs by default. Every flux is directional: contracted with an
arbitrary (scaled) direction vector, linear in the direction and
antisymmetric under (u_l, u_r, n) -> (u_r, u_l, -n). Volume fluxes (shima,
ranocha, central) are symmetric in their arguments; llf and hll are
surface-only.

The counters count logical evaluations: a scalar kernel bumps them once
per call, a lane kernel by its number of lanes, so lane work counts as
per-pair evaluations.
"""

import threading
from contextlib import contextmanager

from .errors import ConfigurationError

VOLUME_KINDS = ("shima", "ranocha", "central")
SURFACE_KINDS = ("shima", "ranocha", "central", "llf", "hll")
# the kinds whose flux combines the two own-side physical fluxes
# f(u_l).n and f(u_r).n: the only ones whose lane kernels (fluxdg.batched)
# read conserved states, where shima and ranocha read primitives alone.
# The scalar kernels (fluxdg.reference) take conserved states for every kind.
OWN_FLUX_KINDS = ("central", "llf", "hll")
# Branch threshold of the log means for 64-bit floats: series truncation
# error ~ z^4 stays below roundoff while the log quotient is still well
# conditioned above it (reference.logmean_optimized, batched._log_mean).
SERIES_EPSILON = 1.0e-4


# ---------------------------------------------------------------------------
# evaluation counters

class FluxCounter:
    """Monotone counters for flux work inside a count_guard scope."""

    __slots__ = ("two_point_evals", "one_point_evals", "logmean_evals")

    def __init__(self):
        self.two_point_evals = 0
        self.one_point_evals = 0
        self.logmean_evals = 0

    def reset(self):
        self.two_point_evals = 0
        self.one_point_evals = 0
        self.logmean_evals = 0

    def __repr__(self):
        return "FluxCounter(two_point=%d, one_point=%d, logmean=%d)" % (
            self.two_point_evals,
            self.one_point_evals,
            self.logmean_evals,
        )


_local = threading.local()


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


@contextmanager
def count_guard(counter):
    """Activate `counter` for flux evaluations on this thread. Guards nest;
    every active counter sees every evaluation, so nested scopes sum."""
    stack = _stack()
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.remove(counter)


def add_two_point(n=1):
    stack = getattr(_local, "stack", None)
    if stack:
        for c in stack:
            c.two_point_evals += n


def add_one_point(n=1):
    stack = getattr(_local, "stack", None)
    if stack:
        for c in stack:
            c.one_point_evals += n


def add_logmean(n=1):
    stack = getattr(_local, "stack", None)
    if stack:
        for c in stack:
            c.logmean_evals += n


def require_volume_kind(kind):
    if kind not in VOLUME_KINDS:
        raise ConfigurationError(
            "volume_flux: volume flux must be symmetric (%s), got %r"
            % (", ".join(VOLUME_KINDS), kind)
        )
