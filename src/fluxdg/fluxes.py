"""Two-point numerical fluxes for the Euler equations (scalar kernels).

These are the reference kernels: one state pair per call, plain float
arithmetic, tuples in and out. States are indexable sequences
(rho, rho v_1..d, rho e); inside hot loops the discretization passes plain
lists so everything below runs on Python floats. The batched module carries
the lane-parallel array versions.

Every kernel is directional: the flux contracted with an arbitrary
(scaled) direction vector, linear in the direction and antisymmetric under
(u_l, u_r, n) -> (u_r, u_l, -n). A Cartesian element passes a coordinate
axis scaled by its face area.

Volume fluxes (shima, ranocha, central) are symmetric in their arguments;
llf and hll are surface-only.
"""

import math
import threading
from contextlib import contextmanager

from .errors import ConfigurationError
from .means import inv_logmean_optimized, logmean_optimized

VOLUME_KINDS = ("shima", "ranocha", "central")
SURFACE_KINDS = ("shima", "ranocha", "central", "llf", "hll")


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


# ---------------------------------------------------------------------------
# scalar helpers (floats in, floats out)

def _prim2(u, gm1):
    rho = u[0]
    v1 = u[1] / rho
    v2 = u[2] / rho
    p = gm1 * (u[3] - 0.5 * rho * (v1 * v1 + v2 * v2))
    return rho, v1, v2, p


def _prim3(u, gm1):
    rho = u[0]
    v1 = u[1] / rho
    v2 = u[2] / rho
    v3 = u[3] / rho
    p = gm1 * (u[4] - 0.5 * rho * (v1 * v1 + v2 * v2 + v3 * v3))
    return rho, v1, v2, v3, p


# ---------------------------------------------------------------------------
# kinetic-energy and pressure-equilibrium preserving flux

def flux_shima_directional(u_l, u_r, normal, gas):
    add_two_point()
    gm1 = gas.gamma - 1.0
    if len(u_l) == 4:
        rho_l, vl1, vl2, p_l = _prim2(u_l, gm1)
        rho_r, vr1, vr2, p_r = _prim2(u_r, gm1)
        v_l = (vl1, vl2)
        v_r = (vr1, vr2)
        vn_l = vl1 * normal[0] + vl2 * normal[1]
        vn_r = vr1 * normal[0] + vr2 * normal[1]
    else:
        rho_l, vl1, vl2, vl3, p_l = _prim3(u_l, gm1)
        rho_r, vr1, vr2, vr3, p_r = _prim3(u_r, gm1)
        v_l = (vl1, vl2, vl3)
        v_r = (vr1, vr2, vr3)
        vn_l = vl1 * normal[0] + vl2 * normal[1] + vl3 * normal[2]
        vn_r = vr1 * normal[0] + vr2 * normal[1] + vr3 * normal[2]
    igm1 = gas.inv_gamma_minus_one
    rho_avg = 0.5 * (rho_l + rho_r)
    p_avg = 0.5 * (p_l + p_r)
    vn_avg = 0.5 * (vn_l + vn_r)
    f_rho = rho_avg * vn_avg
    vv = 0.0
    for a, b in zip(v_l, v_r):
        vv += a * b
    f_e = 0.5 * f_rho * vv + p_avg * vn_avg * igm1 + 0.5 * (p_l * vn_r + p_r * vn_l)
    mom = tuple(
        f_rho * 0.5 * (a + b) + p_avg * n for a, b, n in zip(v_l, v_r, normal)
    )
    return (f_rho,) + mom + (f_e,)


# ---------------------------------------------------------------------------
# entropy-conservative flux

def flux_ranocha_directional(u_l, u_r, normal, gas):
    add_two_point()
    gm1 = gas.gamma - 1.0
    if len(u_l) == 4:
        rho_l, vl1, vl2, p_l = _prim2(u_l, gm1)
        rho_r, vr1, vr2, p_r = _prim2(u_r, gm1)
        v_l = (vl1, vl2)
        v_r = (vr1, vr2)
        vn_l = vl1 * normal[0] + vl2 * normal[1]
        vn_r = vr1 * normal[0] + vr2 * normal[1]
    else:
        rho_l, vl1, vl2, vl3, p_l = _prim3(u_l, gm1)
        rho_r, vr1, vr2, vr3, p_r = _prim3(u_r, gm1)
        v_l = (vl1, vl2, vl3)
        v_r = (vr1, vr2, vr3)
        vn_l = vl1 * normal[0] + vl2 * normal[1] + vl3 * normal[2]
        vn_r = vr1 * normal[0] + vr2 * normal[1] + vr3 * normal[2]
    igm1 = gas.inv_gamma_minus_one
    add_logmean(2)
    rho_mean = logmean_optimized(rho_l, rho_r)
    inv_rho_p_mean = p_l * p_r * inv_logmean_optimized(rho_l * p_r, rho_r * p_l)
    p_avg = 0.5 * (p_l + p_r)
    vn_avg = 0.5 * (vn_l + vn_r)
    f_rho = rho_mean * vn_avg
    vv = 0.0
    for a, b in zip(v_l, v_r):
        vv += a * b
    f_e = f_rho * (0.5 * vv + igm1 * inv_rho_p_mean) + 0.5 * (p_l * vn_r + p_r * vn_l)
    mom = tuple(
        f_rho * 0.5 * (a + b) + p_avg * n for a, b, n in zip(v_l, v_r, normal)
    )
    return (f_rho,) + mom + (f_e,)


# ---------------------------------------------------------------------------
# central flux and one-point physical flux helpers

def _phys_flux_n(u, rho, v, p, normal):
    """Physical flux contracted with a (scaled) direction; tuple out."""
    vn = 0.0
    for a, n in zip(v, normal):
        vn += a * n
    nv = len(u) - 1
    mom = tuple(u[1 + i] * vn + p * normal[i] for i in range(nv - 1))
    return (rho * vn,) + mom + ((u[nv] + p) * vn,)


def flux_central_directional(u_l, u_r, normal, gas):
    add_two_point()
    gm1 = gas.gamma - 1.0
    if len(u_l) == 4:
        rho_l, vl1, vl2, p_l = _prim2(u_l, gm1)
        rho_r, vr1, vr2, p_r = _prim2(u_r, gm1)
        v_l = (vl1, vl2)
        v_r = (vr1, vr2)
    else:
        rho_l, vl1, vl2, vl3, p_l = _prim3(u_l, gm1)
        rho_r, vr1, vr2, vr3, p_r = _prim3(u_r, gm1)
        v_l = (vl1, vl2, vl3)
        v_r = (vr1, vr2, vr3)
    f_l = _phys_flux_n(u_l, rho_l, v_l, p_l, normal)
    f_r = _phys_flux_n(u_r, rho_r, v_r, p_r, normal)
    return tuple(0.5 * (a + b) for a, b in zip(f_l, f_r))


# ---------------------------------------------------------------------------
# dissipative surface fluxes

def _split_normal(normal):
    nn = 0.0
    for c in normal:
        nn += c * c
    nn = math.sqrt(nn)
    return nn, tuple(c / nn for c in normal)


def flux_llf_directional(u_l, u_r, normal, gas):
    add_two_point()
    gm1 = gas.gamma - 1.0
    if len(u_l) == 4:
        rho_l, vl1, vl2, p_l = _prim2(u_l, gm1)
        rho_r, vr1, vr2, p_r = _prim2(u_r, gm1)
        v_l = (vl1, vl2)
        v_r = (vr1, vr2)
    else:
        rho_l, vl1, vl2, vl3, p_l = _prim3(u_l, gm1)
        rho_r, vr1, vr2, vr3, p_r = _prim3(u_r, gm1)
        v_l = (vl1, vl2, vl3)
        v_r = (vr1, vr2, vr3)
    norm, unit = _split_normal(normal)
    vn_l = 0.0
    vn_r = 0.0
    for a, b, n in zip(v_l, v_r, unit):
        vn_l += a * n
        vn_r += b * n
    lam = max(
        abs(vn_l) + math.sqrt(gas.gamma * p_l / rho_l),
        abs(vn_r) + math.sqrt(gas.gamma * p_r / rho_r),
    )
    f_l = _phys_flux_n(u_l, rho_l, v_l, p_l, normal)
    f_r = _phys_flux_n(u_r, rho_r, v_r, p_r, normal)
    halfdiss = 0.5 * lam * norm
    return tuple(
        0.5 * (a + b) - halfdiss * (ur - ul)
        for a, b, ul, ur in zip(f_l, f_r, u_l, u_r)
    )


def flux_hll_directional(u_l, u_r, normal, gas):
    add_two_point()
    gm1 = gas.gamma - 1.0
    if len(u_l) == 4:
        rho_l, vl1, vl2, p_l = _prim2(u_l, gm1)
        rho_r, vr1, vr2, p_r = _prim2(u_r, gm1)
        v_l = (vl1, vl2)
        v_r = (vr1, vr2)
    else:
        rho_l, vl1, vl2, vl3, p_l = _prim3(u_l, gm1)
        rho_r, vr1, vr2, vr3, p_r = _prim3(u_r, gm1)
        v_l = (vl1, vl2, vl3)
        v_r = (vr1, vr2, vr3)
    norm, unit = _split_normal(normal)
    vn_l = 0.0
    vn_r = 0.0
    for a, b, n in zip(v_l, v_r, unit):
        vn_l += a * n
        vn_r += b * n
    c_l = math.sqrt(gas.gamma * p_l / rho_l)
    c_r = math.sqrt(gas.gamma * p_r / rho_r)
    # Davis estimates
    s_l = min(vn_l - c_l, vn_r - c_r)
    s_r = max(vn_l + c_l, vn_r + c_r)
    f_l = _phys_flux_n(u_l, rho_l, v_l, p_l, unit)
    f_r = _phys_flux_n(u_r, rho_r, v_r, p_r, unit)
    if s_l >= 0.0:
        f = f_l
    elif s_r <= 0.0:
        f = f_r
    else:
        inv = 1.0 / (s_r - s_l)
        f = tuple(
            (s_r * a - s_l * b + s_l * s_r * (ur - ul)) * inv
            for a, b, ul, ur in zip(f_l, f_r, u_l, u_r)
        )
    return tuple(norm * c for c in f)


# ---------------------------------------------------------------------------
# dispatch

_DIRECTIONAL = {
    "shima": flux_shima_directional,
    "ranocha": flux_ranocha_directional,
    "central": flux_central_directional,
    "llf": flux_llf_directional,
    "hll": flux_hll_directional,
}


def flux_function(kind):
    """Look up the scalar directional flux kernel of a flux kind."""
    fn = _DIRECTIONAL.get(kind)
    if fn is None:
        raise ConfigurationError(
            "unknown flux kind %r (choose from %s)"
            % (kind, ", ".join(sorted(_DIRECTIONAL)))
        )
    return fn


def require_volume_kind(kind):
    if kind not in VOLUME_KINDS:
        raise ConfigurationError(
            "volume flux must be symmetric (%s), got %r"
            % (", ".join(VOLUME_KINDS), kind)
        )
