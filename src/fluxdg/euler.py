"""Compressible Euler equations: states, fluxes, entropy pair.

Conserved states are numpy arrays with the variable index last,
u = (rho, rho*v_1 .. rho*v_d, rho*e), so fields of shape
(n_elements, n_nodes, d+2) broadcast through every function here. The
spatial dimension is inferred from the trailing axis length.

Direction arguments are 0-based axis indices, matching numpy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError


@dataclass(frozen=True)
class GasParams:
    """Ideal-gas parameters. inv_gamma_minus_one is precomputed because the
    energy fluxes multiply by it in every evaluation."""

    gamma: float = 1.4
    inv_gamma_minus_one: float = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise AdmissibilityError(
                "gamma must be finite and exceed 1, got %r" % (self.gamma,)
            )
        object.__setattr__(self, "inv_gamma_minus_one", 1.0 / (self.gamma - 1.0))


def _dim(u):
    d = u.shape[-1] - 2
    if d not in (1, 2, 3):
        raise AdmissibilityError("state vector length %d is not d+2 for d in 1..3" % u.shape[-1])
    return d


def _require_admissible(q, what):
    """Raise unless every rho and p of the primitive array q is finite and
    positive. The error's `index` is the first bad state's; for a field of
    shape (n_elements, n_nodes, d+2) the message names its element and
    node.

    The test is two reductions, each over one contiguous array made by a
    single elementwise pass over the strided rho and p columns: a NaN
    fails min(rho, p) > 0 (both propagate it), -inf and non-positive values
    fail it too, and +inf fails max(rho, p) < inf. The per-state mask is
    built only to locate a failure."""
    d = q.shape[-1] - 2
    rho, p = q[..., 0], q[..., d + 1]
    if rho.size == 0 or (
        np.minimum(rho, p).min() > 0.0 and np.maximum(rho, p).max() < np.inf
    ):
        return
    bad = ~(np.isfinite(rho) & np.isfinite(p) & (rho > 0.0) & (p > 0.0))
    k = np.unravel_index(np.argmax(bad), bad.shape)
    where = " at element %d, node %d" % k if bad.ndim == 2 else ""
    err = AdmissibilityError(
        "%s: inadmissible state%s: rho=%r, p=%r"
        % (what, where, float(rho[k]), float(p[k]))
    )
    err.index = k
    raise err


def _sum_squares(v):
    """sum_i v_i^2 over the trailing axis, added one component at a time in
    index order: the same floats as np.sum(v * v, axis=-1), without a
    reduction over an axis of length d."""
    acc = v[..., 0] * v[..., 0]
    for i in range(1, v.shape[-1]):
        acc += v[..., i] * v[..., i]
    return acc


def cons2prim(u, gas):
    """Conserved -> primitive (rho, v_1..v_d, p). v and p are written
    straight into the result, v one component at a time (see
    _sum_squares): a per-state rho broadcast against the velocity block
    costs more than d strided divisions."""
    u = np.asarray(u, dtype=float)
    d = _dim(u)
    q = np.empty_like(u)
    rho = u[..., 0]
    q[..., 0] = rho
    for i in range(1, d + 1):
        np.divide(u[..., i], rho, out=q[..., i])
    v = q[..., 1 : d + 1]
    kinetic = 0.5 * rho * _sum_squares(v)
    p = np.subtract(u[..., d + 1], kinetic, out=q[..., d + 1])
    p *= gas.gamma - 1.0
    _require_admissible(q, "cons2prim")
    return q


def prim2cons(q, gas):
    """Primitive (rho, v, p) -> conserved, the momenta one component at a
    time."""
    q = np.asarray(q, dtype=float)
    d = _dim(q)
    rho = q[..., 0]
    v = q[..., 1 : d + 1]
    p = q[..., d + 1]
    _require_admissible(q, "prim2cons")
    u = np.empty_like(q)
    u[..., 0] = rho
    for i in range(1, d + 1):
        np.multiply(rho, q[..., i], out=u[..., i])
    u[..., d + 1] = p * gas.inv_gamma_minus_one + 0.5 * rho * _sum_squares(v)
    return u


def physical_fluxes(u, q, directions):
    """Yield the Euler flux along each direction of `directions`, from the
    conserved states u and their primitives q = cons2prim(u). Every flux is
    written component by component into one buffer shaped like u, which
    each direction reuses, so a caller reads a flux before it asks for the
    next; E + p is formed once per call.

    A direction is a Python int axis index n, which gives f^n(u): v.n is
    the velocity column v_n, and the pressure goes onto momentum row n
    only. Otherwise it is an array of (scaled) normals with a trailing axis
    of length d that broadcasts against u's leading axes, which gives
    sum_j normal_j f^j(u)."""
    d = u.shape[-1] - 2
    rho, p = q[..., 0], q[..., d + 1]
    e_plus_p = u[..., d + 1] + p
    f = np.empty(u.shape)
    for normal in directions:
        axis = isinstance(normal, int)
        if axis:
            vn = q[..., 1 + normal]
        else:
            vn = q[..., 1] * normal[..., 0]
            for i in range(1, d):
                vn += q[..., 1 + i] * normal[..., i]
        np.multiply(rho, vn, out=f[..., 0])
        for i in range(1, d + 1):
            np.multiply(u[..., i], vn, out=f[..., i])
        if axis:
            f[..., 1 + normal] += p
        else:
            for i in range(d):
                f[..., 1 + i] += p * normal[..., i]
        np.multiply(e_plus_p, vn, out=f[..., d + 1])
        yield f


def max_signal_speed(u, gas):
    """|v| + c per state; the CFL condition uses this."""
    q = cons2prim(u, gas)
    v = q[..., 1:-1]
    c = np.sqrt(gas.gamma * q[..., -1] / q[..., 0])
    return np.sqrt(_sum_squares(v)) + c


def prim2entropy(q, gas):
    """Entropy variables w for the entropy U = -rho s / (gamma - 1),
    s = log p - gamma log rho, from primitives q = cons2prim(u); the
    velocity rows one component at a time."""
    d = q.shape[-1] - 2
    rho = q[..., 0]
    v = q[..., 1 : d + 1]
    p = q[..., d + 1]
    s = np.log(p) - gas.gamma * np.log(rho)
    rho_p = rho / p
    w = np.empty_like(q)
    kinetic = 0.5 * rho_p * _sum_squares(v)
    w[..., 0] = (gas.gamma - s) * gas.inv_gamma_minus_one - kinetic
    for i in range(1, d + 1):
        np.multiply(rho_p, q[..., i], out=w[..., i])
    w[..., d + 1] = -rho_p
    return w


def entropy2prim(w, gas):
    """Inverse of prim2entropy. Raises if w is not the image of an
    admissible state (w_last must be negative, which leaves rho or p
    non-finite otherwise). v, p and rho are written straight into the
    result, v one component at a time."""
    w = np.asarray(w, dtype=float)
    d = _dim(w)
    b = -w[..., d + 1]  # rho/p
    gm1 = gas.gamma - 1.0
    q = np.empty_like(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, d + 1):
            np.divide(w[..., i], b, out=q[..., i])
        v = q[..., 1 : d + 1]
        s = gas.gamma - gm1 * (w[..., 0] + 0.5 * b * _sum_squares(v))
        # s = log p - gamma log rho and rho = b p give
        # log p = (s + gamma log b) / (1 - gamma)
        p = np.exp((s + gas.gamma * np.log(b)) / (1.0 - gas.gamma), out=q[..., d + 1])
        np.multiply(b, p, out=q[..., 0])
    _require_admissible(q, "entropy2prim")
    return q


def entropy_vars(u, gas):
    """Entropy variables w(u) of conserved states."""
    return prim2entropy(cons2prim(u, gas), gas)


def entropy2cons(w, gas):
    """Inverse of entropy_vars."""
    return prim2cons(entropy2prim(w, gas), gas)


def entropy_and_potential(u, gas):
    """Entropy U(u) and the flux potentials psi^j = rho v_j.

    Returns (U, psi) with psi having one trailing component per direction.
    The contraction w . f^j - psi^j recovers the entropy flux F^j = v_j U.
    """
    q = cons2prim(u, gas)
    d = q.shape[-1] - 2
    rho = q[..., 0]
    v = q[..., 1 : d + 1]
    p = q[..., d + 1]
    s = np.log(p) - gas.gamma * np.log(rho)
    entropy = -rho * s * gas.inv_gamma_minus_one
    psi = rho[..., None] * v
    return entropy, psi
