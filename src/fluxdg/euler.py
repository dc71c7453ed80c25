"""Compressible Euler equations: states, fluxes, entropy pair.

Conserved states are numpy arrays with the variable index last,
u = (rho, rho*v_1 .. rho*v_d, rho*e), so fields of shape
(n_elements, n_nodes, d+2) broadcast through every function here. The
spatial dimension is inferred from the trailing axis length.

Direction arguments are 0-based axis indices, matching numpy.
"""

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
        if not self.gamma > 1.0:
            raise AdmissibilityError("gamma must exceed 1, got %r" % (self.gamma,))
        object.__setattr__(self, "inv_gamma_minus_one", 1.0 / (self.gamma - 1.0))


def _dim(u):
    d = u.shape[-1] - 2
    if d not in (1, 2, 3):
        raise AdmissibilityError("state vector length %d is not d+2 for d in 1..3" % u.shape[-1])
    return d


def _require_admissible(rho, p, what):
    """Raise unless every rho and p is finite and positive. The error's
    `index` is the first bad state's; for a field of shape (n_elements,
    n_nodes, d+2) the message names its element and node."""
    bad = ~(np.isfinite(rho) & np.isfinite(p) & (rho > 0.0) & (p > 0.0))
    if np.any(bad):
        k = np.unravel_index(np.argmax(bad), bad.shape)
        where = " at element %d, node %d" % k if bad.ndim == 2 else ""
        err = AdmissibilityError(
            "%s: inadmissible state%s: rho=%r, p=%r"
            % (what, where, float(rho[k]), float(p[k]))
        )
        err.index = k
        raise err


def cons2prim(u, gas):
    """Conserved -> primitive (rho, v_1..v_d, p)."""
    u = np.asarray(u, dtype=float)
    d = _dim(u)
    rho = u[..., 0]
    v = u[..., 1 : d + 1] / rho[..., None]
    kinetic = 0.5 * rho * np.sum(v * v, axis=-1)
    p = (gas.gamma - 1.0) * (u[..., d + 1] - kinetic)
    _require_admissible(rho, p, "cons2prim")
    q = np.empty_like(u)
    q[..., 0] = rho
    q[..., 1 : d + 1] = v
    q[..., d + 1] = p
    return q


def prim2cons(q, gas):
    """Primitive (rho, v, p) -> conserved."""
    q = np.asarray(q, dtype=float)
    d = _dim(q)
    rho = q[..., 0]
    v = q[..., 1 : d + 1]
    p = q[..., d + 1]
    _require_admissible(rho, p, "prim2cons")
    u = np.empty_like(q)
    u[..., 0] = rho
    u[..., 1 : d + 1] = rho[..., None] * v
    u[..., d + 1] = p * gas.inv_gamma_minus_one + 0.5 * rho * np.sum(v * v, axis=-1)
    return u


def directional_flux(u, q, normal):
    """Euler flux contracted with a (scaled) direction, sum_j normal_j f^j(u),
    from the conserved state u and its primitives q = cons2prim(u). normal
    has a trailing axis of length d and broadcasts against u's leading axes."""
    d = u.shape[-1] - 2
    vn = q[..., 1] * normal[..., 0]
    for i in range(1, d):
        vn = vn + q[..., 1 + i] * normal[..., i]
    p = q[..., d + 1]
    f = np.empty_like(u)
    f[..., 0] = q[..., 0] * vn
    for i in range(d):
        f[..., 1 + i] = u[..., 1 + i] * vn + p * normal[..., i]
    f[..., d + 1] = (u[..., d + 1] + p) * vn
    return f


def physical_flux(u, direction, gas):
    """Euler flux f^j(u) along coordinate axis `direction` (0-based)."""
    u = np.asarray(u, dtype=float)
    return directional_flux(u, cons2prim(u, gas), np.eye(_dim(u))[direction])


def max_signal_speed(u, gas):
    """|v| + c per state; the CFL condition uses this."""
    q = cons2prim(u, gas)
    v = q[..., 1:-1]
    c = np.sqrt(gas.gamma * q[..., -1] / q[..., 0])
    return np.sqrt(np.sum(v * v, axis=-1)) + c


def prim2entropy(q, gas):
    """Entropy variables w for the entropy U = -rho s / (gamma - 1),
    s = log p - gamma log rho, from primitives q = cons2prim(u)."""
    d = q.shape[-1] - 2
    rho = q[..., 0]
    v = q[..., 1 : d + 1]
    p = q[..., d + 1]
    s = np.log(p) - gas.gamma * np.log(rho)
    rho_p = rho / p
    w = np.empty_like(q)
    w[..., 0] = (gas.gamma - s) * gas.inv_gamma_minus_one - 0.5 * rho_p * np.sum(
        v * v, axis=-1
    )
    w[..., 1 : d + 1] = rho_p[..., None] * v
    w[..., d + 1] = -rho_p
    return w


def entropy2prim(w, gas):
    """Inverse of prim2entropy. Raises if w is not the image of an
    admissible state (w_last must be negative, which leaves rho or p
    non-finite otherwise)."""
    w = np.asarray(w, dtype=float)
    d = _dim(w)
    b = -w[..., d + 1]  # rho/p
    gm1 = gas.gamma - 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = w[..., 1 : d + 1] / b[..., None]
        s = gas.gamma - gm1 * (w[..., 0] + 0.5 * b * np.sum(v * v, axis=-1))
        # s = log p - gamma log rho and rho = b p give
        # log p = (s + gamma log b) / (1 - gamma)
        p = np.exp((s + gas.gamma * np.log(b)) / (1.0 - gas.gamma))
        rho = b * p
    _require_admissible(rho, p, "entropy2prim")
    q = np.empty_like(w)
    q[..., 0] = rho
    q[..., 1 : d + 1] = v
    q[..., d + 1] = p
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
