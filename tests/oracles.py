"""Reference values and helpers that only the tests use.

The extended-precision routes go through mpmath at 50 significant digits,
far past anything double arithmetic can reach, so the production code is
compared against an independent route rather than against itself. The
plain helpers at the end (the axis flux, the algebraic means, the metric
identity residual, the dense Gauss volume term) have no caller in the
library.
"""

import mpmath
import numpy as np

from fluxdg.euler import cons2prim, directional_flux
from fluxdg.geometry import apply_along, node_ja
from fluxdg.operators import build_hybridized
from fluxdg.reference import element_metrics, flux_function, node_lines

mpmath.mp.dps = 50


def logmean_mp(a, b):
    """(b - a)/(log b - log a) at 50 digits, continuous limit at a == b."""
    am = mpmath.mpf(a)
    bm = mpmath.mpf(b)
    if am == bm:
        return float(am)
    return float((bm - am) / (mpmath.log(bm) - mpmath.log(am)))


def inv_logmean_mp(a, b):
    am = mpmath.mpf(a)
    bm = mpmath.mpf(b)
    if am == bm:
        return float(1.0 / am)
    return float((mpmath.log(bm) - mpmath.log(am)) / (bm - am))


def jump_grid(center=1.0, tiny=1e-16, huge=1e2, per_decade=4):
    """Pairs (a, b) = (center, center*(1+delta)) with relative jumps delta
    covering tiny..huge on a log grid, both signs, plus the equal pair."""
    n_decades = int(round(np.log10(huge / tiny)))
    deltas = np.logspace(np.log10(tiny), np.log10(huge), n_decades * per_decade + 1)
    pairs = [(center, center)]
    for delta in deltas:
        pairs.append((center, center * (1.0 + delta)))
        if delta < 1.0:  # keep b positive
            pairs.append((center, center * (1.0 - delta)))
    return pairs


def entropy_vars_mp(u, gamma):
    """Entropy variables of one conservative state at 50 digits, for the
    entropy U = -rho s/(gamma - 1), matching the production convention.

    Double-precision evaluation of w loses ~|w| ulps per component, which
    is too coarse to resolve flux residuals near 1e-12 at extreme states;
    this route keeps the jump computation exact for all practical purposes.
    """
    u = [mpmath.mpf(float(c)) for c in u]
    d = len(u) - 2
    gamma = mpmath.mpf(gamma)
    rho = u[0]
    v = [c / rho for c in u[1 : d + 1]]
    ke = sum(c * c for c in v) / 2
    p = (gamma - 1) * (u[d + 1] - rho * ke)
    s = mpmath.log(p) - gamma * mpmath.log(rho)
    rho_p = rho / p
    w = [(gamma - s) / (gamma - 1) - rho_p * ke]
    w.extend(rho_p * c for c in v)
    w.append(-rho_p)
    return w


def physical_flux(u, direction, gas):
    """Euler flux f^j(u) along coordinate axis `direction` (0-based)."""
    u = np.asarray(u, dtype=float)
    return directional_flux(u, cons2prim(u, gas), np.eye(u.shape[-1] - 2)[direction])


def arithmetic_mean(a_minus, a_plus):
    return 0.5 * (a_minus + a_plus)


def product_mean(a_minus, a_plus, b_minus, b_plus):
    """Mean of a product, {{a b}} = (a+ b- + a- b+)/2.

    Equals 2 {a}{b} - {ab}; keeping it in this form costs one multiplication
    less and is the form used inside the energy fluxes.
    """
    return 0.5 * (a_plus * b_minus + a_minus * b_plus)


def metric_identity_residual(metrics, op, d):
    """max |sum_n D_n (Ja)^n_j| over nodes/components; roundoff-level for
    the discrete forms the library uses."""
    n_elem = metrics.jac.shape[0]
    p1 = op.n_nodes
    worst = 0.0
    for j in range(d):
        acc = np.zeros((n_elem,) + (p1,) * d)
        for n in range(d):
            acc += apply_along(op.D, node_ja(metrics, n)[..., j], n + 1)
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst


def gauss_volume_dense(u, faces, setup, n, vol_flux):
    """The gauss_fluxdiff volume term in direction n, read off the dense
    hybridized operator: Q = build_hybridized(op) on the stacked
    line nodes [volume nodes; side-0 face; side-1 face], with the face-face
    corner zeroed. Every ordered pair (a, b) with Q[a, b] != 0 adds
    2 Q[a, b] F(u_a, u_b, mean metric); the volume rows are divided by the
    weights, the two face rows are lifted through R^T / w, and the result
    is divided by J. faces are the direction's entropy-projected states."""
    op = setup.op
    gas = setup.gas
    p1 = op.n_nodes
    q = build_hybridized(op).copy()
    q[p1:, p1:] = 0.0
    lift = (op.boundary_interp / op.weights).T
    dirn = flux_function(vol_flux)
    (u0, _q0), (u1, _q1) = faces
    face_ja = setup.metrics.face_ja[n]
    out = np.zeros_like(u)
    for e in range(setup.n_elements):
        volume_ja = element_metrics(setup.metrics, e).ja
        for m, line in enumerate(node_lines(p1, setup.d)[n]):
            states = list(u[e, line]) + [u0[e, m], u1[e, m]]
            ja = list(volume_ja[line, n]) + list(face_ja[:, e, m])
            rows = np.zeros((p1 + 2, u.shape[-1]))
            for a in range(p1 + 2):
                for b in range(p1 + 2):
                    if q[a, b] != 0.0:
                        alpha = tuple(0.5 * (ja[a] + ja[b]))
                        f = dirn(states[a].tolist(), states[b].tolist(), alpha, gas)
                        rows[a] += 2.0 * q[a, b] * np.asarray(f)
            vol = rows[:p1] / op.weights[:, None] + lift @ rows[p1:]
            out[e, line] += vol / setup.metrics.jac[e, line][:, None]
    return out
