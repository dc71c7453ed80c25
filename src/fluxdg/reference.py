"""The scalar oracle: what `rhs(kernel="reference")` runs and the lane
kernels of `fluxdg.batched` are tested against (relative 1e-13).

One state pair per flux call, plain float arithmetic, fixed accumulation
order, bitwise reproducible, and slow by design; the speed of these loops
sets the run time of the test suite, so they are kept as they are. States
are indexable sequences (rho, rho v_1..d, rho e), plain lists inside the
loops, tuples out. Every flux is directional (see `fluxes`): a Cartesian
element passes a coordinate axis scaled by its face area.

The log means switch from the log quotient to a truncated series once
z = ((a+ - a-)/(a+ + a-))^2 falls below fluxes.SERIES_EPSILON, forming the
sum and the jump once; the lane means (batched.logmean_batched,
inv_logmean_batched) evaluate the same expressions lane by lane.
logmean_reference, the textbook quotient, is the log mean's own oracle.

volume_fluxdiff (one Lobatto element) and scalar_gauss_volume
(gauss_fluxdiff, one direction) share the line kernel _line_terms;
surface_terms is the one scalar surface loop of every scheme. `rhs`
calls them through the names bound in `fluxdg.discretization`.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError
from .fluxes import (
    SERIES_EPSILON,
    add_logmean,
    add_one_point,
    add_two_point,
    require_volume_kind,
)
from .geometry import MetricTerms, node_ja
from .operators import hybridized_scatter, split_pairs


# ---------------------------------------------------------------------------
# scalar log means (floats in, floats out)

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
# split-form volume fluxes: kinetic-energy and pressure-equilibrium
# preserving (shima) and entropy-conservative (ranocha)

def _split_form(kind, u_l, u_r, normal, gas):
    """The split-form fluxes, which differ only in two terms: shima takes
    the arithmetic density mean and the internal energy flux
    {{p}} {{v.n}} / (gamma - 1), ranocha the logarithmic density mean and
    {{rho}}_log {{v.n}} / ((gamma - 1) {{rho/p}}_log)."""
    add_two_point()
    gm1 = gas.gamma - 1.0
    # unrolled per dimension: a generic loop is slower, and these kernels
    # set the run time of the scalar oracle
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
    if kind == "ranocha":
        add_logmean(2)
        rho_mean = logmean_optimized(rho_l, rho_r)
        inv_rho_p_mean = p_l * p_r * inv_logmean_optimized(rho_l * p_r, rho_r * p_l)
    else:
        rho_mean = 0.5 * (rho_l + rho_r)
    p_avg = 0.5 * (p_l + p_r)
    vn_avg = 0.5 * (vn_l + vn_r)
    f_rho = rho_mean * vn_avg
    vv = 0.0
    for a, b in zip(v_l, v_r):
        vv += a * b
    if kind == "ranocha":
        f_e = f_rho * (0.5 * vv + igm1 * inv_rho_p_mean)
    else:
        f_e = 0.5 * f_rho * vv + p_avg * vn_avg * igm1
    f_e += 0.5 * (p_l * vn_r + p_r * vn_l)
    mom = tuple(
        f_rho * 0.5 * (a + b) + p_avg * n for a, b, n in zip(v_l, v_r, normal)
    )
    return (f_rho,) + mom + (f_e,)


def flux_shima_directional(u_l, u_r, normal, gas):
    return _split_form("shima", u_l, u_r, normal, gas)


def flux_ranocha_directional(u_l, u_r, normal, gas):
    return _split_form("ranocha", u_l, u_r, normal, gas)


# ---------------------------------------------------------------------------
# central flux and one-point physical flux helpers

def phys_flux_n(u, rho, v, p, normal):
    """Physical flux contracted with a (scaled) direction; tuple out."""
    vn = 0.0
    for a, n in zip(v, normal):
        vn += a * n
    nv = len(u) - 1
    mom = tuple(u[1 + i] * vn + p * normal[i] for i in range(nv - 1))
    return (rho * vn,) + mom + ((u[nv] + p) * vn,)


def _prim(u, gm1):
    """(rho, v, p) of one conserved state, v a tuple."""
    if len(u) == 4:
        rho, v1, v2, p = _prim2(u, gm1)
        return rho, (v1, v2), p
    rho, v1, v2, v3, p = _prim3(u, gm1)
    return rho, (v1, v2, v3), p


def flux_central_directional(u_l, u_r, normal, gas):
    add_two_point()
    gm1 = gas.gamma - 1.0
    f_l = phys_flux_n(u_l, *_prim(u_l, gm1), normal)
    f_r = phys_flux_n(u_r, *_prim(u_r, gm1), normal)
    return tuple(0.5 * (a + b) for a, b in zip(f_l, f_r))


# ---------------------------------------------------------------------------
# dissipative surface fluxes: wave speeds bounded against the scaled normal

def _scaled_speeds(q_l, q_r, normal, gas):
    """(v_l.n, v_r.n, c_l |n|, c_r |n|) from two (rho, v, p) states on the
    scaled normal n: the wave speeds in units of |n|, so no unit normal is
    formed."""
    (rho_l, v_l, p_l), (rho_r, v_r, p_r) = q_l, q_r
    nn = 0.0
    vn_l = 0.0
    vn_r = 0.0
    for a, b, c in zip(v_l, v_r, normal):
        nn += c * c
        vn_l += a * c
        vn_r += b * c
    norm = math.sqrt(nn)
    cn_l = math.sqrt(gas.gamma * p_l / rho_l) * norm
    cn_r = math.sqrt(gas.gamma * p_r / rho_r) * norm
    return vn_l, vn_r, cn_l, cn_r


def flux_llf_directional(u_l, u_r, normal, gas):
    add_two_point()
    gm1 = gas.gamma - 1.0
    q_l = _prim(u_l, gm1)
    q_r = _prim(u_r, gm1)
    vn_l, vn_r, cn_l, cn_r = _scaled_speeds(q_l, q_r, normal, gas)
    # lam |n| = max(|v_l.n| + c_l |n|, |v_r.n| + c_r |n|)
    halfdiss = 0.5 * max(abs(vn_l) + cn_l, abs(vn_r) + cn_r)
    f_l = phys_flux_n(u_l, *q_l, normal)
    f_r = phys_flux_n(u_r, *q_r, normal)
    return tuple(
        0.5 * (a + b) - halfdiss * (ur - ul)
        for a, b, ul, ur in zip(f_l, f_r, u_l, u_r)
    )


def flux_hll_directional(u_l, u_r, normal, gas):
    add_two_point()
    gm1 = gas.gamma - 1.0
    q_l = _prim(u_l, gm1)
    q_r = _prim(u_r, gm1)
    vn_l, vn_r, cn_l, cn_r = _scaled_speeds(q_l, q_r, normal, gas)
    # Davis estimates, in units of |n|
    s_l = min(vn_l - cn_l, vn_r - cn_r)
    s_r = max(vn_l + cn_l, vn_r + cn_r)
    f_l = phys_flux_n(u_l, *q_l, normal)
    f_r = phys_flux_n(u_r, *q_r, normal)
    if s_l >= 0.0:
        return f_l
    if s_r <= 0.0:
        return f_r
    inv = 1.0 / (s_r - s_l)
    return tuple(
        (s_r * a - s_l * b + s_l * s_r * (ur - ul)) * inv
        for a, b, ul, ur in zip(f_l, f_r, u_l, u_r)
    )


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


# ---------------------------------------------------------------------------
# metric terms of one element

def element_metrics(metrics, element):
    """One element's metric terms in node layout: a (nodes, d, d) copy
    gathered from the line store (node_ja) and a view of its Jacobian."""
    d = metrics.line_ja.shape[0]
    rows = [node_ja(metrics, n)[element].reshape(-1, d) for n in range(d)]
    return MetricTerms(np.stack(rows, axis=1), metrics.jac[element])


# ---------------------------------------------------------------------------
# node index lines of the scalar loops

@lru_cache(maxsize=None)
def node_lines(p1, d):
    """Node indices of a (p1)^d tensor-product element grouped into 1D lines,
    one (n_lines, p1) integer array per direction. Every node sits in exactly
    one line per direction, so scattering per line covers the element."""
    idx = np.arange(p1**d).reshape((p1,) * d)
    out = []
    for n in range(d):
        lines = np.ascontiguousarray(np.moveaxis(idx, n, -1).reshape(-1, p1))
        lines.flags.writeable = False
        out.append(lines)
    return tuple(out)


@lru_cache(maxsize=None)
def node_line_lists(p1, d):
    return tuple(arr.tolist() for arr in node_lines(p1, d))


# ---------------------------------------------------------------------------
# scalar assembly: two-point volume terms and the interface coupling

def volume_fluxdiff(u_elem, op, metrics, vol_flux, gas):
    """Flux-differencing volume term of one element with the split
    derivative matrix of the Lobatto operator op (operators.split_pairs).

    Pairs are visited once with i < k per line; the symmetric two-point flux
    along the arithmetically averaged metric vectors is scattered with the
    stored (i,k) and (k,i) matrix weights, preserving the operator's
    M-antisymmetry exactly in floating point.
    """
    require_volume_kind(vol_flux)
    nvar = u_elem.shape[-1]
    pairs = split_pairs(op.degree)
    dirn = flux_function(vol_flux)
    states = u_elem.tolist()
    acc = [[0.0] * nvar for _ in range(u_elem.shape[0])]
    for n, lines in enumerate(node_line_lists(op.n_nodes, nvar - 2)):
        jan = metrics.ja[:, n, :].tolist()
        for line in lines:
            _line_terms(states, line, jan, pairs, dirn, gas, nvar, acc)
    out = np.asarray(acc)
    out /= metrics.jac[:, None]
    return out


def _line_terms(states, line, jan, pairs, dirn, gas, nvar, acc, coupling=()):
    """Accumulate one node line's two-point terms into acc (list rows).

    states/jan are element-wide lists indexed by node id and line the
    line's node ids. Each pair (a, b, c_ab, c_ba) of the table adds
    c_ab F(a, b) into node line[a] and c_ba F(a, b) into line[b], the flux
    taken along the mean metric vector. coupling, on Gauss grids, holds per
    side (face state, face metric, c_vol, c_face, lift row) of
    operators.hybridized_scatter: each node line[a] adds c_vol[a] F(a, face)
    and c_face[a] F(a, face) goes into the side's face-row sum, which the
    lift row carries back onto the line. The face-face (corner) term is left
    out: it cancels against the strong-form surface subtraction (see rhs).
    """
    for a, b, cab, cba in pairs:
        i = line[a]
        k = line[b]
        alpha = tuple(0.5 * (x + y) for x, y in zip(jan[i], jan[k]))
        f = dirn(states[i], states[k], alpha, gas)
        ai = acc[i]
        ak = acc[k]
        for v in range(nvar):
            fv = f[v]
            ai[v] += cab * fv
            ak[v] += cba * fv
    for fstate, fja, cvol, cface, lrow in coupling:
        rface = [0.0] * nvar
        for a, i in enumerate(line):
            alpha = tuple(0.5 * (x + y) for x, y in zip(jan[i], fja))
            f = dirn(states[i], fstate, alpha, gas)
            ai = acc[i]
            ca = cvol[a]
            cf = cface[a]
            for v in range(nvar):
                fv = f[v]
                ai[v] += ca * fv
                rface[v] += cf * fv
        for i, la in zip(line, lrow):
            ai = acc[i]
            for v in range(nvar):
                ai[v] += la * rface[v]


def scalar_gauss_volume(u, faces, setup, n, config, out):
    """Zero-corner hybridized volume term of gauss_fluxdiff in direction n,
    divided by J and added into out; faces are the direction's projected
    states. The pair weights come from operators.hybridized_scatter, the
    entries of build_hybridized(op); the tests check the result
    against the dense hybridized operator applied to every ordered pair.
    """
    require_volume_kind(config.volume_flux)
    op = setup.op
    nvar = u.shape[-1]
    lines = node_line_lists(op.n_nodes, setup.d)[n]
    pairs, vol_face, lift = hybridized_scatter(op.degree, op.family)
    dirn = flux_function(config.volume_flux)
    metrics = setup.metrics
    face_ja = metrics.face_ja[n]
    volume_ja = node_ja(metrics, n)
    sides = [(uf.tolist(), face_ja[s].tolist()) for s, (uf, _qf) in enumerate(faces)]
    acc = np.zeros_like(u).tolist()
    for e in range(setup.n_elements):
        states = u[e].tolist()
        jan = volume_ja[e].reshape(-1, setup.d).tolist()
        for m, line in enumerate(lines):
            coupling = [
                (fs[e][m], fja[e][m], cvol, cface, lrow)
                for (fs, fja), (cvol, cface), lrow in zip(sides, vol_face, lift)
            ]
            _line_terms(states, line, jan, pairs, dirn, setup.gas, nvar, acc[e], coupling)
    out += np.asarray(acc) / metrics.jac[:, :, None]


def surface_terms(faces, setup, n, surface_flux, subtract_own, out):
    """Interface coupling in direction n for every scheme, the scalar oracle
    of batched.mesh_surface and batched.mesh_gauss_surface; `rhs` reaches it
    only with kernel="reference".

    faces are the direction's states from face_states. Each interior face
    point gets one numerical flux between the minus element's side-1 state
    and its plus neighbour's side-0 state, lifted into the two elements with
    opposite signs through the rows boundary_interp / weights, skipping zero
    entries (on Lobatto grids that leaves the one boundary node), and
    divided by J. subtract_own switches to the strong-form coupling
    f_num - f(own face state). Adds the SURF part of du/dt = -(VOL + SURF)
    into out.
    """
    op = setup.op
    gas = setup.gas
    nvar = out.shape[-1]
    kernel = flux_function(surface_flux)
    (u0, q0), (u1, q1) = faces
    minus, plus = u1.tolist(), u0.tolist()
    q_minus, q_plus = q1.tolist(), q0.tolist()
    # nonzero entries of the lift rows, negated for the plus neighbour
    lift_p, lift_m = (
        [(a, sign * la) for a, la in enumerate(row) if la != 0.0]
        for sign, row in zip((-1.0, 1.0), (op.boundary_interp / op.weights).tolist())
    )
    lines = node_line_lists(op.n_nodes, setup.d)[n]
    jac = setup.metrics.jac.tolist()
    normals = setup.metrics.face_ja[n][1].tolist()
    acc = out.tolist()
    for f, ep in enumerate(setup.plus_neighbor[n].tolist()):
        for m, nrm in enumerate(normals[f]):
            ul = minus[f][m]
            ur = plus[ep][m]
            fm = fp = kernel(ul, ur, nrm, gas)
            if subtract_own:
                add_one_point(2)
                ql = q_minus[f][m]
                qr = q_plus[ep][m]
                own_m = phys_flux_n(ul, ql[0], ql[1:-1], ql[-1], nrm)
                own_p = phys_flux_n(ur, qr[0], qr[1:-1], qr[-1], nrm)
                fm = [a - b for a, b in zip(fm, own_m)]
                fp = [a - b for a, b in zip(fp, own_p)]
            line = lines[m]
            for e, lift, flux in ((f, lift_m, fm), (ep, lift_p, fp)):
                for a, la in lift:
                    i = line[a]
                    s = la / jac[e][i]
                    row = acc[e][i]
                    for v in range(nvar):
                        row[v] += s * flux[v]
    out[...] = acc
    return out
