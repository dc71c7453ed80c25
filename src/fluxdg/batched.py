"""Mesh-level lane kernels: the production path of `rhs(kernel="batched")`.

The reference kernels in `fluxes` take one state pair per call. Here the
same arithmetic runs on numpy arrays whose last axis is a lane: for the
volume terms, a lane is one 1D node line (all lines of a direction across
the whole mesh are folded together), for the surface terms one face point.
The pair structure stays in the outer loop, so a (p+1)-node line still does
its p(p+1)/2 two-point evaluations, each as one vectorized call over all
lanes at once. Every entry point (`mesh_*`) takes the whole mesh together
with its nodal primitives, which `rhs` converts once per RHS rather than
once per pair evaluation; only face states that are not nodal values (Gauss
traces, entropy-projected states) are converted here.

Equivalence with the scalar path is a strict contract (relative 1e-13, see
the tests); the expressions below mirror the scalar kernels operation by
operation, so differences come only from the libm/numpy log and sqrt ulps
and from fused scatter order.

Evaluation counters are bumped by the number of lanes per call, so
counting lane work as logical per-pair evaluations matches the scalar
kernels exactly.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError
from .euler import cons2prim
from .fluxes import add_logmean, add_one_point, add_two_point, require_volume_kind
from .means import SERIES_EPSILON
from .operators import hybridized_scatter, pair_table, skew_pair_table

_AXIS = {
    2: ((1.0, 0.0), (0.0, 1.0)),
    3: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
}


# ---------------------------------------------------------------------------
# branchless log-mean

def logmean_batched(a, b):
    """Per-lane logarithmic mean, both branches evaluated and blended by the
    series mask (no data-dependent scalar branching)."""
    u = (a * (a - 2.0 * b) + b * b) / (a * (a + 2.0 * b) + b * b)
    series = (a + b) / (2.0 + u * (2.0 / 3.0 + u * (2.0 / 5.0 + u * (2.0 / 7.0))))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (b - a) / np.log(b / a)
    return np.where(u < SERIES_EPSILON, series, direct)


def inv_logmean_batched(a, b):
    u = (a * (a - 2.0 * b) + b * b) / (a * (a + 2.0 * b) + b * b)
    series = (2.0 + u * (2.0 / 3.0 + u * (2.0 / 5.0 + u * (2.0 / 7.0)))) / (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.log(b / a) / (b - a)
    return np.where(u < SERIES_EPSILON, series, direct)


# ---------------------------------------------------------------------------
# lane kernels

class Lanes(NamedTuple):
    """Primitive (and optionally conserved) arrays over one lane set."""

    rho: np.ndarray
    v: tuple
    p: np.ndarray
    u: Optional[tuple] = None


def _vn(v, normal):
    acc = v[0] * normal[0]
    for i in range(1, len(v)):
        acc = acc + v[i] * normal[i]
    return acc


def _shima_lanes(ql, qr, vn_l, vn_r, normal, igm1, n_real):
    add_two_point(n_real)
    rho_avg = 0.5 * (ql.rho + qr.rho)
    p_avg = 0.5 * (ql.p + qr.p)
    vn_avg = 0.5 * (vn_l + vn_r)
    f_rho = rho_avg * vn_avg
    vv = ql.v[0] * qr.v[0]
    for i in range(1, len(ql.v)):
        vv = vv + ql.v[i] * qr.v[i]
    f_e = 0.5 * f_rho * vv + p_avg * vn_avg * igm1 + 0.5 * (
        ql.p * vn_r + qr.p * vn_l
    )
    out = [f_rho]
    for i in range(len(ql.v)):
        out.append(f_rho * 0.5 * (ql.v[i] + qr.v[i]) + p_avg * normal[i])
    out.append(f_e)
    return out


def _ranocha_lanes(ql, qr, vn_l, vn_r, normal, igm1, n_real):
    add_two_point(n_real)
    add_logmean(2 * n_real)
    rho_mean = logmean_batched(ql.rho, qr.rho)
    inv_rho_p_mean = ql.p * qr.p * inv_logmean_batched(ql.rho * qr.p, qr.rho * ql.p)
    p_avg = 0.5 * (ql.p + qr.p)
    vn_avg = 0.5 * (vn_l + vn_r)
    f_rho = rho_mean * vn_avg
    vv = ql.v[0] * qr.v[0]
    for i in range(1, len(ql.v)):
        vv = vv + ql.v[i] * qr.v[i]
    f_e = f_rho * (0.5 * vv + igm1 * inv_rho_p_mean) + 0.5 * (
        ql.p * vn_r + qr.p * vn_l
    )
    out = [f_rho]
    for i in range(len(ql.v)):
        out.append(f_rho * 0.5 * (ql.v[i] + qr.v[i]) + p_avg * normal[i])
    out.append(f_e)
    return out


def _phys_lanes(q, normal):
    d = len(q.v)
    vn = _vn(q.v, normal)
    out = [q.rho * vn]
    for i in range(d):
        out.append(q.u[1 + i] * vn + q.p * normal[i])
    out.append((q.u[d + 1] + q.p) * vn)
    return out


def _central_lanes(ql, qr, normal, n_real):
    add_two_point(n_real)
    f_l = _phys_lanes(ql, normal)
    f_r = _phys_lanes(qr, normal)
    return [0.5 * (a + b) for a, b in zip(f_l, f_r)]


def _unit_normal(normal):
    nn = normal[0] * normal[0]
    for i in range(1, len(normal)):
        nn = nn + normal[i] * normal[i]
    norm = np.sqrt(nn)
    return norm, tuple(c / norm for c in normal)


def _llf_lanes(ql, qr, normal, gas, n_real):
    add_two_point(n_real)
    norm, unit = _unit_normal(normal)
    vn_l = _vn(ql.v, unit)
    vn_r = _vn(qr.v, unit)
    lam = np.maximum(
        np.abs(vn_l) + np.sqrt(gas.gamma * ql.p / ql.rho),
        np.abs(vn_r) + np.sqrt(gas.gamma * qr.p / qr.rho),
    )
    f_l = _phys_lanes(ql, normal)
    f_r = _phys_lanes(qr, normal)
    halfdiss = 0.5 * lam * norm
    return [
        0.5 * (a + b) - halfdiss * (ur - ul)
        for a, b, ul, ur in zip(f_l, f_r, ql.u, qr.u)
    ]


def _hll_lanes(ql, qr, normal, gas, n_real):
    add_two_point(n_real)
    norm, unit = _unit_normal(normal)
    vn_l = _vn(ql.v, unit)
    vn_r = _vn(qr.v, unit)
    c_l = np.sqrt(gas.gamma * ql.p / ql.rho)
    c_r = np.sqrt(gas.gamma * qr.p / qr.rho)
    s_l = np.minimum(vn_l - c_l, vn_r - c_r)
    s_r = np.maximum(vn_l + c_l, vn_r + c_r)
    f_l = _phys_lanes(ql, unit)
    f_r = _phys_lanes(qr, unit)
    upwind_l = s_l >= 0.0
    upwind_r = s_r <= 0.0
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / (s_r - s_l)
        for a, b, ul, ur in zip(f_l, f_r, ql.u, qr.u):
            mid = (s_r * a - s_l * b + s_l * s_r * (ur - ul)) * inv
            out.append(norm * np.where(upwind_l, a, np.where(upwind_r, b, mid)))
    return out


def flux_lanes_directional(kind, ql, qr, normal, gas, n_real):
    """Directional two-point flux over lanes; normal is a tuple of per-lane
    component arrays (or plain floats for a fixed direction)."""
    if kind == "shima":
        return _shima_lanes(
            ql, qr, _vn(ql.v, normal), _vn(qr.v, normal), normal,
            gas.inv_gamma_minus_one, n_real,
        )
    if kind == "ranocha":
        return _ranocha_lanes(
            ql, qr, _vn(ql.v, normal), _vn(qr.v, normal), normal,
            gas.inv_gamma_minus_one, n_real,
        )
    if kind == "central":
        return _central_lanes(ql, qr, normal, n_real)
    if kind == "llf":
        return _llf_lanes(ql, qr, normal, gas, n_real)
    if kind == "hll":
        return _hll_lanes(ql, qr, normal, gas, n_real)
    raise ConfigurationError("unknown flux kind %r" % (kind,))


def flux_lanes_cartesian(kind, ql, qr, j, gas, n_real):
    """Coordinate-axis two-point flux over lanes (axis j, unscaled)."""
    axis = _AXIS[len(ql.v)][j]
    if kind == "shima":
        return _shima_lanes(
            ql, qr, ql.v[j], qr.v[j], axis, gas.inv_gamma_minus_one, n_real
        )
    if kind == "ranocha":
        return _ranocha_lanes(
            ql, qr, ql.v[j], qr.v[j], axis, gas.inv_gamma_minus_one, n_real
        )
    return flux_lanes_directional(kind, ql, qr, axis, gas, n_real)


# ---------------------------------------------------------------------------
# mesh-level lane assembly (elements folded into the lane axis)

def _mesh_lanes(prim, u, nodes, need_cons):
    rho = prim[:, nodes, 0].reshape(-1)
    d = prim.shape[-1] - 2
    v = tuple(prim[:, nodes, 1 + i].reshape(-1) for i in range(d))
    p = prim[:, nodes, d + 1].reshape(-1)
    uu = None
    if need_cons:
        uu = tuple(u[:, nodes, k].reshape(-1) for k in range(d + 2))
    return Lanes(rho, v, p, uu)


def mesh_fluxdiff_volume(u, prim, setup, config):
    """Flux-differencing volume term for the whole mesh, elements folded
    into the lane axis; prim = cons2prim(u). Returns the Jacobian-scaled VOL
    array."""
    gas = setup.gas
    op = setup.op
    d = setup.d
    p1 = op.n_nodes
    nvar = d + 2
    n_elem = u.shape[0]
    vol_flux = config.volume_flux
    pairs = pair_table(setup.dsplit.matrix)
    need_cons = vol_flux == "central"
    areas = (
        np.diag(setup.metrics.ja[0, 0]).tolist() if setup.metrics.cartesian else None
    )
    out = np.zeros_like(u)
    for n in range(d):
        idx = setup.lines[n]
        n_lines = idx.shape[0]
        n_lanes = n_elem * n_lines
        lanes = [_mesh_lanes(prim, u, idx[:, a], need_cons) for a in range(p1)]
        ja_lanes = None
        if areas is None:
            ja_lanes = [
                tuple(
                    setup.metrics.ja[:, idx[:, a], n, j].reshape(-1) for j in range(d)
                )
                for a in range(p1)
            ]
        acc = np.zeros((p1, n_lanes, nvar))
        for a, b, cab, cba in pairs:
            if areas is not None:
                f = flux_lanes_cartesian(vol_flux, lanes[a], lanes[b], n, gas, n_lanes)
                wa = cab * areas[n]
                wb = cba * areas[n]
            else:
                alpha = tuple(0.5 * (x + y) for x, y in zip(ja_lanes[a], ja_lanes[b]))
                f = flux_lanes_directional(
                    vol_flux, lanes[a], lanes[b], alpha, gas, n_lanes
                )
                wa = cab
                wb = cba
            ra = acc[a]
            rb = acc[b]
            for k in range(nvar):
                ra[:, k] += wa * f[k]
                rb[:, k] += wb * f[k]
        real = acc.reshape(p1, n_elem, n_lines, nvar)
        out[:, idx.reshape(-1), :] += np.moveaxis(real, 0, 2).reshape(
            n_elem, -1, nvar
        )
    out /= setup.metrics.jac[:, :, None]
    return out


def _face_traces(u, op, n, side):
    """Every element's conserved state interpolated to its reference side
    (0: -1 face, 1: +1 face) in direction n, (n_elem, face nodes, d+2)."""
    n_elem, _, nvar = u.shape
    d = nvar - 2
    u_nd = u.reshape((n_elem,) + (op.n_nodes,) * d + (nvar,))
    moved = np.moveaxis(u_nd, n + 1, -2)
    row = op.boundary_interp[side]
    return np.einsum("...kv,k->...v", moved, row).reshape(n_elem, -1, nvar)


def _side_fluxes(f, ql, qr, normal, subtract_own, n_real):
    """What the minus and plus sides lift, as (lanes, d+2) arrays: the
    interface flux itself, or for the strong form f - f(own face state)."""
    farr = np.stack(f, axis=-1)
    if not subtract_own:
        return farr, farr
    add_one_point(2 * n_real)
    fm = farr - np.stack(_phys_lanes(ql, normal), axis=-1)
    fp = farr - np.stack(_phys_lanes(qr, normal), axis=-1)
    return fm, fp


def _lift_dense(out, setup, n, fm, fp):
    """Lift per-face-point fluxes (n_elem, face nodes, d+2) in direction n
    through the dense boundary-interpolation rows: added into the minus
    element, subtracted from its plus neighbour, divided by the Jacobian."""
    op = setup.op
    jac = setup.metrics.jac
    lift_m = op.boundary_interp[1] / op.weights
    lift_p = op.boundary_interp[0] / op.weights
    idx = setup.lines[n]
    rows = setup.plus_neighbor[n][:, None]
    for a in range(op.n_nodes):
        nodes = idx[:, a]
        out[:, nodes, :] += (lift_m[a] * fm) / jac[:, nodes, None]
        cols = nodes[None, :]
        out[rows, cols, :] -= (lift_p[a] * fp) / jac[rows, cols, None]


def mesh_surface(u, prim, setup, surface_flux, out, subtract_own=False):
    """Interface terms of the strong, weak, overintegration and lgl
    flux-differencing schemes, one lane per face point, added into `out`.

    Face states are the elements' own traces of u: the boundary nodes on
    Lobatto grids (read from prim = cons2prim(u)), interpolated values
    lifted through the dense R on Gauss grids. subtract_own selects the
    strong-form coupling f_num - f(own face state). Lane counterpart of
    discretization.surface_terms."""
    gas = setup.gas
    op = setup.op
    d = setup.d
    nvar = d + 2
    n_elem = u.shape[0]
    lgl = op.family == "lgl"
    need_cons = subtract_own or surface_flux in ("central", "llf", "hll")
    w1d = op.weights
    jac = setup.metrics.jac
    for n in range(d):
        idx = setup.lines[n]
        minus_nodes = idx[:, -1]
        plus_nodes = idx[:, 0]
        nb = setup.plus_neighbor[n]
        if lgl:
            ql = _mesh_lanes(prim, u, minus_nodes, need_cons)
            qr = _mesh_lanes(prim[nb], u[nb], plus_nodes, need_cons)
        else:
            ql = _face_lanes(_face_traces(u, op, n, 1), gas)
            qr = _face_lanes(_face_traces(u, op, n, 0)[nb], gas)
        normals = setup.metrics.face_ja[n]
        fn = normals.shape[1]
        n_lanes = n_elem * fn
        alpha = tuple(normals[..., j].reshape(-1) for j in range(d))
        f = flux_lanes_directional(surface_flux, ql, qr, alpha, gas, n_lanes)
        fm, fp = _side_fluxes(f, ql, qr, alpha, subtract_own, n_lanes)
        fm = fm.reshape(n_elem, fn, nvar)
        fp = fp.reshape(n_elem, fn, nvar)
        if lgl:
            out[:, minus_nodes, :] += fm / (w1d[-1] * jac[:, minus_nodes, None])
            rows = nb[:, None]
            cols = plus_nodes[None, :]
            out[rows, cols, :] -= fp / (w1d[0] * jac[rows, cols, None])
        else:
            _lift_dense(out, setup, n, fm, fp)
    return out


def _face_lanes(states, gas):
    q = cons2prim(states, gas)
    d = q.shape[-1] - 2
    return Lanes(
        q[..., 0].reshape(-1),
        tuple(q[..., 1 + i].reshape(-1) for i in range(d)),
        q[..., d + 1].reshape(-1),
        tuple(states[..., k].reshape(-1) for k in range(d + 2)),
    )


def mesh_gauss_volume(u, prim, setup, config, proj):
    """Zero-corner hybridized volume term over the mesh; prim = cons2prim(u)
    and `proj` holds the entropy-projected face states per direction and
    side."""
    require_volume_kind(config.volume_flux)
    gas = setup.gas
    op = setup.op
    d = setup.d
    p1 = op.n_nodes
    nvar = d + 2
    n_elem = u.shape[0]
    vol_flux = config.volume_flux
    pairs, vol_face, lift = hybridized_scatter(op.degree, op.family)
    if config.volume_scheme == "gauss_surface_correction":
        pairs = skew_pair_table(op.degree, op.family)
    need_cons = vol_flux == "central"
    out = np.zeros_like(u)
    for n in range(d):
        idx = setup.lines[n]
        n_lines = idx.shape[0]
        n_lanes = n_elem * n_lines
        lanes = [_mesh_lanes(prim, u, idx[:, a], need_cons) for a in range(p1)]
        ja_lanes = [
            tuple(setup.metrics.ja[:, idx[:, a], n, j].reshape(-1) for j in range(d))
            for a in range(p1)
        ]
        face_lanes = [_face_lanes(proj[n][s], gas) for s in (0, 1)]
        eja = setup.metrics.elem_face_ja[n]
        face_ja = [
            tuple(eja[:, s, :, j].reshape(-1) for j in range(d)) for s in (0, 1)
        ]
        acc = np.zeros((p1, n_lanes, nvar))
        for a, b, cab, cba in pairs:
            alpha = tuple(0.5 * (x + y) for x, y in zip(ja_lanes[a], ja_lanes[b]))
            f = flux_lanes_directional(
                vol_flux, lanes[a], lanes[b], alpha, gas, n_lanes
            )
            ra = acc[a]
            rb = acc[b]
            for k in range(nvar):
                ra[:, k] += cab * f[k]
                rb[:, k] += cba * f[k]
        for s in (0, 1):
            cvol, cface = vol_face[s]
            rface = np.zeros((n_lanes, nvar))
            for a in range(p1):
                alpha = tuple(
                    0.5 * (x + y) for x, y in zip(ja_lanes[a], face_ja[s])
                )
                f = flux_lanes_directional(
                    vol_flux, lanes[a], face_lanes[s], alpha, gas, n_lanes
                )
                ra = acc[a]
                ca = cvol[a]
                cf = cface[a]
                for k in range(nvar):
                    ra[:, k] += ca * f[k]
                    rface[:, k] += cf * f[k]
            lrow = lift[s]
            for a in range(p1):
                if lrow[a] == 0.0:
                    continue
                acc[a] += lrow[a] * rface
        real = acc.reshape(p1, n_elem, n_lines, nvar)
        out[:, idx.reshape(-1), :] += np.moveaxis(real, 0, 2).reshape(
            n_elem, -1, nvar
        )
    out /= setup.metrics.jac[:, :, None]
    return out


def mesh_gauss_surface(u, setup, config, proj, out):
    """Interface terms for the entropy-projected gauss schemes: projected
    states, shared normals, one evaluation per adjacent element (twice per
    face, as in the scalar discretization._gauss_surface), lifted through
    the dense boundary-interpolation rows."""
    gas = setup.gas
    d = setup.d
    nvar = d + 2
    n_elem = u.shape[0]
    kind = config.surface_flux
    for n in range(d):
        nb = setup.plus_neighbor[n]
        ql = _face_lanes(proj[n][1], gas)
        qr = _face_lanes(proj[n][0][nb], gas)
        normals = setup.metrics.face_ja[n]
        fn = normals.shape[1]
        alpha = tuple(normals[..., j].reshape(-1) for j in range(d))
        n_lanes = n_elem * fn
        f_m = flux_lanes_directional(kind, ql, qr, alpha, gas, n_lanes)
        f_p = flux_lanes_directional(kind, ql, qr, alpha, gas, n_lanes)
        _lift_dense(
            out,
            setup,
            n,
            np.stack(f_m, axis=-1).reshape(n_elem, fn, nvar),
            np.stack(f_p, axis=-1).reshape(n_elem, fn, nvar),
        )
    return out
