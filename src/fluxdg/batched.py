"""Mesh-level lane kernels: the production path of `rhs(kernel="batched")`.

The reference kernels in `fluxes` take one state pair per call. Here the
same arithmetic runs on numpy arrays whose last axis is a lane: for the
volume terms, a lane is one 1D node line (all lines of a direction across
the whole mesh are folded together), for the surface terms one face point.
The pair structure stays in the outer loop, so a (p+1)-node line still does
its p(p+1)/2 two-point evaluations, each as one vectorized call over all
lanes at once. Every entry point (`mesh_*`) takes the whole mesh together
with primitives that `rhs` has already made: the nodal ones, converted once
per RHS, and for the face kernels one direction's interface states from
`discretization.face_states`. Nothing here converts states.

Lanes come from the tensor layout, not from index lists: a nodal array
(n_elem, (p+1)^d, m) is an (n_elem, p+1, ..., p+1, m) tensor, and per
direction each kernel copies it, transposed, into a contiguous line buffer
(m, p+1, lanes), whose row [k, a] is component k at line position a of
every lane. Every direction has the same number of lanes, so
mesh_fluxdiff_volume allocates its line buffers (primitive rows, conserved
rows for the central flux, halved metric rows on curved meshes, and the
accumulator) once per call and refills them in every direction;
mesh_gauss_volume runs one direction per call and fills its own.

One line kernel, _line_terms, does the two-point volume work of both node
families: it walks a pair table into the (d+2, p+1, lanes) accumulator
(the split-derivative pairs on Lobatto grids, the hybridized ones on Gauss
grids) and, on Gauss grids only, the hybridized volume-face coupling. The
coupling's face-row sums start from the interface fluxes that
mesh_gauss_surface returns, so the Gauss faces are lifted inside the
accumulator, which then goes back with one add through the transposed
view of the output. On Lobatto grids the coupling cancels on the boundary
nodes and is left out; mesh_surface's lift (_lift) writes the face fluxes
into the first and last line positions. Cartesian meshes take the axis
fluxes scaled by the constant face area on both families. The lane order
is the line order of `operators.node_lines`, which the scalar path uses.

Every two-point lane kernel writes its d+2 flux rows into one (d+2, lanes)
block that the caller owns and returns that block, so the volume kernels
allocate one flux block per call and add each pair into the accumulator
with one product and one add per weight, acc[:, a] += w * f. The surface
lanes are in minus-element order (face point m of element e pairs e with
plus_neighbor[n][e]); the plus-side fluxes are gathered into element order
once through the inverse permutation, so both sides are basic-slice
updates.

Equivalence with the scalar path is a strict contract (relative 1e-13, see
the tests); the expressions below mirror the scalar kernels operation by
operation (a pair normal 0.5 x + 0.5 y from halved metric rows is the
scalar 0.5 (x + y) for normal floats), so differences come only from the
libm/numpy log and sqrt ulps and from the grouping of sums: each
direction's contributions are summed in a lane accumulator before they are
added into the output, where the scalar kernels keep one running sum per
node.

Evaluation counters are bumped by the number of lanes per call, so
counting lane work as logical per-pair evaluations matches the scalar
kernels exactly.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError

# not called here: perfbench/tracing.py names fluxdg.batched.cons2prim as a
# span boundary, and its tests require every boundary to exist
from .euler import cons2prim  # noqa: F401
from .fluxes import add_logmean, add_one_point, add_two_point, require_volume_kind
from .means import SERIES_EPSILON
from .operators import hybridized_scatter, pair_table

_AXIS = {
    2: ((1.0, 0.0), (0.0, 1.0)),
    3: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
}


# ---------------------------------------------------------------------------
# branchless log-mean

def logmean_batched(a, b):
    """Per-lane logarithmic mean, both branches evaluated and blended by the
    series mask (no data-dependent scalar branching); the sum, the jump and
    z = ((b-a)/(a+b))^2 are formed once, as in means.logmean_optimized."""
    s = a + b
    jump = b - a
    ratio = jump / s
    z = ratio * ratio
    series = s / (2.0 + z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0))))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = jump / np.log(b / a)
    return np.where(z < SERIES_EPSILON, series, direct)


def inv_logmean_batched(a, b):
    """Per-lane reciprocal log mean, the lane twin of
    means.inv_logmean_optimized."""
    s = a + b
    jump = b - a
    ratio = jump / s
    z = ratio * ratio
    series = (2.0 + z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0)))) / s
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.log(b / a) / jump
    return np.where(z < SERIES_EPSILON, series, direct)


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


def _shima_lanes(ql, qr, vn_l, vn_r, normal, igm1, n_real, out):
    add_two_point(n_real)
    rho_avg = 0.5 * (ql.rho + qr.rho)
    p_avg = 0.5 * (ql.p + qr.p)
    vn_avg = 0.5 * (vn_l + vn_r)
    f_rho = np.multiply(rho_avg, vn_avg, out=out[0])
    vv = ql.v[0] * qr.v[0]
    for i in range(1, len(ql.v)):
        vv = vv + ql.v[i] * qr.v[i]
    for i in range(len(ql.v)):
        np.add(
            f_rho * 0.5 * (ql.v[i] + qr.v[i]), p_avg * normal[i], out=out[1 + i]
        )
    np.add(
        0.5 * f_rho * vv + p_avg * vn_avg * igm1,
        0.5 * (ql.p * vn_r + qr.p * vn_l),
        out=out[-1],
    )
    return out


def _ranocha_lanes(ql, qr, vn_l, vn_r, normal, igm1, n_real, out):
    add_two_point(n_real)
    add_logmean(2 * n_real)
    rho_mean = logmean_batched(ql.rho, qr.rho)
    inv_rho_p_mean = ql.p * qr.p * inv_logmean_batched(ql.rho * qr.p, qr.rho * ql.p)
    p_avg = 0.5 * (ql.p + qr.p)
    vn_avg = 0.5 * (vn_l + vn_r)
    f_rho = np.multiply(rho_mean, vn_avg, out=out[0])
    vv = ql.v[0] * qr.v[0]
    for i in range(1, len(ql.v)):
        vv = vv + ql.v[i] * qr.v[i]
    for i in range(len(ql.v)):
        np.add(
            f_rho * 0.5 * (ql.v[i] + qr.v[i]), p_avg * normal[i], out=out[1 + i]
        )
    np.add(
        f_rho * (0.5 * vv + igm1 * inv_rho_p_mean),
        0.5 * (ql.p * vn_r + qr.p * vn_l),
        out=out[-1],
    )
    return out


def _phys_lanes(q, normal, out):
    d = len(q.v)
    vn = _vn(q.v, normal)
    np.multiply(q.rho, vn, out=out[0])
    for i in range(d):
        np.add(q.u[1 + i] * vn, q.p * normal[i], out=out[1 + i])
    np.multiply(q.u[d + 1] + q.p, vn, out=out[d + 1])
    return out


def _central_lanes(ql, qr, normal, n_real, out):
    add_two_point(n_real)
    _phys_lanes(ql, normal, out)
    out += _phys_lanes(qr, normal, np.empty_like(out))
    out *= 0.5
    return out


def _unit_normal(normal):
    nn = normal[0] * normal[0]
    for i in range(1, len(normal)):
        nn = nn + normal[i] * normal[i]
    norm = np.sqrt(nn)
    return norm, tuple(c / norm for c in normal)


def _jump(ql, qr, out):
    """Conserved-state jumps ur - ul, row by row, into the block out."""
    for k, (ul, ur) in enumerate(zip(ql.u, qr.u)):
        np.subtract(ur, ul, out=out[k])
    return out


def _llf_lanes(ql, qr, normal, gas, n_real, out):
    add_two_point(n_real)
    norm, unit = _unit_normal(normal)
    vn_l = _vn(ql.v, unit)
    vn_r = _vn(qr.v, unit)
    lam = np.maximum(
        np.abs(vn_l) + np.sqrt(gas.gamma * ql.p / ql.rho),
        np.abs(vn_r) + np.sqrt(gas.gamma * qr.p / qr.rho),
    )
    _phys_lanes(ql, normal, out)
    scratch = _phys_lanes(qr, normal, np.empty_like(out))
    out += scratch
    out *= 0.5
    diss = _jump(ql, qr, scratch)
    diss *= 0.5 * lam * norm
    out -= diss
    return out


def _hll_lanes(ql, qr, normal, gas, n_real, out):
    add_two_point(n_real)
    norm, unit = _unit_normal(normal)
    vn_l = _vn(ql.v, unit)
    vn_r = _vn(qr.v, unit)
    c_l = np.sqrt(gas.gamma * ql.p / ql.rho)
    c_r = np.sqrt(gas.gamma * qr.p / qr.rho)
    s_l = np.minimum(vn_l - c_l, vn_r - c_r)
    s_r = np.maximum(vn_l + c_l, vn_r + c_r)
    f_l = _phys_lanes(ql, unit, np.empty_like(out))
    f_r = _phys_lanes(qr, unit, np.empty_like(out))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / (s_r - s_l)
        mid = s_r * f_l
        mid -= s_l * f_r
        mid += (s_l * s_r) * _jump(ql, qr, out)
        mid *= inv
        # the upwind flux wins where the fan lies on one side of the face
        np.copyto(mid, f_r, where=s_r <= 0.0)
        np.copyto(mid, f_l, where=s_l >= 0.0)
        return np.multiply(norm, mid, out=out)


def flux_lanes_directional(kind, ql, qr, normal, gas, n_real, out=None):
    """Directional two-point flux over lanes; normal is a tuple of per-lane
    component arrays (or plain floats for a fixed direction).

    The flux goes into `out`, a (d+2, lanes) block of any strides that the
    caller owns, allocated here when omitted, and the block is returned:
    row k is flux component k of every lane. Every entry is overwritten,
    so one block can serve call after call; it must not share memory with
    the states or the normal."""
    if out is None:
        out = np.empty((len(ql.v) + 2,) + ql.rho.shape)
    if kind == "shima":
        return _shima_lanes(
            ql, qr, _vn(ql.v, normal), _vn(qr.v, normal), normal,
            gas.inv_gamma_minus_one, n_real, out,
        )
    if kind == "ranocha":
        return _ranocha_lanes(
            ql, qr, _vn(ql.v, normal), _vn(qr.v, normal), normal,
            gas.inv_gamma_minus_one, n_real, out,
        )
    if kind == "central":
        return _central_lanes(ql, qr, normal, n_real, out)
    if kind == "llf":
        return _llf_lanes(ql, qr, normal, gas, n_real, out)
    if kind == "hll":
        return _hll_lanes(ql, qr, normal, gas, n_real, out)
    raise ConfigurationError("unknown flux kind %r" % (kind,))


def flux_lanes_cartesian(kind, ql, qr, j, gas, n_real, out=None):
    """Coordinate-axis two-point flux over lanes (axis j, unscaled),
    written into and returned as the (d+2, lanes) block `out` under the
    contract of flux_lanes_directional."""
    axis = _AXIS[len(ql.v)][j]
    if out is None:
        out = np.empty((len(ql.v) + 2,) + ql.rho.shape)
    if kind == "shima":
        return _shima_lanes(
            ql, qr, ql.v[j], qr.v[j], axis, gas.inv_gamma_minus_one, n_real, out
        )
    if kind == "ranocha":
        return _ranocha_lanes(
            ql, qr, ql.v[j], qr.v[j], axis, gas.inv_gamma_minus_one, n_real, out
        )
    return flux_lanes_directional(kind, ql, qr, axis, gas, n_real, out)


# ---------------------------------------------------------------------------
# mesh-level lane assembly (elements folded into the lane axis)

def _line_major(arr, setup, n):
    """View of a nodal array (n_elem, (p+1)^d, m) as (m, p+1, n_elem, ...):
    entry [k, a] is component k at position a of every node line in
    direction n, the lines of each element in setup.lines[n] order."""
    p1 = setup.op.n_nodes
    d = setup.d
    tensor = arr.reshape(arr.shape[:1] + (p1,) * d + arr.shape[-1:])
    rest = tuple(i for i in range(1, d + 1) if i != n + 1)
    return tensor.transpose((d + 1, n + 1, 0) + rest)


def _line_buffer(setup, m):
    """Uninitialized (m, p+1, lanes) line rows for _line_rows. Every
    direction has n_elem (p+1)^(d-1) node lines, so one buffer serves each
    direction in turn."""
    p1 = setup.op.n_nodes
    return np.empty((m, p1, setup.n_elements * p1 ** (setup.d - 1)))


def _as_line_major(rows, setup):
    """(m, p+1, lanes) line rows viewed in the shape of _line_major."""
    p1 = setup.op.n_nodes
    return rows.reshape(rows.shape[:2] + (setup.n_elements,) + (p1,) * (setup.d - 1))


def _line_rows(arr, setup, n, rows):
    """Fill `rows`, a _line_buffer, with _line_major(arr) and return it: row
    [k, a] is one lane array, a lane being one node line (element, line).
    Every lane is read by p pairs, so it is copied even in direction d-1,
    where a strided view would do."""
    np.copyto(_as_line_major(rows, setup), _line_major(arr, setup, n))
    return rows


def _half_metric_rows(setup, n, rows):
    """Fill `rows`, a (d, p+1, lanes) _line_buffer, with half the direction-n
    metric terms Ja^n and return it: a pair's normal 0.5 (Ja_a + Ja_b) is
    then rows[:, a] + rows[:, b], the same floats for normal numbers."""
    view = _line_major(setup.metrics.ja[:, :, n, :], setup, n)
    np.multiply(view, 0.5, out=_as_line_major(rows, setup))
    return rows


def _row_lanes(q, cons):
    """Lanes from (d+2, lanes) primitive rows and, optionally, conserved
    rows."""
    return Lanes(q[0], tuple(q[1:-1]), q[-1], None if cons is None else tuple(cons))


def _line_lanes(q, cons):
    """One Lanes per line position from (d+2, p+1, lanes) primitive line
    rows and, optionally, conserved line rows. The lanes are views, so they
    follow every refill of the rows."""
    return [
        _row_lanes(q[:, a], None if cons is None else cons[:, a])
        for a in range(q.shape[1])
    ]


def _face_rows(arr, order=None):
    """(n_elem, face nodes, m) face arrays as (m, lanes) rows, one lane per
    face point, elements taken in `order` (default: as stored, then the rows
    are strided views: each face lane is read only once or twice, so a
    contiguous copy costs more than it saves)."""
    rows = arr.transpose(2, 0, 1)
    if order is not None:
        rows = np.take(rows, order, axis=1)
    return rows.reshape(arr.shape[-1], -1)


def _face_lanes(states, q, need_cons, order=None):
    """Lanes over face points from (n_elem, face nodes, d+2) conserved states
    and their primitives."""
    return _row_lanes(
        _face_rows(q, order), _face_rows(states, order) if need_cons else None
    )


def _line_geometry(setup, n, rows=None):
    """(pair weight scale, halved metric rows) of direction n. On Cartesian
    meshes the scale is the constant face area and the rows are None: the
    pairs then take the unscaled axis-n flux. Elsewhere the scale is 1.0 and
    the rows are `rows`, a (d, p+1, lanes) _line_buffer (allocated here when
    omitted), filled by _half_metric_rows."""
    if setup.metrics.cartesian:
        return float(setup.metrics.ja[0, 0, n, n]), None
    if rows is None:
        rows = _line_buffer(setup, setup.d)
    return 1.0, _half_metric_rows(setup, n, rows)


def _pair_flux(kind, ql, qr, half_a, half_b, n, gas, f):
    """The two-point flux between two lane sets into the block f: along
    half_a + half_b (halved metric rows), or with half_a None along axis n."""
    if half_a is None:
        return flux_lanes_cartesian(kind, ql, qr, n, gas, f.shape[-1], f)
    alpha = tuple(x + y for x, y in zip(half_a, half_b))
    return flux_lanes_directional(kind, ql, qr, alpha, gas, f.shape[-1], f)


def _line_terms(kind, lanes, half_ja, n, pairs, scale, gas, acc, f, coupling=()):
    """Add direction n's two-point terms into acc, the (d+2, p+1, lanes)
    accumulator of the node lines: each pair (a, b, c_ab, c_ba) of the table
    adds scale c_ab F(a, b) at line position a and scale c_ba F(a, b) at b.
    lanes holds one Lanes per line position, half_ja the direction's halved
    metric rows (None on Cartesian meshes, see _line_geometry) and f is a
    (d+2, lanes) flux block.

    coupling, per side s = 0, 1, is (face lanes, halved face metric rows,
    face-row sum, c_vol, c_face, lift row) of a hybridized operator
    (operators.hybridized_scatter): each line position a adds
    scale c_vol[a] F(a, face) at a and scale c_face[a] F(a, face) into the
    face-row sum, a (d+2, lanes) block that arrives holding the side's
    interface flux; the lift row then carries the whole sum back onto the
    line."""
    halves = [None if half_ja is None else half_ja[:, a] for a in range(acc.shape[1])]
    for a, b, cab, cba in pairs:
        _pair_flux(kind, lanes[a], lanes[b], halves[a], halves[b], n, gas, f)
        acc[:, a] += (cab * scale) * f
        acc[:, b] += (cba * scale) * f
    for face, half_face, rface, cvol, cface, lrow in coupling:
        for a, half in enumerate(halves):
            _pair_flux(kind, lanes[a], face, half, half_face, n, gas, f)
            acc[:, a] += (cvol[a] * scale) * f
            rface += (cface[a] * scale) * f
        for a, la in enumerate(lrow):
            acc[:, a] += la * rface


def mesh_fluxdiff_volume(u, prim, setup, config):
    """Flux-differencing volume term for the whole mesh, elements folded
    into the lane axis; prim = cons2prim(u). Returns the Jacobian-scaled VOL
    array."""
    d = setup.d
    nvar = d + 2
    vol_flux = config.volume_flux
    pairs = pair_table(setup.dsplit.matrix)
    q = _line_buffer(setup, nvar)
    cons = _line_buffer(setup, nvar) if vol_flux == "central" else None
    rows = None if setup.metrics.cartesian else _line_buffer(setup, d)
    acc = _line_buffer(setup, nvar)
    lanes = _line_lanes(q, cons)
    f = np.empty((nvar, q.shape[-1]))
    out = np.zeros_like(u)
    for n in range(d):
        _line_rows(prim, setup, n, q)
        if cons is not None:
            _line_rows(u, setup, n, cons)
        scale, half_ja = _line_geometry(setup, n, rows)
        acc.fill(0.0)
        _line_terms(vol_flux, lanes, half_ja, n, pairs, scale, setup.gas, acc, f)
        view = _line_major(out, setup, n)
        view += _as_line_major(acc, setup)
    out /= setup.metrics.jac[:, :, None]
    return out


def _interface_lanes(faces, setup, n, need_cons):
    """The two sides of every interface in direction n: the minus element's
    side-1 states, its plus neighbour's side-0 states and the shared
    normals, one lane per face point."""
    (u0, q0), (u1, q1) = faces
    ql = _face_lanes(u1, q1, need_cons)
    qr = _face_lanes(u0, q0, need_cons, setup.plus_neighbor[n])
    return ql, qr, tuple(_face_rows(setup.metrics.face_ja[n]))


def _side_fluxes(f, ql, qr, normal, subtract_own, n_real):
    """What the minus and plus sides lift, as (d+2, lanes) blocks: the
    interface flux block f itself, or for the strong form f - f(own face
    state), the plus side written over f."""
    if not subtract_own:
        return f, f
    add_one_point(2 * n_real)
    own = np.empty_like(f)
    fm = f - _phys_lanes(ql, normal, own)
    return fm, np.subtract(f, _phys_lanes(qr, normal, own), out=f)


def _plus_in_element_order(fp, setup, n):
    """(m, lanes) face rows in minus-element order, gathered into the order
    of the plus elements through the inverse of plus_neighbor[n] (a
    permutation: every element is the plus neighbour of exactly one
    element). Returns a fresh (m, n_elem, face nodes) array."""
    nb = setup.plus_neighbor[n]
    minus_of = np.empty_like(nb)
    minus_of[nb] = np.arange(nb.size)
    return np.take(fp.reshape(fp.shape[0], nb.size, -1), minus_of, axis=1)


def _lift(out, setup, n, fm, fp):
    """Lift per-face-point fluxes (d+2, lanes), lanes in minus-element
    order, in direction n: added into the minus element, subtracted from
    its plus neighbour, divided by the Jacobian. The plus-side fluxes are
    first gathered into element order (_plus_in_element_order), so both
    sides are basic-slice updates. Lobatto grids touch only the boundary
    nodes; Gauss grids go through the dense boundary-interpolation rows,
    all line positions at once."""
    op = setup.op
    w1d = op.weights
    view = _line_major(out, setup, n)
    jac = _line_major(setup.metrics.jac[..., None], setup, n)[0]
    fm = fm.reshape(view[:, 0].shape)
    fp = _plus_in_element_order(fp, setup, n).reshape(view[:, 0].shape)
    if op.family == "lgl":
        view[:, -1] += fm / (w1d[-1] * jac[-1])
        view[:, 0] -= fp / (w1d[0] * jac[0])
        return
    per_position = (slice(None),) + (None,) * (view.ndim - 2)
    lift_m = (op.boundary_interp[1] / w1d)[per_position]
    lift_p = (op.boundary_interp[0] / w1d)[per_position]
    view += (lift_m * fm[:, None]) / jac
    view -= (lift_p * fp[:, None]) / jac


def mesh_surface(faces, setup, n, surface_flux, subtract_own, out):
    """Interface terms in direction n of the strong, weak, overintegration
    and lgl flux-differencing schemes, one lane per face point, added into
    `out`. faces are the direction's states from
    discretization.face_states: the elements' own traces of u. subtract_own
    selects the strong-form coupling f_num - f(own face state). Lane
    counterpart of discretization.surface_terms."""
    need_cons = subtract_own or surface_flux in ("central", "llf", "hll")
    ql, qr, alpha = _interface_lanes(faces, setup, n, need_cons)
    n_lanes = ql.rho.size
    f = flux_lanes_directional(surface_flux, ql, qr, alpha, setup.gas, n_lanes)
    fm, fp = _side_fluxes(f, ql, qr, alpha, subtract_own, n_lanes)
    _lift(out, setup, n, fm, fp)
    return out


def mesh_gauss_volume(u, prim, faces, sides, setup, n, config, out):
    """Zero-corner hybridized term of gauss_fluxdiff in direction n over
    the mesh, interface fluxes included, divided by J and added into out;
    prim = cons2prim(u), faces are the direction's entropy-projected states
    from discretization.face_states and sides the two interface-flux blocks
    from mesh_gauss_surface, which become the face-row sums of the line
    kernel (and are overwritten by them)."""
    require_volume_kind(config.volume_flux)
    op = setup.op
    nvar = setup.d + 2
    vol_flux = config.volume_flux
    pairs, vol_face, lift = hybridized_scatter(op.degree, op.family)
    need_cons = vol_flux == "central"
    q = _line_rows(prim, setup, n, _line_buffer(setup, nvar))
    cons = _line_rows(u, setup, n, _line_buffer(setup, nvar)) if need_cons else None
    scale, half_ja = _line_geometry(setup, n)
    eja = setup.metrics.elem_face_ja[n]
    # made one side at a time as the kernel reaches it, so no face rows are
    # held during the pair loop
    coupling = (
        (
            _face_lanes(*faces[s], need_cons),
            None if half_ja is None else 0.5 * _face_rows(eja[:, s]),
            sides[s],
            cvol,
            cface,
            lift[s],
        )
        for s, (cvol, cface) in enumerate(vol_face)
    )
    acc = np.zeros(q.shape)
    f = np.empty((nvar, q.shape[-1]))
    _line_terms(
        vol_flux, _line_lanes(q, cons), half_ja, n, pairs, scale, setup.gas, acc, f,
        coupling,
    )
    acc /= _line_rows(setup.metrics.jac[..., None], setup, n, _line_buffer(setup, 1))[0]
    view = _line_major(out, setup, n)
    view += _as_line_major(acc, setup)
    return out


def mesh_gauss_surface(faces, setup, n, surface_flux):
    """Interface fluxes in direction n of gauss_fluxdiff between
    entropy-projected states from discretization.face_states, across the
    shared normals, as the two (d+2, lanes) side blocks, lanes in element
    order, that mesh_gauss_volume lifts: side 0 the negated flux of each
    element's -1 face, side 1 the flux of its +1 face. Each face flux is
    evaluated once per adjacent element, twice per face, with identical
    arguments; the scalar discretization.surface_terms evaluates it once.
    The benchmark's count test pins the second evaluation
    (batched.mesh_gauss_surface.useful_eval_ratio == 0.5)."""
    need_cons = surface_flux in ("central", "llf", "hll")
    ql, qr, alpha = _interface_lanes(faces, setup, n, need_cons)
    n_lanes = ql.rho.size
    f_m = flux_lanes_directional(surface_flux, ql, qr, alpha, setup.gas, n_lanes)
    f_p = flux_lanes_directional(surface_flux, ql, qr, alpha, setup.gas, n_lanes)
    side0 = _plus_in_element_order(f_p, setup, n)
    return np.negative(side0, out=side0).reshape(f_m.shape), f_m
