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
into the first and last line positions. The lane order is the line order
of `operators.node_lines`, which the scalar path uses.

Cartesian meshes take the axis fluxes scaled by the constant face area on
both families, in the volume pairs and at the interfaces alike. One rule
decides it: _line_geometry (node lines) and its face twin _face_geometry
return the area and no normal rows there, the metric rows and the scale
1.0 elsewhere. Without rows every kernel runs in axis form along the
direction (flux_lanes_cartesian): v.n is the velocity row v_n itself, the
pressure goes onto momentum row n only, and the llf and hll wave speeds
carry no |n|. The area then multiplies in once: into the pair weights,
onto the Gauss side blocks that the coupling reads, and in the lift, where
the constant Jacobian joins it as one scalar area / (w J) per lift row in
place of a per-lane division.

Every two-point lane kernel writes its d+2 flux rows into one (d+2, lanes)
block that the caller owns and returns that block, so the volume kernels
allocate one flux block per call and add each pair into the accumulator
with one product and one add per weight, acc[:, a] += w * f. The surface
lanes are in minus-element order (face point m of element e pairs e with
plus_neighbor[n][e]): the plus side's face states are gathered with one
element-major take per array before they are viewed as rows, and the
plus-side fluxes go back into element order once through
minus_neighbor[n], the inverse permutation that build_setup stores, so
both sides of the lift are basic-slice updates.

A Lanes holds the primitives as rows and the conserved states as one
(d+2, lanes) block (on the face lanes a strided view of the face array).
The central, llf and hll kernels run in two steps: they form the own-side
physical fluxes f(q_l).n and f(q_r).n, then combine them. The momentum
rows of f(q).n are one block product (rho v) v.n; p n_i is added row by
row, because a (d, lanes) p n block passes the allocator's mmap threshold
on the 3D meshes and was slower. llf forms its jump u_r - u_l as one
block: in the scratch block of f(q_r).n on the plain path, in one fresh
block on the strong path. The strong form (mesh_surface with
subtract_own) subtracts the two own-side blocks in place, so each
interface point gets one flux pass; shima and ranocha form no physical
fluxes, so their strong form recomputes them. llf and hll bound the wave
speeds against the scaled normal, lam|n| =
max(|v_l.n| + c_l|n|, |v_r.n| + c_r|n|), sharing v.n with the physical
fluxes, on both paths. The face lanes and every temporary of the flux
pass are gone before the lift runs.

Equivalence with the scalar path is a strict contract (relative 1e-13, see
the tests); the expressions below mirror the scalar kernels operation by
operation (a pair normal 0.5 x + 0.5 y from halved metric rows is the
scalar 0.5 (x + y) for normal floats), so differences come only from the
libm/numpy log and sqrt ulps, from the grouping of sums (each direction's
contributions are summed in a lane accumulator before they are added into
the output, where the scalar kernels keep one running sum per node) and,
on Cartesian meshes, from the point where the face area multiplies in.

Evaluation counters are bumped by the number of lanes per call, so
counting lane work as logical per-pair evaluations matches the scalar
kernels exactly; the strong form counts two one-point evaluations per
face point even where it reuses the surface kernel's own-side fluxes.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError

# not called here: perfbench/tracing.py names fluxdg.batched.cons2prim as a
# span boundary, and its tests require every boundary to exist
from .euler import cons2prim  # noqa: F401
from .fluxes import add_logmean, add_one_point, add_two_point, require_volume_kind
from .means import SERIES_EPSILON
from .operators import hybridized_scatter, split_pairs

# the kinds whose flux combines the two own-side physical fluxes
_OWN_FLUX_KINDS = ("central", "llf", "hll")

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
    """Primitive rows and, optionally, the conserved block over one lane
    set: rho and p are lane arrays, v a tuple of d lane arrays, and u the
    (d+2, lanes) conserved block of any strides, read as u[k] for one
    component and as a whole for the physical momentum flux and the llf
    jump."""

    rho: np.ndarray
    v: tuple
    p: np.ndarray
    u: Optional[np.ndarray] = None


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


def _is_axis(normal):
    """True for a coordinate axis given as a tuple of floats, which the
    kernels read as the unit normal of that axis (|n| = 1, n_i = 0 off
    the axis); False for a normal of per-lane component rows."""
    return isinstance(normal[0], float)


def _phys_lanes(q, vn, normal, out):
    """The physical flux f(q).n into the block out, from vn = v.n: the
    momentum rows (rho v_i) v.n as one block product, then p n_i added row
    by row (a (d, lanes) p n block is slower once it passes the allocator's
    mmap threshold); along an axis the pressure goes onto that axis's
    momentum row only."""
    d = len(q.v)
    np.multiply(q.rho, vn, out=out[0])
    momentum = np.multiply(q.u[1 : d + 1], vn, out=out[1 : d + 1])
    if _is_axis(normal):
        momentum[normal.index(1.0)] += q.p
    else:
        for i in range(d):
            momentum[i] += q.p * normal[i]
    np.multiply(q.u[d + 1] + q.p, vn, out=out[d + 1])
    return out


def _scaled_sound_speeds(ql, qr, normal, gas):
    """c_l |n| and c_r |n|: the sound speeds times the length of the scaled
    normal, so the wave-speed bounds need no unit normal (|n| = 1 along an
    axis). Both are fresh rows."""
    speeds = tuple(np.sqrt(gas.gamma * q.p / q.rho) for q in (ql, qr))
    if _is_axis(normal):
        return speeds
    norm = np.sqrt(_vn(normal, normal))
    return tuple(c * norm for c in speeds)


def _llf_half_dissipation(ql, qr, vn_l, vn_r, normal, gas):
    """0.5 lam|n| = 0.5 max(|v_l.n| + c_l|n|, |v_r.n| + c_r|n|), formed in
    place over the sound-speed rows, so the right-hand one dies with this
    call and vn_l, vn_r (along an axis, rows of the states) are only
    read."""
    cn_l, cn_r = _scaled_sound_speeds(ql, qr, normal, gas)
    cn_l += np.abs(vn_l)
    cn_r += np.abs(vn_r)
    half_diss = np.maximum(cn_l, cn_r, out=cn_l)
    half_diss *= 0.5
    return half_diss


def _llf_lanes(ql, qr, vn_l, vn_r, normal, gas, f_l, f_r, out, jump):
    """Local Lax-Friedrichs, dissipation 0.5 lam|n| (u_r - u_l) with
    lam|n| = max(|v_l.n| + c_l|n|, |v_r.n| + c_r|n|); the jump is formed
    as one block in `jump`, which may be f_r but not out (None: a fresh
    block)."""
    half_diss = _llf_half_dissipation(ql, qr, vn_l, vn_r, normal, gas)
    np.add(f_l, f_r, out=out)
    out *= 0.5
    jump = np.subtract(qr.u, ql.u, out=jump)
    jump *= half_diss
    out -= jump
    return out


def _hll_lanes(ql, qr, vn_l, vn_r, normal, gas, f_l, f_r, out):
    """HLL with the Davis estimates on the scaled normal,
    S_l = min(v_l.n - c_l|n|, v_r.n - c_r|n|) and S_r likewise, row by
    row."""
    cn_l, cn_r = _scaled_sound_speeds(ql, qr, normal, gas)
    s_l = np.minimum(vn_l - cn_l, vn_r - cn_r)
    s_r = np.maximum(vn_l + cn_l, vn_r + cn_r)
    # the upwind flux wins where the fan lies on one side of the face
    left = s_l >= 0.0
    right = s_r <= 0.0
    s_lr = s_l * s_r
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / (s_r - s_l)
        for row, a, b, ul, ur in zip(out, f_l, f_r, ql.u, qr.u):
            mid = s_r * a
            mid -= s_l * b
            mid += s_lr * (ur - ul)
            mid *= inv
            np.copyto(mid, b, where=right)
            np.copyto(mid, a, where=left)
            np.copyto(row, mid)
    return out


def _own_flux_lanes(
    kind, ql, qr, vn_l, vn_r, normal, gas, n_real, f_l, f_r, out, jump=None
):
    """central, llf or hll in two steps: the own-side physical fluxes
    f(q_l).n and f(q_r).n into the blocks f_l and f_r, then the flux made
    from them into out, which may be f_l; llf forms its jump in `jump`
    (see _llf_lanes)."""
    add_two_point(n_real)
    _phys_lanes(ql, vn_l, normal, f_l)
    _phys_lanes(qr, vn_r, normal, f_r)
    if kind == "central":
        np.add(f_l, f_r, out=out)
        out *= 0.5
        return out
    if kind == "llf":
        return _llf_lanes(ql, qr, vn_l, vn_r, normal, gas, f_l, f_r, out, jump)
    return _hll_lanes(ql, qr, vn_l, vn_r, normal, gas, f_l, f_r, out)


def _flux_lanes(kind, ql, qr, vn_l, vn_r, normal, gas, n_real, out):
    """The two-point flux of `kind` into the block out (None: a fresh one),
    given v.n on both sides and the normal, per-lane rows or an axis tuple
    (_is_axis). No kernel writes into vn_l or vn_r, which along an axis are
    rows of the states."""
    if out is None:
        out = np.empty((len(ql.v) + 2,) + ql.rho.shape)
    if kind in _OWN_FLUX_KINDS:
        f_r = np.empty_like(out)
        return _own_flux_lanes(
            kind, ql, qr, vn_l, vn_r, normal, gas, n_real, out, f_r, out, f_r
        )
    if kind == "shima":
        return _shima_lanes(
            ql, qr, vn_l, vn_r, normal, gas.inv_gamma_minus_one, n_real, out
        )
    if kind == "ranocha":
        return _ranocha_lanes(
            ql, qr, vn_l, vn_r, normal, gas.inv_gamma_minus_one, n_real, out
        )
    raise ConfigurationError("unknown flux kind %r" % (kind,))


def flux_lanes_directional(kind, ql, qr, normal, gas, n_real, out=None):
    """Directional two-point flux over lanes; normal is a tuple of per-lane
    component arrays.

    The flux goes into `out`, a (d+2, lanes) block of any strides that the
    caller owns, allocated here when omitted, and the block is returned:
    row k is flux component k of every lane. Every entry is overwritten,
    so one block can serve call after call; it must not share memory with
    the states or the normal. central, llf and hll form f(q_l).n in `out`
    and f(q_r).n in one scratch block, then combine them (llf's jump
    u_r - u_l reuses the scratch block); llf and hll bound the wave speeds
    against the scaled normal, as the scalar kernels do."""
    return _flux_lanes(
        kind, ql, qr, _vn(ql.v, normal), _vn(qr.v, normal), normal, gas, n_real, out
    )


def flux_lanes_cartesian(kind, ql, qr, j, gas, n_real, out=None):
    """Coordinate-axis two-point flux over lanes (axis j, unscaled),
    written into and returned as the (d+2, lanes) block `out` under the
    contract of flux_lanes_directional. Every kind runs its kernel in axis
    form: v.n is the velocity row v_j itself, the pressure goes onto
    momentum row j only, and the llf and hll wave speeds carry no |n|.
    The Cartesian volume pairs and interface points take this flux and
    multiply in the constant face area once."""
    axis = _AXIS[len(ql.v)][j]
    return _flux_lanes(kind, ql, qr, ql.v[j], qr.v[j], axis, gas, n_real, out)


# ---------------------------------------------------------------------------
# mesh-level lane assembly (elements folded into the lane axis)

def _line_major(arr, setup, n):
    """View of a nodal array (n_elem, (p+1)^d, m) as (m, p+1, n_elem, ...):
    entry [k, a] is component k at position a of every node line in
    direction n, the lines of each element in operators.node_lines order."""
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
    """Lanes from (d+2, lanes) primitive rows and, optionally, the
    conserved block."""
    return Lanes(q[0], tuple(q[1:-1]), q[-1], cons)


def _line_lanes(q, cons):
    """One Lanes per line position from (d+2, p+1, lanes) primitive line
    rows and, optionally, conserved line rows. The lanes are views, so they
    follow every refill of the rows."""
    return [
        _row_lanes(q[:, a], None if cons is None else cons[:, a])
        for a in range(q.shape[1])
    ]


def _face_rows(arr):
    """(n_elem, face nodes, m) face arrays as (m, lanes) rows, one lane per
    face point: strided views (each face lane is read only once or twice,
    so a contiguous copy costs more than it saves)."""
    return arr.transpose(2, 0, 1).reshape(arr.shape[-1], -1)


def _face_lanes(states, q, need_cons, order=None):
    """Lanes over face points from (n_elem, face nodes, d+2) conserved states
    and their primitives, elements taken in `order` (default: as stored).
    The gather runs element-major, before the transpose to rows."""
    if order is not None:
        q = q.take(order, axis=0)
        if need_cons:
            states = states.take(order, axis=0)
    return _row_lanes(_face_rows(q), _face_rows(states) if need_cons else None)


def _line_geometry(setup, n, rows=None):
    """(pair weight scale, halved metric rows) of direction n. On Cartesian
    meshes the scale is the constant face area and the rows are None: the
    pairs then take the unscaled axis-n flux. Elsewhere the scale is 1.0 and
    the rows are `rows`, a (d, p+1, lanes) _line_buffer (allocated here when
    None, so the returned rows can be passed back for the next direction),
    filled by _half_metric_rows."""
    if setup.mesh.is_cartesian:
        return float(setup.metrics.ja[0, 0, n, n]), None
    if rows is None:
        rows = _line_buffer(setup, setup.d)
    return 1.0, _half_metric_rows(setup, n, rows)


def _face_geometry(setup, n):
    """(scale, normal rows) of direction n's interfaces, the face twin of
    _line_geometry: on Cartesian meshes the constant face area and None,
    the interface fluxes then taking the unscaled axis-n form with the area
    multiplied in once (by the lift, or on the Gauss side blocks);
    elsewhere 1.0 and the shared normals face_ja[n][1] as (d, lanes)
    rows."""
    if setup.mesh.is_cartesian:
        return float(setup.metrics.ja[0, 0, n, n]), None
    return 1.0, tuple(_face_rows(setup.metrics.face_ja[n][1]))


def _directed(ql, qr, normal, n):
    """(v_l.n, v_r.n, normal) of two lane sets along the normal rows, or,
    with normal None, along axis n as an axis tuple (_is_axis), whose v.n
    are the velocity rows v_n themselves."""
    if normal is None:
        return ql.v[n], qr.v[n], _AXIS[len(ql.v)][n]
    return _vn(ql.v, normal), _vn(qr.v, normal), normal


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
    pairs = split_pairs(setup.op.degree)
    q = _line_buffer(setup, nvar)
    cons = _line_buffer(setup, nvar) if vol_flux == "central" else None
    rows = None
    acc = _line_buffer(setup, nvar)
    lanes = _line_lanes(q, cons)
    f = np.empty((nvar, q.shape[-1]))
    out = np.zeros_like(u)
    for n in range(d):
        _line_rows(prim, setup, n, q)
        if cons is not None:
            _line_rows(u, setup, n, cons)
        scale, rows = _line_geometry(setup, n, rows)
        acc.fill(0.0)
        _line_terms(vol_flux, lanes, rows, n, pairs, scale, setup.gas, acc, f)
        view = _line_major(out, setup, n)
        view += _as_line_major(acc, setup)
    out /= setup.metrics.jac[:, :, None]
    return out


def _interface_lanes(faces, setup, n, need_cons):
    """The two sides of every interface in direction n: the minus element's
    side-1 states and its plus neighbour's side-0 states, one lane per face
    point."""
    (u0, q0), (u1, q1) = faces
    ql = _face_lanes(u1, q1, need_cons)
    qr = _face_lanes(u0, q0, need_cons, setup.plus_neighbor[n])
    return ql, qr


def _interface_fluxes(faces, setup, n, kind, subtract_own, normal):
    """The (minus, plus) flux blocks mesh_surface lifts, lanes in
    minus-element order, along the normal rows or, with normal None, along
    axis n unscaled (_face_geometry): the numerical flux f for both sides,
    or with subtract_own the strong form's f - f(q_l).n and f - f(q_r).n,
    written over the own-side flux blocks: those that central, llf and hll
    combine f from, or for shima and ranocha, which form none, a fresh
    pair. The face lanes die with this call, before the lift."""
    need_cons = subtract_own or kind in _OWN_FLUX_KINDS
    ql, qr = _interface_lanes(faces, setup, n, need_cons)
    vn_l, vn_r, normal = _directed(ql, qr, normal, n)
    gas = setup.gas
    n_lanes = ql.rho.size
    if not subtract_own:
        f = _flux_lanes(kind, ql, qr, vn_l, vn_r, normal, gas, n_lanes, None)
        return f, f
    add_one_point(2 * n_lanes)
    f_l = np.empty((len(ql.v) + 2, n_lanes))
    f_r = np.empty_like(f_l)
    if kind in _OWN_FLUX_KINDS:
        f = np.empty_like(f_l)
        _own_flux_lanes(kind, ql, qr, vn_l, vn_r, normal, gas, n_lanes, f_l, f_r, f)
    else:
        f = _flux_lanes(kind, ql, qr, vn_l, vn_r, normal, gas, n_lanes, None)
        _phys_lanes(ql, vn_l, normal, f_l)
        _phys_lanes(qr, vn_r, normal, f_r)
    np.subtract(f, f_l, out=f_l)
    return f_l, np.subtract(f, f_r, out=f_r)


def _plus_in_element_order(fp, setup, n):
    """(m, lanes) face rows in minus-element order, gathered into the order
    of the plus elements through minus_neighbor[n], the inverse of
    plus_neighbor[n]. Returns a fresh (m, n_elem, face nodes) array."""
    minus = setup.minus_neighbor[n]
    return fp.reshape(fp.shape[0], minus.size, -1).take(minus, axis=1)


def _lift(out, setup, n, fm, fp):
    """Lift per-face-point fluxes (d+2, lanes), lanes in minus-element
    order, in direction n: added into the minus element, subtracted from
    its plus neighbour, divided by the Jacobian. The plus-side fluxes are
    first gathered into element order (_plus_in_element_order), so both
    sides are basic-slice updates. Lobatto grids touch only the boundary
    nodes; Gauss grids go through the dense boundary-interpolation rows,
    all line positions at once. The fluxes are in the form _face_geometry
    gives: along the normal rows, which carry the face metric, each lane
    is divided by its own Jacobian; on Cartesian meshes they are the
    unscaled axis fluxes, and the constant face area and Jacobian enter as
    one scalar per lift row, area / (w J)."""
    op = setup.op
    w1d = op.weights
    view = _line_major(out, setup, n)
    fm = fm.reshape(view[:, 0].shape)
    fp = _plus_in_element_order(fp, setup, n).reshape(view[:, 0].shape)
    area, normal = _face_geometry(setup, n)
    if normal is not None:
        jac = _line_major(setup.metrics.jac[..., None], setup, n)[0]
    else:
        jac = float(setup.metrics.jac[0, 0])  # constant on a Cartesian mesh
    if op.family == "lgl":
        if normal is not None:
            view[:, -1] += fm / (w1d[-1] * jac[-1])
            view[:, 0] -= fp / (w1d[0] * jac[0])
        else:
            view[:, -1] += fm * (area / (w1d[-1] * jac))
            view[:, 0] -= fp * (area / (w1d[0] * jac))
        return
    per_position = (slice(None),) + (None,) * (view.ndim - 2)
    lift_m = (op.boundary_interp[1] / w1d)[per_position]
    lift_p = (op.boundary_interp[0] / w1d)[per_position]
    if normal is not None:
        view += (lift_m * fm[:, None]) / jac
        view -= (lift_p * fp[:, None]) / jac
    else:
        view += (lift_m * (area / jac)) * fm[:, None]
        view -= (lift_p * (area / jac)) * fp[:, None]


def mesh_surface(faces, setup, n, surface_flux, subtract_own, out):
    """Interface terms in direction n of the strong, weak, overintegration
    and lgl flux-differencing schemes, one lane per face point, added into
    `out`. faces are the direction's states from
    discretization.face_states: the elements' own traces of u. subtract_own
    selects the strong-form coupling f_num - f(own face state): central,
    llf and hll subtract the own-side fluxes their surface kernel formed,
    shima and ranocha recompute them (_interface_fluxes). On Cartesian
    meshes the fluxes are the axis form and the lift multiplies in the face
    area. Lane counterpart of discretization.surface_terms."""
    _, normal = _face_geometry(setup, n)
    fm, fp = _interface_fluxes(faces, setup, n, surface_flux, subtract_own, normal)
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
    face_ja = setup.metrics.face_ja[n]
    # made one side at a time as the kernel reaches it, so no face rows are
    # held during the pair loop
    coupling = (
        (
            _face_lanes(*faces[s], need_cons),
            None if half_ja is None else 0.5 * _face_rows(face_ja[s]),
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
    element's -1 face, side 1 the flux of its +1 face. On Cartesian meshes
    the fluxes are the axis form times the face area, which both blocks
    carry before the coupling reads them (elsewhere the scale is 1.0).
    Each face flux is evaluated once per adjacent element, twice per face,
    with identical arguments; the scalar discretization.surface_terms
    evaluates it once. The benchmark's count test pins the second
    evaluation (batched.mesh_gauss_surface.useful_eval_ratio == 0.5)."""
    need_cons = surface_flux in _OWN_FLUX_KINDS
    ql, qr = _interface_lanes(faces, setup, n, need_cons)
    scale, normal = _face_geometry(setup, n)
    vn_l, vn_r, normal = _directed(ql, qr, normal, n)
    n_lanes = ql.rho.size
    f_m, f_p = (
        _flux_lanes(surface_flux, ql, qr, vn_l, vn_r, normal, setup.gas, n_lanes, None)
        for _ in range(2)
    )
    f_m *= scale
    side0 = _plus_in_element_order(f_p, setup, n)
    return np.multiply(side0, -scale, out=side0).reshape(f_m.shape), f_m
