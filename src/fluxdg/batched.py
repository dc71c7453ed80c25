"""Mesh-level lane kernels: the production path of `rhs`, whose default is
kernel="batched".

The scalar oracle in `fluxdg.reference` (kernel="reference") takes one
state pair per call. Here the
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
every lane. The accumulator is position-major instead, (p+1, d+2, lanes)
(_line_accumulator): the d+2 rows of one line position are one contiguous
block, so every term the pair loop adds at a position is one block add,
and the kernels read it back into out through its swapped view. Every
direction has the same number of lanes, so mesh_fluxdiff_volume allocates
its line buffers (primitive rows, conserved rows for the central flux, and
the accumulator) once per call and refills them in every direction;
mesh_gauss_volume runs one direction per call and fills its own. The
metric terms get no line buffer: geometry stores them in line order, one
position-major (p+1, d, lanes) block per direction in the lane order used
here, so a pair reads its two line positions as two contiguous (d, lanes)
blocks of the store and forms its normal with one add that takes no
iterator buffer (_line_geometry). The face metric terms are contiguous
(d, lanes) rows of a store too (_face_geometry): on Lobatto grids line
positions 0 and p of the volume block, on Gauss grids each
face_ja[n][s, :, :, j] one contiguous (n_elem, face nodes) block of the
extrapolated traces. They serve the interface normals and the Gauss
coupling normals.

One line kernel, _line_terms, does the two-point volume work of both node
families: it walks a pair table into the accumulator (the split-derivative
pairs on Lobatto grids, the hybridized ones on Gauss grids) and, on Gauss
grids only, the hybridized volume-face coupling. The coupling's face-row
sums start from the interface fluxes that mesh_gauss_surface returns, so
the Gauss faces are lifted inside the accumulator, which is divided by J
through a view of the Jacobian and goes back with one add through the
swapped view into the line-major view of the output. On
Lobatto grids the coupling cancels on the boundary nodes and is left out;
mesh_surface's lift (_lift) writes the face fluxes into the first and last
line positions. The lane order is the line order
of `reference.node_lines`, which the scalar path uses.

One entry, flux_lanes, evaluates every two-point flux; its normal is
either per-lane rows or an int, the index of a coordinate axis, as in
Trixi.jl's orientation / normal_direction pair. Cartesian meshes take the
axis fluxes scaled by the constant face area on both families, in the
volume pairs and at the interfaces alike. One rule decides it:
_line_geometry (node lines) and its face twin _face_geometry return the
area and the axis index n there, views of the metric terms and the scale
1.0 elsewhere. Along an axis every kernel runs in axis form: v.n is the
velocity row v_n itself, the pressure goes onto momentum row n only, and
the llf and hll wave speeds carry no |n|. The area then multiplies in
once: into the pair weights, onto the Gauss side blocks that the coupling
reads, and in the lift, where the constant Jacobian joins it as one scalar
area / (w J) per lift row in place of a per-lane division.

Every two-point lane kernel writes its d+2 flux rows into one (d+2, lanes)
block that the caller owns and returns that block. The split-form kernel
of shima and ranocha also works in a caller-owned scratch block of 6 + d
lane rows: the pair normal, v.n, both log means and every term of the
flux land there, so a pair allocates nothing but the index array of the
log-mean lanes that take the log branch (the log is taken on those lanes
only). The volume kernels allocate one flux block and one scratch block
per call, and add each pair into the accumulator with one product into
the scratch and one contiguous block add per weight, acc[a] += w * f.
The surface lanes are in minus-element order (face point m of element e
pairs e with plus_neighbor[n][e]): the plus side's face states are
gathered with one take per array along the element axis of whichever
view of it is C-contiguous (_face_rows), the (n_elem, face nodes, d+2)
array for Lobatto slices, its (d+2, n_elem, face nodes) rows for the
component-major Gauss faces (interpolated or entropy-projected), so the
gathered rows keep the layout; and the plus-side fluxes go back into element
order once through minus_neighbor[n], the inverse permutation that
build_setup stores, so both sides of the lift are basic-slice updates.

A Lanes holds the primitives as rows and, for the kinds that read them
(fluxes.OWN_FLUX_KINDS: central, llf and hll) or the strong-form
subtraction, the conserved states as one (d+2, lanes) block. On the face
lanes the rows follow the layout of the face arrays: strided on Lobatto
slices, whose variables are innermost, and contiguous on the Gauss faces
(interpolated or entropy-projected), which face_states builds
component-major in line layout, on both sides of an interface. rhs asks
face_states for conserved face arrays only where such a reader runs (its
`conserved` predicate), and the face lanes carry conserved rows exactly
when it built them (_face_lanes), so a shima or ranocha interface gets
primitives alone. The central, llf and hll
kernels run in two steps: they form the own-side physical fluxes
f(q_l).n and f(q_r).n, then combine them. The momentum
rows of f(q).n are one block product (rho v) v.n; p n_i is added row by
row, because a (d, lanes) p n block passes the allocator's mmap threshold
on the 3D meshes and was slower. llf forms its jump u_r - u_l as one
block: in the scratch block of f(q_r).n on the plain path, in one fresh
block on the strong path. The strong form (mesh_surface with
subtract_own) subtracts the two own-side blocks in place, so each
interface point gets one flux pass. shima and ranocha share one
split-form kernel, which branches on the kind only for the density mean
and the internal-energy term; they form no physical fluxes, so their
strong form recomputes them; on the surfaces their scratch block is made
per call. llf and hll bound the wave speeds against the scaled normal,
lam|n| = max(|v_l.n| + c_l|n|, |v_r.n| + c_r|n|), sharing v.n with the
physical fluxes, on both paths. The face lanes and
every temporary of the flux pass are gone before the lift runs.

Equivalence with the scalar path is a strict contract (relative 1e-13, see
the tests); the expressions below mirror the scalar kernels operation by
operation (a pair normal is the scalar's 0.5 (Ja_a + Ja_b), summed and
halved in the scratch block), so differences come only from the
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
from .fluxes import (
    OWN_FLUX_KINDS,
    SERIES_EPSILON,
    add_logmean,
    add_one_point,
    add_two_point,
    require_volume_kind,
)
from .geometry import line_major
from .operators import hybridized_scatter, split_pairs


# ---------------------------------------------------------------------------
# log means over lanes

def _log_mean(a, b, inverse, work):
    """The logarithmic mean of the lane rows a and b (1D, of one length),
    or with `inverse` its reciprocal, in the four lane rows `work` (None:
    fresh), returned as work[3]. The rows hold the sum s = a + b, the jump
    b - a, z = ((b-a)/s)^2 and the series polynomial
    2 + z(2/3 + z(2/5 + z 2/7)), which the series branch s / poly or
    poly / s overwrites on every lane. The log branch, jump / log(b/a) or
    log(b/a) / jump, then runs on the lanes with z >= SERIES_EPSILON only:
    gathered into the rows of z and s, which are free by then, and
    scattered over the series. Lane by lane these are the expressions of
    reference.logmean_optimized and inv_logmean_optimized, with the same
    branch; a and b are only read, and must be positive (rhs passes
    admissibility-checked states), so no branch divides by zero or takes
    the log of a non-positive ratio."""
    if work is None:
        work = np.empty((4,) + a.shape)
    s, jump, z, mean = work
    np.add(a, b, out=s)
    np.subtract(b, a, out=jump)
    np.divide(jump, s, out=z)
    z *= z
    np.multiply(z, 2.0 / 7.0, out=mean)
    mean += 2.0 / 5.0
    mean *= z
    mean += 2.0 / 3.0
    mean *= z
    mean += 2.0
    if inverse:
        mean /= s
    else:
        np.divide(s, mean, out=mean)
    far = (z >= SERIES_EPSILON).nonzero()[0]
    if far.size:
        log_ratio, other = z[: far.size], s[: far.size]
        b.take(far, out=log_ratio, mode="clip")
        a.take(far, out=other, mode="clip")
        log_ratio /= other
        np.log(log_ratio, out=log_ratio)
        jump.take(far, out=other, mode="clip")
        if inverse:
            log_ratio /= other
        else:
            np.divide(other, log_ratio, out=log_ratio)
        mean[far] = log_ratio
    return mean


def logmean_batched(a, b, work=None):
    """Per-lane logarithmic mean, the lane twin of
    reference.logmean_optimized: the log is taken on the log-branch lanes
    only (_log_mean, whose four work rows the caller may pass; the mean is
    the last of them)."""
    return _log_mean(a, b, False, work)


def inv_logmean_batched(a, b, work=None):
    """Per-lane reciprocal log mean, the lane twin of
    reference.inv_logmean_optimized; work as in logmean_batched."""
    return _log_mean(a, b, True, work)


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


def _vn(v, normal, out=None, tmp=None):
    """v.n summed component by component into out, each product after the
    first formed in tmp (None: fresh)."""
    acc = np.multiply(v[0], normal[0], out=out)
    for i in range(1, len(v)):
        acc += np.multiply(v[i], normal[i], out=tmp)
    return acc


def _is_axis(normal):
    """True for a coordinate axis given as its index, which the kernels
    read as the unit normal of that axis (|n| = 1, n_i = 0 off the axis);
    False for a normal of per-lane component rows."""
    return isinstance(normal, int)


def _directed(ql, qr, normal, rows=(None, None, None)):
    """(v_l.n, v_r.n) of two lane sets: along the normal rows, summed into
    rows[0] and rows[1] with rows[2] for the products (None: fresh), or
    along an axis the velocity rows v_n of the states themselves."""
    if _is_axis(normal):
        return ql.v[normal], qr.v[normal]
    out_l, out_r, tmp = rows
    return _vn(ql.v, normal, out_l, tmp), _vn(qr.v, normal, out_r, tmp)


def _add_pressure(momentum, p, normal):
    """p n_i added onto momentum row i, row by row (a (d, lanes) p n block
    is slower once it passes the allocator's mmap threshold); along an
    axis onto that axis's row only."""
    if _is_axis(normal):
        momentum[normal] += p
    else:
        for i, n_i in enumerate(normal):
            momentum[i] += p * n_i


# rows 0-5 of the split-form scratch serve the means and v.n (_split_lanes);
# a pair normal goes into the d rows after them (_pair_flux)
_NORMAL_ROW = 6


def _split_scratch(d, lanes):
    """Uninitialized scratch of the split-form kernel: 6 + d lane rows."""
    return np.empty((_NORMAL_ROW + d, lanes))


def _split_lanes(kind, ql, qr, normal, vn, gas, n_real, out, scratch):
    """The split-form volume fluxes, which differ only in two terms:
    shima takes the arithmetic density mean and the internal energy flux
    {{p}} {{v.n}} / (gamma - 1), ranocha the logarithmic density mean and
    {{rho}}_log {{v.n}} / ((gamma - 1) {{rho/p}}_log).

    Every intermediate lands in `scratch`, 6 + d lane rows (_split_scratch).
    ranocha first forms rho_l p_r and rho_r p_l in rows 0 and 1, their
    reciprocal log mean through rows 2-5, and p_l p_r times it in row 0;
    then its density mean through rows 2-5, which ends in row 5 (shima's
    arithmetic one goes there directly). vn is (v_l.n, v_r.n) when the
    caller has them; otherwise they are the velocity rows along an axis, or
    are summed into rows 2 and 3 along normal rows, which may be the last d
    scratch rows (_pair_flux). {{p}} goes into row 4, {{v.n}} into row 1,
    and along normal rows the pressure rows {{p}} n_i into out before the
    momentum products are added, which frees the last d rows for the
    momentum and energy terms. The energy row comes last."""
    add_two_point(n_real)
    work = scratch[2:_NORMAL_ROW]
    if kind == "ranocha":
        add_logmean(2 * n_real)
        inv_mean = inv_logmean_batched(
            np.multiply(ql.rho, qr.p, out=scratch[0]),
            np.multiply(qr.rho, ql.p, out=scratch[1]),
            work,
        )
        p_p = np.multiply(ql.p, qr.p, out=scratch[1])
        inv_rho_p_mean = np.multiply(p_p, inv_mean, out=scratch[0])
        rho_mean = logmean_batched(ql.rho, qr.rho, work)
    else:
        rho_mean = np.add(ql.rho, qr.rho, out=work[3])
        rho_mean *= 0.5
    axis = _is_axis(normal)
    vn_l, vn_r = _directed(ql, qr, normal, scratch[2:5]) if vn is None else vn
    p_avg = np.add(ql.p, qr.p, out=scratch[4])
    p_avg *= 0.5
    vn_avg = np.add(vn_l, vn_r, out=scratch[1])
    vn_avg *= 0.5
    f_rho = np.multiply(rho_mean, vn_avg, out=out[0])
    if not axis:
        for i, n_i in enumerate(normal):
            np.multiply(p_avg, n_i, out=out[1 + i])
    half_f_rho, tmp = scratch[_NORMAL_ROW], scratch[_NORMAL_ROW + 1]
    vv = np.multiply(ql.v[0], qr.v[0], out=rho_mean)
    for i in range(1, len(ql.v)):
        vv += np.multiply(ql.v[i], qr.v[i], out=tmp)
    np.multiply(f_rho, 0.5, out=half_f_rho)
    for i in range(len(ql.v)):
        momentum = np.add(ql.v[i], qr.v[i], out=out[1 + i] if axis else tmp)
        momentum *= half_f_rho
        if not axis:
            out[1 + i] += momentum
    if axis:
        out[1 + normal] += p_avg
    igm1 = gas.inv_gamma_minus_one
    if kind == "ranocha":
        vv *= 0.5
        inv_rho_p_mean *= igm1
        vv += inv_rho_p_mean
        vv *= f_rho
    else:
        vv *= half_f_rho
        p_avg *= vn_avg
        p_avg *= igm1
        vv += p_avg
    pv = np.multiply(ql.p, vn_r, out=scratch[0])
    pv += np.multiply(qr.p, vn_l, out=tmp)
    pv *= 0.5
    np.add(vv, pv, out=out[-1])
    return out


def _phys_lanes(q, vn, normal, out):
    """The physical flux f(q).n into the block out, from vn = v.n: the
    momentum rows (rho v_i) v.n as one block product, then the pressure
    (_add_pressure)."""
    d = len(q.v)
    np.multiply(q.rho, vn, out=out[0])
    momentum = np.multiply(q.u[1 : d + 1], vn, out=out[1 : d + 1])
    _add_pressure(momentum, q.p, normal)
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


def _flux_lanes(kind, ql, qr, normal, gas, n_real, out, vn=None, scratch=None):
    """flux_lanes, given vn = (v_l.n, v_r.n) when the caller has them
    (_directed); None: formed here. No kernel writes into vn, which along
    an axis are rows of the states."""
    if out is None:
        out = np.empty((len(ql.v) + 2,) + ql.rho.shape)
    if kind in OWN_FLUX_KINDS:
        vn_l, vn_r = _directed(ql, qr, normal) if vn is None else vn
        f_r = np.empty_like(out)
        return _own_flux_lanes(
            kind, ql, qr, vn_l, vn_r, normal, gas, n_real, out, f_r, out, f_r
        )
    if kind in ("shima", "ranocha"):
        if scratch is None:
            scratch = _split_scratch(len(ql.v), out.shape[-1])
        return _split_lanes(kind, ql, qr, normal, vn, gas, n_real, out, scratch)
    raise ConfigurationError("unknown flux kind %r" % (kind,))


def flux_lanes(kind, ql, qr, normal, gas, n_real, out=None, scratch=None):
    """Two-point flux of `kind` over lanes along `normal`: either a tuple
    of d per-lane component rows (the scaled normal) or an int, the index
    j of a coordinate axis (unscaled). Along an axis every kind runs in
    axis form: v.n is the velocity row v_j itself, the pressure goes onto
    momentum row j only, and the llf and hll wave speeds carry no |n|;
    the Cartesian volume pairs and interface points take this flux and
    multiply in the constant face area once.

    The flux goes into `out`, a (d+2, lanes) block of any strides that the
    caller owns, allocated here when omitted, and the block is returned:
    row k is flux component k of every lane. Every entry is overwritten,
    so one block can serve call after call; it must not share memory with
    the states or the normal. central, llf and hll form f(q_l).n in `out`
    and f(q_r).n in one scratch block, then combine them (llf's jump
    u_r - u_l reuses the scratch block); llf and hll bound the wave speeds
    against the scaled normal, as the scalar kernels do. shima and ranocha
    write every intermediate, v.n included, into `scratch`, (d+6, lanes)
    lane rows that the caller owns (allocated here when omitted), so with
    both blocks given they allocate nothing but the index array of the
    log-branch lanes of the log means. scratch must not share memory with
    out or the states; of the normal it may hold only its last d rows,
    which the pair loops fill with the pair normal (_pair_flux)."""
    return _flux_lanes(kind, ql, qr, normal, gas, n_real, out, scratch=scratch)


# ---------------------------------------------------------------------------
# mesh-level lane assembly (elements folded into the lane axis)

def _line_major(arr, setup, n):
    """geometry.line_major of a nodal array (n_elem, (p+1)^d, m) on the
    setup's mesh: the (m, p+1, n_elem, ...) view whose entry [k, a] is
    component k at position a of every node line in direction n."""
    return line_major(arr, n, setup.op.n_nodes, setup.d)


def _line_buffer(setup, m):
    """Uninitialized (m, p+1, lanes) line rows for _line_rows. Every
    direction has n_elem (p+1)^(d-1) node lines, so one buffer serves each
    direction in turn."""
    p1 = setup.op.n_nodes
    return np.empty((m, p1, setup.n_elements * p1 ** (setup.d - 1)))


def _line_accumulator(setup, m):
    """Uninitialized position-major line rows (p+1, m, lanes): the m rows
    of each line position are one contiguous block, so every term a pair
    loop adds at one position is one block add (_line_terms)."""
    p1 = setup.op.n_nodes
    return np.empty((p1, m, setup.n_elements * p1 ** (setup.d - 1)))


def _as_line_major(rows, setup):
    """(m, p+1, lanes) line rows viewed in the shape of _line_major, the
    lane axis split into (n_elem, p+1, ...); a position-major accumulator
    (p+1, m, lanes) keeps its first two axes, and its swapped view is in
    the shape of _line_major."""
    p1 = setup.op.n_nodes
    return rows.reshape(rows.shape[:2] + (setup.n_elements,) + (p1,) * (setup.d - 1))


def _line_rows(arr, setup, n, rows):
    """Fill `rows`, a _line_buffer, with _line_major(arr) and return it: row
    [k, a] is one lane array, a lane being one node line (element, line).
    Every lane is read by p pairs, so it is copied even in direction d-1,
    where a strided view would do."""
    np.copyto(_as_line_major(rows, setup), _line_major(arr, setup, n))
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


def _face_rows(arr, order=None):
    """(n_elem, face nodes, m) face arrays as (m, lanes) rows, one lane per
    face point, elements taken in `order` (default: as stored, a view; each
    face lane is read only once or twice, so a contiguous copy costs more
    than it saves). The gather runs along the element axis of whichever
    view is C-contiguous, the array itself or its rows, so the copy keeps
    the layout: a component-major face array (every Gauss face array)
    gives contiguous rows on both sides of an interface."""
    if order is not None and arr.flags.c_contiguous:
        arr, order = arr.take(order, axis=0), None
    rows = arr.transpose(2, 0, 1)
    if order is not None:
        rows = rows.take(order, axis=1)
    return rows.reshape(arr.shape[-1], -1)


def _face_lanes(states, q, order=None):
    """Lanes over face points from (n_elem, face nodes, d+2) conserved states
    and their primitives, elements taken in `order` (_face_rows). states is
    None where rhs asked face_states for primitives alone (rhs's
    `conserved`, the one place that decides which face readers take
    conserved states); then the lanes carry none."""
    rows = _face_rows(q, order)
    return _row_lanes(rows, None if states is None else _face_rows(states, order))


def _line_geometry(setup, n):
    """(pair weight scale, metric lines) of direction n. On Cartesian
    meshes the scale is the constant face area and the metric lines are the
    axis index n: the pairs then take the unscaled axis-n flux. Elsewhere
    the scale is 1.0 and the metric lines are direction n's block of the
    line-ordered metric store (geometry.MetricData), (p+1, d, lanes), no
    copy: entry [a, j] is (Ja)^n_j at line position a of every lane, and
    each [a] is one contiguous (d, lanes) block."""
    if setup.mesh.is_cartesian:
        return float(setup.metrics.line_ja[n, 0, n, 0]), n
    return 1.0, setup.metrics.line_ja[n]


def _face_geometry(setup, n, side=1):
    """(scale, normal) of one side of direction n's faces, the face twin of
    _line_geometry: on Cartesian meshes the constant face area and the
    axis index n, the face fluxes then taking the unscaled axis-n form with
    the area multiplied in once (by the lift, or on the Gauss side blocks);
    elsewhere 1.0 and the face metric terms face_ja[n][side] as (d, lanes)
    rows, lanes in element order, no copy: each row is one contiguous block
    of a metric store (geometry.MetricData: the volume store on Lobatto
    grids, the extrapolated face block on Gauss grids). Side 1 holds the
    interface normals, which both elements of an interface share."""
    if setup.mesh.is_cartesian:
        return float(setup.metrics.line_ja[n, 0, n, 0]), n
    return 1.0, _face_rows(setup.metrics.face_ja[n][side])


def _pair_flux(kind, ql, qr, ja_a, ja_b, gas, f, scratch):
    """The two-point flux between two lane sets into the block f: along
    the pair normal 0.5 (ja_a + ja_b), formed in the last d rows of
    scratch, a _split_scratch, from two (d, lanes) blocks of metric rows,
    or along the axis ja_a. The volume blocks are contiguous and the face
    rows are rows of a contiguous block, so the add runs on whole rows and
    numpy takes no iterator buffer for it."""
    normal = ja_a
    if not _is_axis(ja_a):
        normal = np.add(ja_a, ja_b, out=scratch[_NORMAL_ROW:])
        normal *= 0.5
    return flux_lanes(kind, ql, qr, normal, gas, f.shape[-1], f, scratch)


def _line_terms(kind, lanes, ja, pairs, scale, gas, acc, f, scratch, coupling=()):
    """Add one direction's two-point terms into acc, the position-major
    (p+1, d+2, lanes) accumulator of the node lines (_line_accumulator):
    each pair (a, b, c_ab, c_ba) of the table adds scale c_ab F(a, b) into
    the contiguous block acc[a] and scale c_ba F(a, b) into acc[b], along
    the pair normal 0.5 (Ja_a + Ja_b) (_pair_flux). lanes holds one Lanes
    per line position, ja the direction's metric lines (its axis index on
    Cartesian meshes, see _line_geometry), f is a (d+2, lanes) flux block
    and scratch a _split_scratch, whose last d rows hold each pair normal
    and whose first d+2 rows hold each weighted flux before it is added.

    coupling, per side s = 0, 1, is (face lanes, face metric rows (d,
    lanes) or the axis index, face-row sum, c_vol, c_face, lift row) of a
    hybridized operator (operators.hybridized_scatter): each line position
    a adds scale c_vol[a] F(a, face) at a and scale c_face[a] F(a, face)
    into the face-row sum, a (d+2, lanes) block that arrives holding the
    side's interface flux; the lift row then carries the whole sum back
    onto the line."""
    positions = [ja if _is_axis(ja) else ja[a] for a in range(len(acc))]
    weighted = scratch[: f.shape[0]]
    for a, b, cab, cba in pairs:
        _pair_flux(kind, lanes[a], lanes[b], positions[a], positions[b], gas, f, scratch)
        acc[a] += np.multiply(f, cab * scale, out=weighted)
        acc[b] += np.multiply(f, cba * scale, out=weighted)
    for face, face_ja, rface, cvol, cface, lrow in coupling:
        for a, ja_a in enumerate(positions):
            _pair_flux(kind, lanes[a], face, ja_a, face_ja, gas, f, scratch)
            acc[a] += np.multiply(f, cvol[a] * scale, out=weighted)
            rface += np.multiply(f, cface[a] * scale, out=weighted)
        for a, la in enumerate(lrow):
            acc[a] += np.multiply(rface, la, out=weighted)


def mesh_fluxdiff_volume(u, prim, setup, config):
    """Flux-differencing volume term for the whole mesh, elements folded
    into the lane axis; prim = cons2prim(u). Returns the Jacobian-scaled VOL
    array.

    The line buffers are made once per call and refilled per direction:
    primitive rows, conserved rows for the central flux (the one volume
    kind that reads them) and the position-major accumulator
    (_line_accumulator). out starts uninitialized: direction 0 copies its
    accumulator, through the swapped view, into the line-major view of
    out; every later direction, once its pairs are done, copies its
    accumulator into the primitive line buffer, which is free until the
    next refill, viewed in node layout, and adds that into out with one
    contiguous add."""
    d = setup.d
    nvar = d + 2
    vol_flux = config.volume_flux
    pairs = split_pairs(setup.op.degree)
    q = _line_buffer(setup, nvar)
    cons = _line_buffer(setup, nvar) if vol_flux in OWN_FLUX_KINDS else None
    acc = _line_accumulator(setup, nvar)
    lanes = _line_lanes(q, cons)
    f = np.empty((nvar, q.shape[-1]))
    scratch = _split_scratch(d, q.shape[-1])
    out = np.empty_like(u)
    for n in range(d):
        _line_rows(prim, setup, n, q)
        if cons is not None:
            _line_rows(u, setup, n, cons)
        scale, ja = _line_geometry(setup, n)
        acc.fill(0.0)
        _line_terms(vol_flux, lanes, ja, pairs, scale, setup.gas, acc, f, scratch)
        nodal = out if n == 0 else q.reshape(u.shape)
        lines = _as_line_major(acc.swapaxes(0, 1), setup)
        np.copyto(_line_major(nodal, setup, n), lines)
        if n > 0:
            out += nodal
    # one evenly strided pass per component: dividing by the broadcast
    # (n_elem, nodes, 1) Jacobian made numpy buffer np.getbufsize() doubles
    for k in range(nvar):
        out[..., k] /= setup.metrics.jac
    return out


def _interface_lanes(faces, setup, n):
    """The two sides of every interface in direction n: the minus element's
    side-1 states and its plus neighbour's side-0 states, one lane per face
    point."""
    (u0, q0), (u1, q1) = faces
    ql = _face_lanes(u1, q1)
    qr = _face_lanes(u0, q0, setup.plus_neighbor[n])
    return ql, qr


def _interface_fluxes(faces, setup, n, kind, subtract_own, normal):
    """The (minus, plus) flux blocks mesh_surface lifts, lanes in
    minus-element order, along the normal of _face_geometry (the normal
    rows, or the axis index, unscaled): the numerical flux f for both sides,
    or with subtract_own the strong form's f - f(q_l).n and f - f(q_r).n,
    written over the own-side flux blocks: those that central, llf and hll
    combine f from, or for shima and ranocha, which form none, a fresh
    pair. The face lanes die with this call, before the lift."""
    ql, qr = _interface_lanes(faces, setup, n)
    gas = setup.gas
    n_lanes = ql.rho.size
    if not subtract_own:
        f = _flux_lanes(kind, ql, qr, normal, gas, n_lanes, None)
        return f, f
    add_one_point(2 * n_lanes)
    vn_l, vn_r = _directed(ql, qr, normal)
    f_l = np.empty((len(ql.v) + 2, n_lanes))
    f_r = np.empty_like(f_l)
    if kind in OWN_FLUX_KINDS:
        f = np.empty_like(f_l)
        _own_flux_lanes(kind, ql, qr, vn_l, vn_r, normal, gas, n_lanes, f_l, f_r, f)
    else:
        f = _flux_lanes(kind, ql, qr, normal, gas, n_lanes, None, (vn_l, vn_r))
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
    axis = _is_axis(normal)
    if axis:
        jac = float(setup.metrics.jac[0, 0])  # constant on a Cartesian mesh
    else:
        jac = _line_major(setup.metrics.jac[..., None], setup, n)[0]
    if op.family == "lgl":
        if axis:
            view[:, -1] += fm * (area / (w1d[-1] * jac))
            view[:, 0] -= fp * (area / (w1d[0] * jac))
        else:
            view[:, -1] += fm / (w1d[-1] * jac[-1])
            view[:, 0] -= fp / (w1d[0] * jac[0])
        return
    per_position = (slice(None),) + (None,) * (view.ndim - 2)
    lift_m = (op.boundary_interp[1] / w1d)[per_position]
    lift_p = (op.boundary_interp[0] / w1d)[per_position]
    if axis:
        view += (lift_m * (area / jac)) * fm[:, None]
        view -= (lift_p * (area / jac)) * fp[:, None]
    else:
        view += (lift_m * fm[:, None]) / jac
        view -= (lift_p * fp[:, None]) / jac


def mesh_surface(faces, setup, n, surface_flux, subtract_own, out):
    """Interface terms in direction n of the strong, weak, overintegration
    and lgl flux-differencing schemes, one lane per face point, added into
    `out`. faces are the direction's states from
    discretization.face_states: the elements' own traces of u. subtract_own
    selects the strong-form coupling f_num - f(own face state): central,
    llf and hll subtract the own-side fluxes their surface kernel formed,
    shima and ranocha recompute them (_interface_fluxes). On Cartesian
    meshes the fluxes are the axis form and the lift multiplies in the face
    area. Lane counterpart of reference.surface_terms."""
    _, normal = _face_geometry(setup, n)
    fm, fp = _interface_fluxes(faces, setup, n, surface_flux, subtract_own, normal)
    _lift(out, setup, n, fm, fp)
    return out


def mesh_gauss_volume(u, prim, faces, sides, setup, n, config, out):
    """Zero-corner hybridized term of gauss_fluxdiff in direction n over
    the mesh, interface fluxes included, divided by J and added into out;
    prim = cons2prim(u), faces are the direction's entropy-projected states
    from discretization.face_states (conserved ones are read only for the
    central volume flux) and sides the two interface-flux blocks from
    mesh_gauss_surface, which become the face-row sums of the line kernel
    (and are overwritten by them). The coupling normals are the face
    metric rows of _face_geometry. The position-major accumulator
    (_line_accumulator) is divided by J in place and added into the
    line-major view of out through its swapped view."""
    require_volume_kind(config.volume_flux)
    op = setup.op
    nvar = setup.d + 2
    vol_flux = config.volume_flux
    pairs, vol_face, lift = hybridized_scatter(op.degree, op.family)
    q = _line_rows(prim, setup, n, _line_buffer(setup, nvar))
    cons = None
    if vol_flux in OWN_FLUX_KINDS:
        cons = _line_rows(u, setup, n, _line_buffer(setup, nvar))
    scale, ja = _line_geometry(setup, n)
    # made one side at a time as the kernel reaches it, so no face lanes are
    # held during the pair loop; the face metric terms are views
    coupling = (
        (
            _face_lanes(*faces[s]),
            ja if _is_axis(ja) else _face_geometry(setup, n, s)[1],
            sides[s],
            cvol,
            cface,
            lift[s],
        )
        for s, (cvol, cface) in enumerate(vol_face)
    )
    acc = _line_accumulator(setup, nvar)
    acc.fill(0.0)
    lanes = acc.shape[-1]
    # the flux block and the scratch die with the line kernel's call
    _line_terms(
        vol_flux, _line_lanes(q, cons), ja, pairs, scale, setup.gas, acc,
        np.empty((nvar, lanes)), _split_scratch(setup.d, lanes), coupling,
    )
    acc = _as_line_major(acc, setup)
    acc /= _line_major(setup.metrics.jac[..., None], setup, n)[0][:, None]
    view = _line_major(out, setup, n)
    view += acc.swapaxes(0, 1)
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
    with identical arguments; the scalar reference.surface_terms
    evaluates it once. The benchmark's count test pins the second
    evaluation (batched.mesh_gauss_surface.useful_eval_ratio == 0.5)."""
    ql, qr = _interface_lanes(faces, setup, n)
    scale, normal = _face_geometry(setup, n)
    vn = _directed(ql, qr, normal)
    n_lanes = ql.rho.size
    f_m, f_p = (
        _flux_lanes(surface_flux, ql, qr, normal, setup.gas, n_lanes, None, vn)
        for _ in range(2)
    )
    f_m *= scale
    side0 = _plus_in_element_order(f_p, setup, n)
    return np.multiply(side0, -scale, out=side0).reshape(f_m.shape), f_m
