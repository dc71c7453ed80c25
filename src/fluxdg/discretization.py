"""Right-hand-side assembly for split-form DG on structured periodic meshes.

Layout conventions used throughout:

* a solution field has shape (n_elements, (p+1)^d, d+2), conserved
  variables on the last axis, nodes in C order over the reference
  coordinates;
* per direction n, the element's nodes decompose into 1D "lines"; pair
  loops and face gathers all run line by line, which is how the tensor
  product structure is exploited (the 1D matrices are never blown up to
  d dimensions);
* volume operators return the VOL part of du/dt = -(VOL + SURF), already
  divided by the Jacobian, so a positive VOL approximates the flux
  divergence.

The two-point functions (volume_fluxdiff for one lgl element,
_scalar_gauss_volume for gauss_fluxdiff, both through the one line kernel
_line_terms, and surface_terms, the one scalar surface loop of every
scheme) are the scalar reference implementations: plain float arithmetic
through the scalar directional flux kernels (a Cartesian element passes
its axis scaled by the face area), fixed accumulation order, bitwise
reproducible. The one-point volume functions (volume_strong, volume_weak,
volume_overintegration) are numpy expressions that take one element or the
whole mesh at once; the first two read primitives that the caller has
already converted. face_states builds every interface state once per RHS,
one direction at a time, for both kernels: Lobatto boundary nodes, Gauss
traces, or entropy-projected states. `rhs` assembles them over the mesh;
with kernel="batched" every scheme's two-point work (volume pairs and
interface fluxes) runs in the mesh-level lane kernels in `batched`, which
are equivalence-tested against the reference path.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import batched as _batched
from .errors import AdmissibilityError, ConfigurationError
from .euler import (
    cons2prim,
    directional_flux,
    entropy2prim,
    entropy_vars,
    prim2cons,
    prim2entropy,
)

# not called here: perfbench/tracing.py names it as a span boundary, and its
# tests require every boundary to exist
from .euler import entropy2cons  # noqa: F401
from .fluxes import (
    SURFACE_KINDS,
    _phys_flux_n,
    add_one_point,
    count_guard,
    flux_function,
    require_volume_kind,
)
from .geometry import (
    apply_along,
    compute_metrics,
    element_coords,
    element_metrics,
    neighbor_table,
)
from .operators import (
    build_dsplit,
    hybridized_scatter,
    make_operator,
    node_line_lists,
    node_lines,
    pair_table,
    transfer_matrices,
)

VOLUME_SCHEMES = (
    "strong",
    "weak",
    "fluxdiff",
    "overintegration",
    "gauss_fluxdiff",
)
KERNELS = ("reference", "batched")


@dataclass(frozen=True)
class RhsConfig:
    """Scheme selection for one right-hand-side evaluation."""

    volume_scheme: str = "fluxdiff"
    volume_flux: str = "ranocha"
    surface_flux: str = "ranocha"
    overint_degree: int | None = None
    kernel: str = "reference"

    def validate(self, setup):
        if self.volume_scheme not in VOLUME_SCHEMES:
            raise ConfigurationError(
                "volume_scheme: unknown scheme %r (choose from %s)"
                % (self.volume_scheme, ", ".join(VOLUME_SCHEMES))
            )
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                "kernel: unknown kernel %r (choose from %s)"
                % (self.kernel, ", ".join(KERNELS))
            )
        if self.surface_flux not in SURFACE_KINDS:
            raise ConfigurationError(
                "surface_flux: unknown kind %r (choose from %s)"
                % (self.surface_flux, ", ".join(SURFACE_KINDS))
            )
        if self.volume_scheme in ("fluxdiff", "gauss_fluxdiff"):
            require_volume_kind(self.volume_flux)
        family = setup.op.family
        if self.volume_scheme == "gauss_fluxdiff" and family != "gauss":
            raise ConfigurationError(
                "volume_scheme: %r requires gauss operators, got family %r"
                % (self.volume_scheme, family)
            )
        if self.volume_scheme == "fluxdiff" and family != "lgl":
            raise ConfigurationError(
                "volume_scheme: 'fluxdiff' requires the lgl family (diagonal "
                "boundary operator); use gauss_fluxdiff on gauss nodes"
            )
        if self.volume_scheme == "overintegration":
            if not setup.mesh.is_cartesian:
                raise ConfigurationError(
                    "volume_scheme: overintegration supports Cartesian meshes only"
                )
            q = self.overint_degree
            if q is None or q < setup.op.degree:
                raise ConfigurationError(
                    "overint_degree: need a degree >= p for overintegration, got %r"
                    % (q,)
                )
            if setup.overint is None or setup.overint[0].degree != q:
                raise ConfigurationError(
                    "overint_degree: setup was not built for degree %r "
                    "(pass overint_degree to build_setup)" % (q,)
                )


# ---------------------------------------------------------------------------
# volume operators (one-point numpy forms; scalar two-point reference path)

def volume_strong(u_elem, q_elem, op, metrics):
    """Strong-form volume term: (1/J) sum_n D_n (sum_j (Ja)^n_j f^j(u)).

    u_elem is one element (nodes, d+2) or a stack of them with leading
    element axes, q_elem = cons2prim(u_elem); metrics.ja/jac carry the same
    leading axes (or none, for metrics shared by every element)."""
    d = u_elem.shape[-1] - 2
    lead = u_elem.ndim - 2
    p1 = op.n_nodes
    add_one_point(d * (u_elem.size // (d + 2)))
    acc = np.zeros_like(u_elem)
    shape = u_elem.shape[:lead] + (p1,) * d + (-1,)
    for n in range(d):
        contra = directional_flux(u_elem, q_elem, metrics.ja[..., n, :])
        acc += apply_along(op.D, contra.reshape(shape), n + lead).reshape(u_elem.shape)
    return acc / metrics.jac[..., None]


@lru_cache(maxsize=None)
def _weak_matrix(degree, family):
    op = make_operator(degree, family)
    mat = (op.D.T * op.weights[None, :]) / op.weights[:, None]
    mat.flags.writeable = False
    return mat


def volume_weak(u_elem, q_elem, op, metrics):
    """Weak-form volume term -(1/J) sum_n M^{-1} D_n^T M F^n, on one element
    or a stack of them (arguments as in volume_strong).

    For a constant state this is nonzero at boundary nodes (it carries the
    boundary part of the SBP identity); the assembled RHS cancels it against
    the surface flux.
    """
    d = u_elem.shape[-1] - 2
    lead = u_elem.ndim - 2
    p1 = op.n_nodes
    wmat = _weak_matrix(op.degree, op.family)
    add_one_point(d * (u_elem.size // (d + 2)))
    acc = np.zeros_like(u_elem)
    shape = u_elem.shape[:lead] + (p1,) * d + (-1,)
    for n in range(d):
        contra = directional_flux(u_elem, q_elem, metrics.ja[..., n, :])
        acc -= apply_along(wmat, contra.reshape(shape), n + lead).reshape(u_elem.shape)
    return acc / metrics.jac[..., None]


def volume_fluxdiff(u_elem, dop, metrics, vol_flux, gas):
    """Flux-differencing volume term with the split derivative matrix.

    Pairs are visited once with i < k per line; the symmetric two-point flux
    along the arithmetically averaged metric vectors is scattered with the
    stored (i,k) and (k,i) matrix weights, preserving the operator's
    M-antisymmetry exactly in floating point.
    """
    require_volume_kind(vol_flux)
    nvar = u_elem.shape[-1]
    pairs = pair_table(dop.matrix)
    dirn = flux_function(vol_flux)
    states = u_elem.tolist()
    acc = [[0.0] * nvar for _ in range(u_elem.shape[0])]
    for n, lines in enumerate(node_line_lists(dop.op.n_nodes, nvar - 2)):
        jan = metrics.ja[:, n, :].tolist()
        for line in lines:
            _line_terms(states, line, jan, pairs, dirn, gas, nvar, acc)
    out = np.asarray(acc)
    out /= metrics.jac[:, None]
    return out


def volume_overintegration(u_elem, op, transfer, metrics_q, gas):
    """Interpolate to the degree-q grid, apply the weak-form volume term
    there, L2-project back. Cartesian metric terms only (metrics_q is shared
    by every element); u_elem may carry leading element axes."""
    d = u_elem.shape[-1] - 2
    lead = u_elem.ndim - 2
    p1 = op.n_nodes
    q1 = transfer.degree_high + 1
    op_q = make_operator(transfer.degree_high, op.family)
    uq = u_elem.reshape(u_elem.shape[:lead] + (p1,) * d + (-1,))
    for n in range(d):
        uq = apply_along(transfer.interp, uq, n + lead)
    uq = uq.reshape(u_elem.shape[:lead] + (q1**d, -1))
    vol_q = volume_weak(uq, cons2prim(uq, gas), op_q, metrics_q)
    back = vol_q.reshape(u_elem.shape[:lead] + (q1,) * d + (-1,))
    for n in range(d):
        back = apply_along(transfer.project, back, n + lead)
    return back.reshape(u_elem.shape)


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


# ---------------------------------------------------------------------------
# mesh-level setup and assembly

@dataclass(frozen=True)
class SpatialSetup:
    """Everything precomputable for RHS evaluations on one mesh/operator."""

    mesh: object
    op: object
    gas: object
    metrics: object
    coords: np.ndarray
    lines: tuple
    plus_neighbor: tuple
    dsplit: object
    wbar: np.ndarray
    overint: tuple

    @property
    def n_elements(self):
        return self.coords.shape[0]

    @property
    def n_nodes(self):
        return self.coords.shape[1]

    @property
    def d(self):
        return self.mesh.d

    @property
    def dofs(self):
        return self.n_elements * self.n_nodes


def build_setup(mesh, op, gas, overint_degree=None):
    """Precompute geometry, connectivity and operator tables for `rhs`."""
    d = mesh.d
    p1 = op.n_nodes
    coords = element_coords(mesh, op)
    metrics = compute_metrics(mesh, op, coords)
    lines = node_lines(p1, d)
    plus = neighbor_table(mesh)
    dsplit = build_dsplit(op) if op.family == "lgl" else None
    wbar = np.ones(1)
    for n in range(d):
        wbar = np.kron(wbar, op.weights)
    overint = None
    if overint_degree is not None:
        if overint_degree < op.degree:
            raise ConfigurationError(
                "overint_degree: need a degree >= p, got %r" % (overint_degree,)
            )
        transfer = transfer_matrices(op.degree, overint_degree, op.family)
        op_q = make_operator(overint_degree, op.family)
        from .geometry import MetricTerms

        if not mesh.is_cartesian:
            raise ConfigurationError(
                "overint_degree: overintegration supports Cartesian meshes only"
            )
        nnq = op_q.n_nodes**d
        jac_val = 1.0
        for wdt in mesh.widths:
            jac_val *= 0.5 * wdt
        ja_q = np.zeros((nnq, d, d))
        for n in range(d):
            ja_q[:, n, n] = jac_val / (0.5 * mesh.widths[n])
        metrics_q = MetricTerms(ja_q, np.full(nnq, jac_val))
        overint = (op_q, transfer, metrics_q)
    return SpatialSetup(
        mesh,
        op,
        gas,
        metrics,
        coords,
        lines,
        plus,
        dsplit,
        wbar,
        overint,
    )


def face_states(u, prim, setup, projected):
    """Every element's interface states, one direction at a time: yields, for
    n = 0 .. d-1, ((u0, q0), (u1, q1)), the conserved states and their
    primitives on the element's reference -1 face (side 0) and +1 face
    (side 1), each (n_elem, face nodes, d+2) with face nodes in line order.
    prim = cons2prim(u). Every source reads the nodal arrays as
    (n_elem, p+1, ..., p+1, d+2) tensors, along the tensor axis of
    direction n, with no node index lists:

    * projected (gauss_fluxdiff): the entropy projection, the entropy
      variables of prim interpolated to the face and mapped back, with
      primitives from the inverse entropy map and conserved states from
      prim2cons;
    * otherwise on Lobatto grids the first and last slices of u and prim
      along that axis (the boundary nodes);
    * otherwise on Gauss grids the interpolated traces of u, converted here
      because they are not nodal values.

    Each element's own states are checked before any neighbour permutation:
    AdmissibilityError names the element, face node, direction and side of
    the first inadmissible one. Only one direction's states are built at a
    time, so a caller that consumes them per direction never holds all.
    """
    op = setup.op
    gas = setup.gas
    d = setup.d
    n_elem, _, nvar = u.shape
    shape = (n_elem,) + (op.n_nodes,) * d + (nvar,)
    if projected:
        source, made_by = prim2entropy(prim, gas), "entropy projection"
    elif op.family == "gauss":
        source, made_by = u, "interpolation"
    else:
        u_nd, q_nd = u.reshape(shape), prim.reshape(shape)
        for n in range(d):
            yield tuple(
                tuple(
                    np.take(arr, c, axis=n + 1).reshape(n_elem, -1, nvar)
                    for arr in (u_nd, q_nd)
                )
                for c in (0, -1)
            )
        return
    nodal = source.reshape(shape)
    for n in range(d):
        moved = np.moveaxis(nodal, n + 1, -2)
        sides = []
        for side in (0, 1):
            trace = np.einsum("...kv,k->...v", moved, op.boundary_interp[side])
            trace = trace.reshape(n_elem, -1, nvar)
            try:
                if projected:
                    q = entropy2prim(trace, gas)
                    sides.append((prim2cons(q, gas), q))
                else:
                    sides.append((trace, cons2prim(trace, gas)))
            except AdmissibilityError as err:
                e, m = err.index
                raise AdmissibilityError(
                    "%s produced an inadmissible face state at element %d, face "
                    "node %d (direction %d, side %d)" % (made_by, e, m, n, side)
                ) from err
        yield tuple(sides)


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
    lines = setup.lines[n].tolist()
    jac = setup.metrics.jac.tolist()
    normals = setup.metrics.face_ja[n].tolist()
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
                own_m = _phys_flux_n(ul, ql[0], ql[1:-1], ql[-1], nrm)
                own_p = _phys_flux_n(ur, qr[0], qr[1:-1], qr[-1], nrm)
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


def rhs(u, setup, config, counter=None):
    """Assembled right-hand side du/dt = -(VOL + SURF).

    Deterministic for fixed inputs: element loops and pair loops run in a
    fixed order. config.kernel == "batched" runs every scheme's two-point
    work (volume pairs and interface fluxes) in the lane-parallel kernels;
    "reference" runs it through the scalar oracle. The one-point volume
    terms are one numpy pass over the whole mesh with either kernel.

    u is converted to primitives once; that pass is the admissibility check
    (AdmissibilityError names the first bad element and node), and every
    volume and surface kernel reads its result instead of converting again.
    The interface states are built once, by face_states, one direction at a
    time, and read by both the volume and the surface kernels.
    """
    if counter is not None:
        with count_guard(counter):
            return rhs(u, setup, config)
    config.validate(setup)
    u = np.asarray(u, dtype=float)
    gas = setup.gas
    prim = cons2prim(u, gas)
    scheme = config.volume_scheme
    batched = config.kernel == "batched"
    # gauss_fluxdiff: zero-corner volume arrangement on entropy-projected
    # face states plus bare interface fluxes; the face consistency (corner)
    # flux of the full hybridized operator cancels against the strong-form
    # surface subtraction, so neither is computed
    projected = scheme == "gauss_fluxdiff"
    if scheme == "strong":
        out = volume_strong(u, prim, setup.op, setup.metrics)
    elif scheme == "weak":
        out = volume_weak(u, prim, setup.op, setup.metrics)
    elif scheme == "overintegration":
        _op_q, transfer, metrics_q = setup.overint
        out = volume_overintegration(u, setup.op, transfer, metrics_q, gas)
    elif scheme == "fluxdiff" and batched:
        out = _batched.mesh_fluxdiff_volume(u, prim, setup, config)
    elif scheme == "fluxdiff":
        out = np.empty_like(u)
        for e in range(setup.n_elements):
            terms = element_metrics(setup.metrics, e)
            out[e] = volume_fluxdiff(u[e], setup.dsplit, terms, config.volume_flux, gas)
    else:
        out = np.zeros_like(u)
    # the weak-form volume term (which overintegration projects back from
    # the fine grid) already carries the boundary flux of the element's own
    # state, so only the strong form subtracts it at the interfaces
    subtract = scheme == "strong"
    kind = config.surface_flux
    for n, faces in enumerate(face_states(u, prim, setup, projected)):
        if projected and batched:
            sides = _batched.mesh_gauss_surface(faces, setup, n, kind)
            _batched.mesh_gauss_volume(u, prim, faces, sides, setup, n, config, out)
        elif projected:
            _scalar_gauss_volume(u, faces, setup, n, config, out)
            surface_terms(faces, setup, n, kind, False, out)
        elif batched:
            _batched.mesh_surface(faces, setup, n, kind, subtract, out)
        else:
            surface_terms(faces, setup, n, kind, subtract, out)
    # every branch above made `out` afresh, so it can be negated in place
    return np.negative(out, out=out)


def _scalar_gauss_volume(u, faces, setup, n, config, out):
    """Zero-corner hybridized volume term of gauss_fluxdiff in direction n,
    divided by J and added into out; faces are the direction's projected
    states. The pair weights come from operators.hybridized_scatter, the
    entries of build_hybridized(op).q_matrix; the tests check the result
    against the dense hybridized operator applied to every ordered pair.
    """
    require_volume_kind(config.volume_flux)
    op = setup.op
    nvar = u.shape[-1]
    lines = node_line_lists(op.n_nodes, setup.d)[n]
    pairs, vol_face, lift = hybridized_scatter(op.degree, op.family)
    dirn = flux_function(config.volume_flux)
    metrics = setup.metrics
    eja = metrics.elem_face_ja[n]
    sides = [(uf.tolist(), eja[:, s].tolist()) for s, (uf, _qf) in enumerate(faces)]
    acc = np.zeros_like(u).tolist()
    for e in range(setup.n_elements):
        states = u[e].tolist()
        jan = metrics.ja[e, :, n, :].tolist()
        for m, line in enumerate(lines):
            coupling = [
                (fs[e][m], fja[e][m], cvol, cface, lrow)
                for (fs, fja), (cvol, cface), lrow in zip(sides, vol_face, lift)
            ]
            _line_terms(states, line, jan, pairs, dirn, setup.gas, nvar, acc[e], coupling)
    out += np.asarray(acc) / metrics.jac[:, :, None]


def entropy_rate(u, dudt, setup):
    """Normalized semidiscrete entropy production sum_i M_i J_i w_i . du_i.

    The normalization is the sum of the absolute per-node contributions, the
    scale at which roundoff lives, so an entropy-conservative configuration
    sits at O(1e-13) regardless of solution magnitude."""
    w = entropy_vars(u, setup.gas)
    weights = setup.wbar[None, :] * setup.metrics.jac
    contrib = weights * np.sum(w * dudt, axis=-1)
    scale = np.sum(np.abs(weights[..., None] * w * dudt))
    total = float(np.sum(contrib))
    if scale == 0.0:
        return 0.0, 0.0
    return total, total / scale


def conserved_totals(u, setup):
    """Componentwise integral sum_i M_i J_i u_i over the mesh."""
    weights = setup.wbar[None, :] * setup.metrics.jac
    return np.sum(weights[..., None] * u, axis=(0, 1))


def error_norm_l2(u, u_exact, setup):
    """M-weighted discrete L2 error per component."""
    weights = setup.wbar[None, :] * setup.metrics.jac
    diff = u - u_exact
    sq = np.sum(weights[..., None] * diff * diff, axis=(0, 1))
    return np.sqrt(sq)
