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

`rhs` runs the production kernel by default (RhsConfig.kernel ==
"batched"): every scheme's two-point work (volume pairs and interface
fluxes) runs in the mesh-level lane kernels of `batched`. The scalar
oracle that they are equivalence-tested against lives in
`fluxdg.reference` (volume_fluxdiff, scalar_gauss_volume, surface_terms,
element_metrics); kernel="reference" runs it, through the names bound
here. The one-point volume functions (volume_strong, volume_weak,
volume_overintegration) are numpy expressions that take one element or the
whole mesh at once; the first two read primitives that the caller has
already converted. They run the directional form on per-node metric
terms (the oracle; a mesh's line-ordered store is read through node-layout
views) and the axis form on one constant axis-aligned metric matrix (see
_one_point_volume): `rhs` passes the constant terms on Cartesian meshes
with kernel="batched", and overintegration always reads the constant
terms of its fine grid. face_states builds every interface state once per
RHS, one direction at a time, for both kernels: Lobatto boundary nodes,
Gauss traces, or entropy-projected states.

A SpatialSetup holds only what depends on the mesh: coordinates, metric
terms, neighbours and the nodal weights. Tables that depend on the operator
alone (split-derivative pairs, the hybridized scatter, the overintegration
transfer matrices) come from the caches in `operators`, keyed by degree,
and the overintegration degree comes only from RhsConfig.
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
from .fluxes import OWN_FLUX_KINDS, SURFACE_KINDS, add_one_point, require_volume_kind
from .geometry import (
    MetricData,
    MetricTerms,
    apply_along,
    compute_metrics,
    element_coords,
    line_major,
    neighbor_table,
    node_ja,
)
from .operators import MAX_DEGREE, make_operator, transfer_matrices
from .reference import (
    element_metrics,
    scalar_gauss_volume,
    surface_terms,
    volume_fluxdiff,
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
    kernel: str = "batched"

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
            if q is None or not setup.op.degree <= q <= MAX_DEGREE:
                raise ConfigurationError(
                    "overint_degree: need a degree from p = %d to %d for "
                    "overintegration, got %r" % (setup.op.degree, MAX_DEGREE, q)
                )


# ---------------------------------------------------------------------------
# one-point volume operators (numpy forms, one element or the whole mesh)

def volume_strong(u_elem, q_elem, op, metrics):
    """Strong-form volume term: (1/J) sum_n D_n (sum_j (Ja)^n_j f^j(u)).

    u_elem is one element (nodes, d+2) or a stack of them with leading
    element axes, q_elem = cons2prim(u_elem). metrics is the mesh's
    MetricData (with the whole mesh) or MetricTerms: ja/jac carry the same
    leading axes (or none, for metrics shared by every element) and the
    node axis, or are one constant axis-aligned (d, d) matrix and one
    scalar shared by every node (_constant_terms of a Cartesian mesh),
    which select the axis form of _one_point_volume."""
    return _one_point_volume(op.D, 1.0, u_elem, q_elem, metrics)


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
    wmat = _weak_matrix(op.degree, op.family)
    return _one_point_volume(wmat, -1.0, u_elem, q_elem, metrics)


def _constant_terms(metrics):
    """The MetricTerms of a mesh whose metric terms are one constant, as on
    Cartesian meshes: ja (d, d) and the scalar jac of the first node of
    metrics (MetricData or MetricTerms), views of the stored terms."""
    if isinstance(metrics, MetricData):
        ja = metrics.line_ja[:, 0, :, 0]
    else:
        d = metrics.ja.shape[-1]
        ja = metrics.ja.reshape(-1, d, d)[0]
    return MetricTerms(ja, metrics.jac.reshape(-1)[0])


def _one_point_volume(mat, sign, u_elem, q_elem, metrics):
    """(1/J) sum_n sign T_n, T_n the 1D operator mat applied along reference
    direction n to the contravariant flux F^n = sum_j (Ja)^n_j f^j(u).

    Axis form, when metrics is one constant diagonal (d, d) matrix and a
    scalar J (_constant_terms of a Cartesian mesh): F^n is (Ja)^n_n times
    the axis-n flux, written one component at a time into one buffer that
    every direction reuses (v.n is the velocity column v_n, the pressure
    goes onto momentum row n only), and the constant sign (Ja)^n_n / J is
    folded into the (p+1, p+1) matrix, so no pass divides by J.

    Directional form otherwise (the oracle): F^n from
    euler.directional_flux on u, q and direction n's metric vectors in
    tensor node layout (_direction_terms: views of a mesh's line store, or
    of the node-layout MetricTerms of an element or a stack of them), the
    sum ((0 o T_1) o T_2) ... o T_d with o = np.add for sign 1.0 and
    np.subtract for -1.0. Each T_n is a fresh array from apply_along, so
    the first one holds the accumulator (0.0 o T_1 in place, which keeps
    the signed zeros of a sum started from zero) and J divides it in
    place."""
    d = u_elem.shape[-1] - 2
    lead = u_elem.ndim - 2
    add_one_point(d * (u_elem.size // (d + 2)))
    nodes = (mat.shape[1],) * d
    shape = u_elem.shape[:lead] + nodes + (-1,)
    if isinstance(metrics, MetricTerms) and metrics.ja.ndim == 2:
        ja = metrics.ja
        if np.count_nonzero(ja) == np.count_nonzero(ja.diagonal()):
            scales = sign * ja.diagonal() / metrics.jac
            return _axis_one_point(mat, scales, u_elem, q_elem, shape)
    u_tensor, q_tensor = u_elem.reshape(shape), q_elem.reshape(shape)
    combine = np.add if sign > 0.0 else np.subtract
    for n in range(d):
        contra = directional_flux(u_tensor, q_tensor, _direction_terms(metrics, n, nodes))
        term = apply_along(mat, contra, n + lead).reshape(u_elem.shape)
        if n == 0:
            acc = combine(0.0, term, out=term)
        else:
            combine(acc, term, out=acc)
    acc /= metrics.jac[..., None]
    return acc


def _direction_terms(metrics, n, nodes):
    """Direction n's metric vectors (Ja)^n_j in tensor node layout, nodes =
    (p+1,) * d: node_ja's view of a mesh's line store (MetricData), or a
    view of the per-node MetricTerms.ja."""
    if isinstance(metrics, MetricData):
        return node_ja(metrics, n)
    ja = metrics.ja[..., n, :]
    return ja.reshape(ja.shape[:-2] + nodes + ja.shape[-1:])


def _axis_one_point(mat, scales, u, q, shape):
    """The axis form of _one_point_volume: sum_n (scales[n] mat) applied
    along direction n to the axis-n flux, scales[n] = sign (Ja)^n_n / J."""
    d = u.shape[-1] - 2
    lead = u.ndim - 2
    rho, p = q[..., 0], q[..., d + 1]
    e_plus_p = u[..., d + 1] + p
    f = np.empty(u.shape)
    flux = f.reshape(shape)
    for n in range(d):
        vn = q[..., 1 + n]
        np.multiply(rho, vn, out=f[..., 0])
        for i in range(1, d + 1):
            np.multiply(u[..., i], vn, out=f[..., i])
        f[..., 1 + n] += p
        np.multiply(e_plus_p, vn, out=f[..., d + 1])
        term = apply_along(scales[n] * mat, flux, n + lead)
        if n == 0:
            acc = term
        else:
            acc += term
    return acc.reshape(u.shape)


def volume_overintegration(u_elem, op, degree, metrics, gas):
    """Interpolate to the degree-q grid (q = degree), apply the weak-form
    volume term there, L2-project back; u_elem may carry leading element
    axes. Cartesian meshes only: their metric terms are one constant, so
    the fine grid reads those of metrics (MetricData or MetricTerms) at
    its first node, and volume_weak takes the axis form there with either
    kernel."""
    d = u_elem.shape[-1] - 2
    lead = u_elem.ndim - 2
    p1 = op.n_nodes
    q1 = degree + 1
    transfer = transfer_matrices(op.degree, degree, op.family)
    op_q = make_operator(degree, op.family)
    metrics_q = _constant_terms(metrics)
    uq = u_elem.reshape(u_elem.shape[:lead] + (p1,) * d + (-1,))
    for n in range(d):
        uq = apply_along(transfer.interp, uq, n + lead)
    uq = uq.reshape(u_elem.shape[:lead] + (q1**d, -1))
    vol_q = volume_weak(uq, cons2prim(uq, gas), op_q, metrics_q)
    back = vol_q.reshape(u_elem.shape[:lead] + (q1,) * d + (-1,))
    for n in range(d):
        back = apply_along(transfer.project, back, n + lead)
    return back.reshape(u_elem.shape)


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
    plus_neighbor: tuple
    minus_neighbor: tuple
    wbar: np.ndarray

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


def build_setup(mesh, op, gas):
    """Precompute the geometry and connectivity of one mesh for `rhs`; the
    operator tables are cached per degree in `operators`."""
    coords = element_coords(mesh, op)
    metrics = compute_metrics(mesh, op, coords)
    wbar = np.ones(1)
    for _ in range(mesh.d):
        wbar = np.kron(wbar, op.weights)
    plus, minus = neighbor_table(mesh)
    return SpatialSetup(mesh, op, gas, metrics, coords, plus, minus, wbar)


def face_states(u, prim, setup, projected, conserved=True):
    """Every element's interface states, one direction at a time: yields, for
    n = 0 .. d-1, ((u0, q0), (u1, q1)), the conserved states and their
    primitives on the element's reference -1 face (side 0) and +1 face
    (side 1), each (n_elem, face nodes, d+2) with face nodes in line order.
    prim = cons2prim(u). Every source reads the nodal arrays along the
    tensor axis of direction n, with no node index lists:

    * projected (gauss_fluxdiff): the entropy projection, the entropy
      variables of prim interpolated to the face and mapped back, with
      primitives from the inverse entropy map and conserved states from
      prim2cons. It runs in line layout (_entropy_traces), so no entropy
      variables outlive their direction;
    * otherwise on Lobatto grids the first and last slices of u and prim
      along that axis (the boundary nodes);
    * otherwise on Gauss grids the interpolated traces of u, converted here
      because they are not nodal values.

    Both Gauss sources interpolate in line layout through one routine
    (_face_traces), so their face arrays are component-major: each side's
    (d+2, lanes) face rows are contiguous.

    With conserved=False, u0 and u1 are None: no conserved face array is
    built or kept (no prim2cons, no slices of u), for callers whose every
    face reader takes primitives alone (see rhs).

    Each element's own states are checked before any neighbour permutation:
    AdmissibilityError names the element, face node, direction and side of
    the first inadmissible one. Only one direction's states are built at a
    time, so a caller that consumes them per direction never holds all.
    """
    op = setup.op
    gas = setup.gas
    d = setup.d
    if projected:
        made_by = "entropy projection"
    elif op.family == "gauss":
        made_by = "interpolation"
    else:
        n_elem, _, nvar = u.shape
        shape = (n_elem,) + (op.n_nodes,) * d + (nvar,)
        u_nd = u.reshape(shape) if conserved else None
        q_nd = prim.reshape(shape)
        for n in range(d):
            yield tuple(
                tuple(
                    None
                    if arr is None
                    else arr.take(c, axis=n + 1).reshape(n_elem, -1, nvar)
                    for arr in (u_nd, q_nd)
                )
                for c in (0, -1)
            )
        return
    for n in range(d):
        if projected:
            traces = _entropy_traces(prim, setup, n)
        else:
            rows = line_major(u, n, op.n_nodes, d)
            traces = _face_traces(np.ascontiguousarray(rows), setup)
        sides = []
        for side, trace in enumerate(traces):
            try:
                if projected:
                    q = entropy2prim(trace, gas)
                    sides.append((prim2cons(q, gas) if conserved else None, q))
                else:
                    sides.append((trace if conserved else None, cons2prim(trace, gas)))
            except AdmissibilityError as err:
                e, m = err.index
                raise AdmissibilityError(
                    "%s produced an inadmissible face state at element %d, face "
                    "node %d (direction %d, side %d)" % (made_by, e, m, n, side)
                ) from err
        # the traces must not outlive the loop: projected ones are read by
        # nothing once converted, and the caller holds the states while it
        # runs this direction's kernels
        del traces, trace
        yield tuple(sides)


def _entropy_traces(prim, setup, n):
    """The entropy variables of prim interpolated to both faces of
    direction n (_face_traces). The direction's primitive line rows are
    copied from geometry.line_major and mapped by prim2entropy in that
    layout; the rows and the entropy variables die with this call."""
    rows = np.ascontiguousarray(line_major(prim, n, setup.op.n_nodes, setup.d))
    w = np.moveaxis(prim2entropy(np.moveaxis(rows, 0, -1), setup.gas), -1, 0)
    del rows
    return _face_traces(w, setup)


def _face_traces(rows, setup):
    """Both face traces of one direction's line rows (m, p+1, n_elem, ...),
    a C-contiguous array in the layout of geometry.line_major, interpolated
    with one einsum over the line-position axis: sides 0 and 1 as
    (n_elem, face nodes, m) views of one component-major (2, m, lanes)
    block, lanes in line_major order, so each side's (m, lanes) face rows
    are contiguous."""
    m = rows.shape[0]
    traces = np.einsum("vk...,sk->sv...", rows, setup.op.boundary_interp)
    return [t.reshape(m, setup.n_elements, -1).transpose(1, 2, 0) for t in traces]


def rhs(u, setup, config):
    """Assembled right-hand side du/dt = -(VOL + SURF).

    Deterministic for fixed inputs: element loops and pair loops run in a
    fixed order. config.kernel == "batched" (the default) runs every
    scheme's two-point work (volume pairs and interface fluxes) in the
    lane-parallel kernels; "reference" runs it through the scalar oracle of
    `fluxdg.reference`. The one-point volume terms are one numpy pass over
    the whole mesh with either kernel: on Cartesian meshes "batched" passes
    strong and weak the constant metric terms, which select the axis form,
    and "reference" the mesh's MetricData, which keeps the directional form
    on node-layout views of the metric store; overintegration takes the
    axis form with both.

    u is converted to primitives once; that pass is the admissibility check
    (AdmissibilityError names the first bad element and node), and every
    volume and surface kernel reads its result instead of converting again.
    The interface states are built once, by face_states, one direction at a
    time, and read by both the volume and the surface kernels.
    """
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
    one_point = setup.metrics
    if batched and setup.mesh.is_cartesian:
        one_point = _constant_terms(one_point)
    if scheme == "strong":
        out = volume_strong(u, prim, setup.op, one_point)
    elif scheme == "weak":
        out = volume_weak(u, prim, setup.op, one_point)
    elif scheme == "overintegration":
        out = volume_overintegration(
            u, setup.op, config.overint_degree, setup.metrics, gas
        )
    elif scheme == "fluxdiff" and batched:
        out = _batched.mesh_fluxdiff_volume(u, prim, setup, config)
    elif scheme == "fluxdiff":
        out = np.empty_like(u)
        for e in range(setup.n_elements):
            terms = element_metrics(setup.metrics, e)
            out[e] = volume_fluxdiff(u[e], setup.op, terms, config.volume_flux, gas)
    else:
        out = np.zeros_like(u)
    # the weak-form volume term (which overintegration projects back from
    # the fine grid) already carries the boundary flux of the element's own
    # state, so only the strong form subtracts it at the interfaces
    subtract = scheme == "strong"
    kind = config.surface_flux
    # the face readers that take conserved states: the scalar oracle, the
    # strong-form subtraction and the kinds that combine own-side physical
    # fluxes, at the interfaces or, on gauss_fluxdiff, in the volume pairs.
    # The rule lives here only: the lane kernels read conserved face states
    # exactly when face_states built them
    conserved = (
        not batched
        or subtract
        or kind in OWN_FLUX_KINDS
        or (projected and config.volume_flux in OWN_FLUX_KINDS)
    )
    for n, faces in enumerate(face_states(u, prim, setup, projected, conserved)):
        if projected and batched:
            sides = _batched.mesh_gauss_surface(faces, setup, n, kind)
            _batched.mesh_gauss_volume(u, prim, faces, sides, setup, n, config, out)
        elif projected:
            scalar_gauss_volume(u, faces, setup, n, config, out)
            surface_terms(faces, setup, n, kind, False, out)
        elif batched:
            _batched.mesh_surface(faces, setup, n, kind, subtract, out)
        else:
            surface_terms(faces, setup, n, kind, subtract, out)
    # every branch above made `out` afresh, so it can be negated in place
    return np.negative(out, out=out)


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
