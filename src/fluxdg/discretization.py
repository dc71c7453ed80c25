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
_scalar_gauss_volume and _gauss_surface for the gauss schemes, and
surface_terms) are the scalar reference implementations: plain float
arithmetic through the scalar flux kernels, fixed accumulation order,
bitwise reproducible. The one-point volume functions (volume_strong,
volume_weak, volume_overintegration) are numpy expressions that take one
element or the whole mesh at once; the first two read primitives that the
caller has already converted. entropy_projection gives the face states
of the gauss schemes for both kernels. `rhs` assembles them over the mesh;
with kernel="batched" every scheme's two-point work (volume pairs and
interface fluxes) runs in the mesh-level lane kernels in `batched`, which
are equivalence-tested against the reference path.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import batched as _batched
from .errors import AdmissibilityError, ConfigurationError
from .euler import cons2prim, directional_flux, entropy2cons, entropy_vars
from .fluxes import (
    SURFACE_KINDS,
    _phys_flux_n,
    _prim2,
    _prim3,
    add_one_point,
    count_guard,
    flux_function,
    require_volume_kind,
)
from .geometry import (
    apply_along,
    axis_aligned_areas,
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
    skew_pair_table,
    transfer_matrices,
)

VOLUME_SCHEMES = (
    "strong",
    "weak",
    "fluxdiff",
    "overintegration",
    "gauss_fluxdiff",
    "gauss_surface_correction",
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
        if self.volume_scheme in ("fluxdiff", "gauss_fluxdiff", "gauss_surface_correction"):
            require_volume_kind(self.volume_flux)
        family = setup.op.family
        if self.volume_scheme.startswith("gauss") and family != "gauss":
            raise ConfigurationError(
                "volume_scheme: %r requires gauss operators, got family %r"
                % (self.volume_scheme, family)
            )
        if self.volume_scheme == "fluxdiff" and family != "lgl":
            raise ConfigurationError(
                "volume_scheme: 'fluxdiff' requires the lgl family (diagonal "
                "boundary operator); use the gauss schemes on gauss nodes"
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
    is scattered with the stored (i,k) and (k,i) matrix weights, preserving
    the operator's M-antisymmetry exactly in floating point. Cartesian
    elements use the axis fluxes scaled by the constant face area, curved
    elements the directional fluxes with arithmetically averaged metric
    vectors.
    """
    require_volume_kind(vol_flux)
    op = dop.op
    p1 = op.n_nodes
    nvar = u_elem.shape[-1]
    d = nvar - 2
    nn = u_elem.shape[0]
    lines = node_line_lists(p1, d)
    pairs = pair_table(dop.matrix)
    areas = axis_aligned_areas(metrics.ja)
    cart = flux_function(vol_flux, "cartesian")
    dirn = flux_function(vol_flux, "directional")
    states = u_elem.tolist()
    acc = [[0.0] * nvar for _ in range(nn)]
    for n in range(d):
        if areas is not None:
            area = areas[n]
            for line in lines[n]:
                for a, b, cab, cba in pairs:
                    i = line[a]
                    k = line[b]
                    f = cart(states[i], states[k], n, gas)
                    wi = cab * area
                    wk = cba * area
                    ai = acc[i]
                    ak = acc[k]
                    for v in range(nvar):
                        fv = f[v]
                        ai[v] += wi * fv
                        ak[v] += wk * fv
        else:
            jan = metrics.ja[:, n, :].tolist()
            for line in lines[n]:
                for a, b, cab, cba in pairs:
                    i = line[a]
                    k = line[b]
                    ji = jan[i]
                    jk = jan[k]
                    alpha = tuple(0.5 * (x + y) for x, y in zip(ji, jk))
                    f = dirn(states[i], states[k], alpha, gas)
                    ai = acc[i]
                    ak = acc[k]
                    for v in range(nvar):
                        fv = f[v]
                        ai[v] += cab * fv
                        ak[v] += cba * fv
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


def _gauss_line_terms(
    states,
    line,
    face_states,
    jan,
    face_jan,
    pairs,
    vf_coefs,
    lift,
    dirn,
    gas,
    nvar,
    acc,
):
    """Accumulate one line's hybridized volume terms into acc (list rows).

    states/jan are element-wide lists indexed by node id; face_states and
    face_jan hold the two projected endpoint states and their metric traces
    for this line. Weights come pre-divided by mass where they target volume
    rows; face-row sums are lifted through R at the end. The face-face
    (corner) term is left out: it cancels against the strong-form surface
    subtraction (see rhs).
    """
    p1 = len(line)
    # volume-volume pairs
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
    # volume-face coupling plus lifted face rows
    for s in (0, 1):
        fstate = face_states[s]
        fja = face_jan[s]
        cvol = vf_coefs[s][0]
        cface = vf_coefs[s][1]
        rface = [0.0] * nvar
        for a in range(p1):
            i = line[a]
            alpha = tuple(0.5 * (x + y) for x, y in zip(jan[i], fja))
            f = dirn(states[i], fstate, alpha, gas)
            ai = acc[i]
            ca = cvol[a]
            cf = cface[a]
            for v in range(nvar):
                fv = f[v]
                ai[v] += ca * fv
                rface[v] += cf * fv
        lrow = lift[s]
        for a in range(p1):
            i = line[a]
            la = lrow[a]
            if la == 0.0:
                continue
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


def surface_terms(u, setup, surface_flux, subtract_own=False, out=None):
    """Interface coupling of the strong, weak, overintegration and lgl
    flux-differencing schemes: numerical fluxes on interior faces, one
    evaluation per face point, scattered with opposite signs into the two
    adjacent elements (lifted through R^T B N M^{-1}, which for Lobatto
    nodes touches only the boundary nodes). Face states are the element's
    own traces of u; the entropy-projected gauss schemes use _gauss_surface.

    subtract_own switches to the strong-form coupling f_num - f(own face
    state). Returns the SURF part of du/dt = -(VOL + SURF), divided by J.
    This scalar loop is the oracle for batched.mesh_surface; `rhs` reaches it
    only with kernel="reference".
    """
    mesh = setup.mesh
    op = setup.op
    d = mesh.d
    p1 = op.n_nodes
    nvar = u.shape[-1]
    kernel = flux_function(surface_flux, "directional")
    gas = setup.gas
    gm1 = gas.gamma - 1.0
    prim = _prim2 if d == 2 else _prim3
    if out is None:
        out = np.zeros_like(u)
    lgl = op.family == "lgl"
    jac = setup.metrics.jac
    w1d = op.weights
    for n in range(d):
        lines = setup.lines[n]
        minus_nodes = lines[:, -1]
        plus_nodes = lines[:, 0]
        if lgl:
            vminus = u[:, minus_nodes, :]
            vplus = u[:, plus_nodes, :]
        else:
            u_nd = u.reshape((u.shape[0],) + (p1,) * d + (nvar,))
            moved = np.moveaxis(u_nd, n + 1, -2)
            vminus = np.einsum("...kv,k->...v", moved, op.boundary_interp[1]).reshape(
                u.shape[0], -1, nvar
            )
            vplus = np.einsum("...kv,k->...v", moved, op.boundary_interp[0]).reshape(
                u.shape[0], -1, nvar
            )
        normals = setup.metrics.face_ja[n]
        nb = setup.plus_neighbor[n]
        minus_list = vminus.tolist()
        plus_list = vplus.tolist()
        normal_list = normals.tolist()
        n_faces = u.shape[0]
        fn = normals.shape[1]
        if lgl:
            wm = w1d[-1]
            wp = w1d[0]
            for f in range(n_faces):
                ep = int(nb[f])
                row_m = minus_list[f]
                row_p = plus_list[ep]
                nrm_row = normal_list[f]
                for m in range(fn):
                    ul = row_m[m]
                    ur = row_p[m]
                    nrm = nrm_row[m]
                    fhat = kernel(ul, ur, nrm, gas)
                    im = int(minus_nodes[m])
                    ip = int(plus_nodes[m])
                    if subtract_own:
                        add_one_point(2)
                        ql = prim(ul, gm1)
                        qr = prim(ur, gm1)
                        fl = _phys_flux_n(ul, ql[0], ql[1:-1], ql[-1], nrm)
                        fr = _phys_flux_n(ur, qr[0], qr[1:-1], qr[-1], nrm)
                        dm = [a - b for a, b in zip(fhat, fl)]
                        dp = [a - b for a, b in zip(fhat, fr)]
                    else:
                        dm = fhat
                        dp = fhat
                    sm = 1.0 / (wm * jac[f, im])
                    sp = 1.0 / (wp * jac[ep, ip])
                    om = out[f, im]
                    opn = out[ep, ip]
                    for v in range(nvar):
                        om[v] += sm * dm[v]
                        opn[v] -= sp * dp[v]
        else:
            # interpolated traces are not nodal states, so rhs has not
            # checked them; converting them here rejects an inadmissible
            # trace as batched.mesh_surface does
            qminus = cons2prim(vminus, gas).tolist()
            qplus = cons2prim(vplus, gas).tolist()
            lift_m = op.boundary_interp[1] / w1d
            lift_p = op.boundary_interp[0] / w1d
            for f in range(n_faces):
                ep = int(nb[f])
                row_m = minus_list[f]
                row_p = plus_list[ep]
                nrm_row = normal_list[f]
                for m in range(fn):
                    ul = row_m[m]
                    ur = row_p[m]
                    nrm = nrm_row[m]
                    fhat = np.asarray(kernel(ul, ur, nrm, gas))
                    if subtract_own:
                        add_one_point(2)
                        ql = qminus[f][m]
                        qr = qplus[ep][m]
                        fl = _phys_flux_n(ul, ql[0], ql[1:-1], ql[-1], nrm)
                        fr = _phys_flux_n(ur, qr[0], qr[1:-1], qr[-1], nrm)
                        dm = fhat - np.asarray(fl)
                        dp = fhat - np.asarray(fr)
                    else:
                        dm = fhat
                        dp = fhat
                    line_nodes = lines[m]
                    out[f, line_nodes] += (
                        lift_m[:, None] * dm[None, :] / jac[f, line_nodes, None]
                    )
                    out[ep, line_nodes] -= (
                        lift_p[:, None] * dp[None, :] / jac[ep, line_nodes, None]
                    )
    return out


def entropy_projection(u, setup):
    """Entropy-projected face states for every element: per direction n a
    pair (side0, side1) of arrays (n_elem, fn, nvar), the conservative
    states recovered from boundary-interpolated entropy variables, face
    nodes in line order. Side 0 is the reference -1 face.

    Raises AdmissibilityError naming the element, face node, direction and
    side of the first face state that leaves the admissible set."""
    mesh = setup.mesh
    op = setup.op
    d = mesh.d
    p1 = op.n_nodes
    nvar = u.shape[-1]
    gas = setup.gas
    w = entropy_vars(u, gas)
    w_nd = w.reshape((u.shape[0],) + (p1,) * d + (nvar,))
    out = []
    for n in range(d):
        moved = np.moveaxis(w_nd, n + 1, -2)
        sides = []
        for side in (0, 1):
            wf = np.einsum("...kv,k->...v", moved, op.boundary_interp[side])
            wf = wf.reshape(u.shape[0], -1, nvar)
            try:
                sides.append(entropy2cons(wf, gas))
            except AdmissibilityError as err:
                bad = ~(wf[..., -1] < 0.0)
                e, m = np.unravel_index(np.argmax(bad), bad.shape)
                raise AdmissibilityError(
                    "entropy projection produced an inadmissible face state at "
                    "element %d, face node %d (direction %d, side %d): %s"
                    % (int(e), int(m), n, side, err)
                ) from err
        out.append(tuple(sides))
    return out


def _gauss_surface(u, setup, surface_flux, proj, out):
    """Surface coupling for the gauss schemes: entropy-projected face states,
    each face flux evaluated once per adjacent element (twice per face),
    lifted through the dense R. Accumulates M^{-1}-weighted rows; the caller
    divides by the Jacobian."""
    mesh = setup.mesh
    op = setup.op
    d = mesh.d
    nvar = u.shape[-1]
    gas = setup.gas
    kernel = flux_function(surface_flux, "directional")
    w1d = op.weights
    lift_m = (op.boundary_interp[1] / w1d).tolist()
    lift_p = (op.boundary_interp[0] / w1d).tolist()
    p1 = op.n_nodes
    for n in range(d):
        lines = setup.lines[n].tolist()
        nb = setup.plus_neighbor[n]
        vminus = proj[n][1]
        vplus = proj[n][0]
        minus_list = vminus.tolist()
        plus_list = vplus.tolist()
        normal_list = setup.metrics.face_ja[n].tolist()
        n_faces = u.shape[0]
        fn = len(normal_list[0])
        for f in range(n_faces):
            ep = int(nb[f])
            row_m = minus_list[f]
            row_p = plus_list[ep]
            nrm_row = normal_list[f]
            for m in range(fn):
                ul = row_m[m]
                ur = row_p[m]
                nrm = nrm_row[m]
                line = lines[m]
                # once per side, same arguments, so the values agree
                fhat_m = kernel(ul, ur, nrm, gas)
                om = out[f]
                for a in range(p1):
                    la = lift_m[a]
                    if la == 0.0:
                        continue
                    row = om[line[a]]
                    for v in range(nvar):
                        row[v] += la * fhat_m[v]
                fhat_p = kernel(ul, ur, nrm, gas)
                opn = out[ep]
                for a in range(p1):
                    la = lift_p[a]
                    if la == 0.0:
                        continue
                    row = opn[line[a]]
                    for v in range(nvar):
                        row[v] -= la * fhat_p[v]


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
    """
    if counter is not None:
        with count_guard(counter):
            return rhs(u, setup, config)
    config.validate(setup)
    u = np.asarray(u, dtype=float)
    gas = setup.gas
    prim = cons2prim(u, gas)
    scheme = config.volume_scheme
    n_elem = setup.n_elements
    if scheme in ("strong", "weak", "overintegration"):
        if scheme == "strong":
            out = volume_strong(u, prim, setup.op, setup.metrics)
        elif scheme == "weak":
            out = volume_weak(u, prim, setup.op, setup.metrics)
        else:
            _op_q, transfer, metrics_q = setup.overint
            out = volume_overintegration(u, setup.op, transfer, metrics_q, gas)
        # the weak-form volume term (which overintegration projects back
        # from the fine grid) already carries the boundary flux of the
        # element's own state, so only the strong form subtracts it here
        subtract = scheme == "strong"
        if config.kernel == "batched":
            _batched.mesh_surface(
                u, prim, setup, config.surface_flux, out, subtract_own=subtract
            )
        else:
            surface_terms(u, setup, config.surface_flux, subtract_own=subtract, out=out)
        return -out
    if scheme == "fluxdiff":
        if config.kernel == "batched":
            out = _batched.mesh_fluxdiff_volume(u, prim, setup, config)
            _batched.mesh_surface(u, prim, setup, config.surface_flux, out)
            return -out
        out = np.empty_like(u)
        for e in range(n_elem):
            terms = element_metrics(setup.metrics, e)
            out[e] = volume_fluxdiff(u[e], setup.dsplit, terms, config.volume_flux, gas)
        surface_terms(u, setup, config.surface_flux, out=out)
        return -out
    # gauss schemes: zero-corner volume arrangement plus bare interface
    # fluxes; the face consistency (corner) flux of the full hybridized
    # operator cancels against the strong-form surface subtraction, so
    # neither is computed
    proj = entropy_projection(u, setup)
    if config.kernel == "batched":
        out = _batched.mesh_gauss_volume(u, prim, setup, config, proj)
        _batched.mesh_gauss_surface(u, setup, config, proj, out)
        return -out
    acc = [[[0.0] * u.shape[-1] for _ in range(setup.n_nodes)] for _ in range(n_elem)]
    _scalar_gauss_volume(u, setup, scheme, config.volume_flux, proj, acc)
    _gauss_surface(u, setup, config.surface_flux, proj, acc)
    out = np.asarray(acc)
    out /= setup.metrics.jac[:, :, None]
    return -out


def _scalar_gauss_volume(u, setup, scheme, vol_flux, proj, acc):
    """Zero-corner hybridized volume accumulation (not divided by J).

    The two gauss schemes run the same pair structure but draw the
    volume-volume weights from different constructions (hybridized operator
    entries vs the split derivative matrix); the results agree to roundoff.
    """
    require_volume_kind(vol_flux)
    op = setup.op
    d = setup.d
    p1 = op.n_nodes
    nvar = u.shape[-1]
    lines = node_line_lists(p1, d)
    pairs, vf_coefs, lift = hybridized_scatter(op.degree, op.family)
    if scheme == "gauss_surface_correction":
        pairs = skew_pair_table(op.degree, op.family)
    dirn = flux_function(vol_flux, "directional")
    metrics = setup.metrics
    eja = metrics.elem_face_ja
    for e in range(setup.n_elements):
        states = u[e].tolist()
        acc_e = acc[e]
        for n in range(d):
            jan = metrics.ja[e, :, n, :].tolist()
            fstates = (proj[n][0][e].tolist(), proj[n][1][e].tolist())
            fja = (eja[n][e, 0].tolist(), eja[n][e, 1].tolist())
            for m, line in enumerate(lines[n]):
                _gauss_line_terms(
                    states,
                    line,
                    (fstates[0][m], fstates[1][m]),
                    jan,
                    (fja[0][m], fja[1][m]),
                    pairs,
                    vf_coefs,
                    lift,
                    dirn,
                    setup.gas,
                    nvar,
                    acc_e,
                )


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
