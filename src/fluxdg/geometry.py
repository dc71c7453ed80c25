"""Structured periodic meshes and discrete metric terms.

Meshes are tensor products of uniform 1D partitions of a box, periodic in
every direction. The optional curvilinear test mapping displaces every
coordinate by a*sin(2*pi*t_1)*...*sin(2*pi*t_d) in the unit reference box,
which is smooth, periodic and (for a <= 0.1 h) orientation preserving.

Node positions are generated from the global formula
x = lo + L*(e + (xi+1)/2)/N so that shared-face nodes of neighbouring
elements evaluate to bitwise identical coordinates (the (xi+1)/2 factor is
exactly 0 and 1 at the endpoints).

Metric terms follow the discrete forms that make the metric identity
sum_n D_n (Ja)^n_j = 0 hold to roundoff: direct differentiation of the
nodal mapping in 2D, the curl form in 3D. Both cancel through commutation
of the tensor-product differentiation matrices, independent of the mapping.

Node families without boundary nodes (Gauss) obtain face metric values by
extrapolating each element's own polynomial. With the mapping sampled at
the solution nodes the two neighbours extrapolate different interpolants
of the smooth mapping and their face metrics disagree at truncation
order. Passing geo_degree = g samples the mapping on a degree-g Lobatto
grid instead (shared face samples) and interpolates; the face metrics of
both neighbours then reduce to expressions in the shared face polynomial
and agree to roundoff provided the metric fields stay inside the solution
space: g <= p suffices in 2D (metrics are plain derivatives), while the
3D curl form squares the mapping degree through the nodal products
x_l * d(x_m), so 2 g <= p is required there. Degrees above the bound are
accepted but reintroduce the truncation-order mismatch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .operators import lgl_operator, transfer_matrices


@dataclass(frozen=True)
class StructuredMesh:
    dims: tuple          # elements per direction
    lo: tuple
    hi: tuple
    amplitude: float = 0.0
    geo_degree: int | None = None  # None: sample mapping at the solution nodes

    def __post_init__(self):
        if len(self.dims) not in (2, 3):
            raise MeshError("supported dimensions are 2 and 3, got %r" % (self.dims,))
        if any(n < 1 for n in self.dims):
            raise MeshError("every direction needs at least one element: %r" % (self.dims,))
        if any(b <= a for a, b in zip(self.lo, self.hi)):
            raise MeshError("empty box: lo=%r hi=%r" % (self.lo, self.hi))

    @property
    def d(self):
        return len(self.dims)

    @property
    def n_elements(self):
        n = 1
        for k in self.dims:
            n *= k
        return n

    @property
    def widths(self):
        return tuple((b - a) / n for a, b, n in zip(self.lo, self.hi, self.dims))

    @property
    def is_cartesian(self):
        return self.amplitude == 0.0


def build_mesh(dims, bounds=(-5.0, 5.0), amplitude=0.0, geo_degree=None):
    """Convenience constructor; `bounds` is one (lo, hi) pair reused per
    direction or a sequence of pairs."""
    dims = tuple(int(n) for n in dims)
    if np.ndim(bounds) == 1:
        bounds = [bounds] * len(dims)
    lo = tuple(float(b[0]) for b in bounds)
    hi = tuple(float(b[1]) for b in bounds)
    return StructuredMesh(dims, lo, hi, float(amplitude), geo_degree)


def _element_multi_index(mesh):
    """(n_elem, d) integer element coordinates, C-ordered."""
    grids = np.meshgrid(*[np.arange(n) for n in mesh.dims], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _reference_fractions(mesh, nodes1d):
    """Per-direction fractions t in [0,1] for every (element, node) pair.

    Returns a list of d arrays of shape (dims[j], len(nodes1d))."""
    half = 0.5 * (nodes1d + 1.0)
    out = []
    for n in mesh.dims:
        e = np.arange(n)[:, None]
        out.append((e + half[None, :]) / n)
    return out


def _map_coordinates(mesh, tfrac):
    """Evaluate the (possibly curved) mapping on the tensor grid given by the
    per-direction fraction arrays; returns (n_elem, n_nodes, d)."""
    d = mesh.d
    n1d = tfrac[0].shape[1]
    # tensor grid of fractions per element, then flatten
    elem_idx = _element_multi_index(mesh)
    n_elem = elem_idx.shape[0]
    shape = (n1d,) * d
    nn = n1d**d
    coords = np.empty((n_elem, nn, d))
    tgrids = []
    for j in range(d):
        t_e = tfrac[j][elem_idx[:, j]]  # (n_elem, n1d)
        expand = [None] * d
        expand[j] = slice(None)
        view = t_e[(slice(None),) + tuple(expand)]
        tgrids.append(np.broadcast_to(view, (n_elem,) + shape))
    lengths = [b - a for a, b in zip(mesh.lo, mesh.hi)]
    for j in range(d):
        coords[:, :, j] = (mesh.lo[j] + lengths[j] * tgrids[j]).reshape(n_elem, nn)
    if mesh.amplitude != 0.0:
        bump = np.ones((n_elem,) + shape)
        for j in range(d):
            bump = bump * np.sin(2.0 * np.pi * tgrids[j])
        bump = mesh.amplitude * bump.reshape(n_elem, nn)
        for j in range(d):
            coords[:, :, j] += bump
    return coords


def apply_along(mat, arr, axis):
    """Apply a 1D operator matrix along one axis of an nd array."""
    moved = np.moveaxis(arr, axis, -1)
    return np.moveaxis(moved @ mat.T, -1, axis)


def element_coords(mesh, op):
    """Nodal coordinates of every element on the solution grid of `op`,
    (n_elements, n_nodes, d)."""
    if mesh.geo_degree is None or mesh.is_cartesian:
        return _map_coordinates(mesh, _reference_fractions(mesh, op.nodes))
    g = mesh.geo_degree
    geo_op = lgl_operator(g)
    coarse = _map_coordinates(mesh, _reference_fractions(mesh, geo_op.nodes))
    interp = transfer_matrices(g, op.degree, "lgl").interp if op.family == "lgl" else None
    if interp is None:
        # build an interpolation matrix from the coarse Lobatto grid to the
        # target nodes directly
        from .operators import _bary_weights, _lagrange_row

        lam = _bary_weights(geo_op.nodes)
        interp = np.vstack(
            [_lagrange_row(geo_op.nodes, lam, y) for y in op.nodes]
        )
    d = mesh.d
    n_elem = mesh.n_elements
    shape = (g + 1,) * d
    out = coarse.reshape((n_elem,) + shape + (d,))
    for axis in range(d):
        out = apply_along(interp, out, axis + 1)
    nn = op.n_nodes**d
    return out.reshape(n_elem, nn, d)


@dataclass(frozen=True)
class MetricTerms:
    """Metric terms of a single element: ja[i, n, j] = (Ja)^n_j at node i,
    jac[i] = J."""

    ja: np.ndarray
    jac: np.ndarray


@dataclass(frozen=True)
class MetricData:
    """Discrete geometry of one mesh/operator pairing.

    ja[e, i, n, j] holds the scaled contravariant component (Ja)^n_j at node
    i of element e; jac[e, i] the Jacobian. face_ja[n][f, m, :] is the scaled
    normal of face f (owned by its minus element) in direction n, evaluated
    at face node m, pointing from the minus to the plus element.
    elem_face_ja[n][e, s, m, :] is the element's own boundary trace of its
    direction-n metric vector on side s (0: reference -1 face, 1: +1 face);
    for nodal bases with boundary nodes this is a restriction, for Gauss an
    extrapolation.
    """

    ja: np.ndarray
    jac: np.ndarray
    face_ja: tuple
    elem_face_ja: tuple
    cartesian: bool


def _metrics_2d(coords_nd, dmat):
    x1 = coords_nd[..., 0]
    x2 = coords_nd[..., 1]
    d1x1 = apply_along(dmat, x1, 1)
    d1x2 = apply_along(dmat, x2, 1)
    d2x1 = apply_along(dmat, x1, 2)
    d2x2 = apply_along(dmat, x2, 2)
    ja = np.empty(x1.shape + (2, 2))
    ja[..., 0, 0] = d2x2
    ja[..., 0, 1] = -d2x1
    ja[..., 1, 0] = -d1x2
    ja[..., 1, 1] = d1x1
    jac = d1x1 * d2x2 - d2x1 * d1x2
    return ja, jac


def _metrics_3d_curl(coords_nd, dmat):
    x = [coords_nd[..., m] for m in range(3)]
    dx = [[apply_along(dmat, x[m], i + 1) for m in range(3)] for i in range(3)]
    # the coordinates enter only inside a curl, so constant shifts drop
    # out; recentering each element keeps the products x_l * dx_m small
    # and the discrete cancellation correspondingly tight
    axes = tuple(range(1, x[0].ndim))
    x = [c - c.mean(axis=axes, keepdims=True) for c in x]
    cyc = ((1, 2), (2, 0), (0, 1))
    ja = np.empty(x[0].shape + (3, 3))
    for n in range(3):
        l, m = cyc[n]
        for i in range(3):
            j, k = cyc[i]
            a_k = x[l] * dx[k][m]
            a_j = x[l] * dx[j][m]
            ja[..., i, n] = apply_along(dmat, a_k, j + 1) - apply_along(dmat, a_j, k + 1)
    jac = (
        dx[0][0] * (dx[1][1] * dx[2][2] - dx[1][2] * dx[2][1])
        - dx[0][1] * (dx[1][0] * dx[2][2] - dx[1][2] * dx[2][0])
        + dx[0][2] * (dx[1][0] * dx[2][1] - dx[1][1] * dx[2][0])
    )
    return ja, jac


def _extrapolate_face(field_nd, op, direction, side):
    """Boundary trace of a nodal field along one reference direction.

    side 0 is the -1 face, side 1 the +1 face. Returns the transverse
    layout flattened in C order (matching line ordering)."""
    row = op.boundary_interp[side]
    moved = np.moveaxis(field_nd, direction + 1, -1)
    vals = moved @ row
    n_elem = field_nd.shape[0]
    return vals.reshape(n_elem, -1)


def neighbor_table(mesh):
    """plus_neighbor[n][e] = element across the +n face of e (periodic)."""
    idx = np.arange(mesh.n_elements).reshape(mesh.dims)
    plus = []
    for n in range(mesh.d):
        plus.append(np.roll(idx, -1, axis=n).ravel().copy())
    return tuple(plus)


def compute_metrics(mesh, op, coords=None):
    """Volume metric terms plus per-face scaled normals.

    2D uses direct differentiation of the mapping, 3D the curl form; both
    satisfy the discrete metric identity to roundoff. Raises MeshError on a
    non-positive Jacobian.
    """
    if coords is None:
        coords = element_coords(mesh, op)
    d = mesh.d
    p1 = op.n_nodes
    n_elem = mesh.n_elements
    nn = p1**d
    coords_nd = coords.reshape((n_elem,) + (p1,) * d + (d,))
    if mesh.is_cartesian:
        h = mesh.widths
        jac_val = 1.0
        for w in h:
            jac_val *= 0.5 * w
        ja = np.zeros((n_elem, nn, d, d))
        for n in range(d):
            area = jac_val / (0.5 * h[n])
            ja[:, :, n, n] = area
        jac = np.full((n_elem, nn), jac_val)
    else:
        if d == 2:
            ja_nd, jac_nd = _metrics_2d(coords_nd, op.D)
        else:
            ja_nd, jac_nd = _metrics_3d_curl(coords_nd, op.D)
        ja = ja_nd.reshape(n_elem, nn, d, d)
        jac = jac_nd.reshape(n_elem, nn)
    if not np.all(jac > 0.0):
        e, i = np.unravel_index(np.argmin(jac), jac.shape)
        raise MeshError(
            "non-positive Jacobian %r at element %d, node %d (amplitude too large?)"
            % (float(jac[e, i]), int(e), int(i))
        )
    # boundary traces of each element's own metric vectors, plus shared
    # per-face normals taken from the face's minus element so both sides of
    # an interface see one value
    elem_face_ja = []
    face_ja = []
    ja_nd = ja.reshape((n_elem,) + (p1,) * d + (d, d))
    for n in range(d):
        sides = []
        for side in (0, 1):
            comps = [
                _extrapolate_face(ja_nd[..., n, j], op, n, side)
                for j in range(d)
            ]
            sides.append(np.stack(comps, axis=-1))
        elem_face_ja.append(np.stack(sides, axis=1))
        face_ja.append(sides[1])
    return MetricData(
        ja, jac, tuple(face_ja), tuple(elem_face_ja), mesh.is_cartesian
    )


def element_metrics(metrics, element):
    """Per-element view of assembled metric data."""
    return MetricTerms(metrics.ja[element], metrics.jac[element])

