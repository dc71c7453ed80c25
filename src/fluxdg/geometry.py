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

Curved-mesh metrics are computed once, on each element's degree-p Lobatto
grid, for both node families. The normal component (Ja)^n involves only
derivatives tangential to the faces of direction n, so its Lobatto face
trace depends on the shared face nodes alone, and both neighbours see one
value. Gauss operators sample the fields at their nodes by interpolation,
and the extrapolated face trace of that degree-p interpolant reproduces the
Lobatto trace: face metrics agree to roundoff at any mapping degree. The
interpolation commutes with differentiation of degree-p polynomials, so the
metric identity carries over to the Gauss nodes. A mesh's geo_degree g only
chooses a sub-parametric mapping, sampled on a degree-g Lobatto grid and
interpolated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .operators import interpolation_matrix, lgl_operator


@dataclass(frozen=True)
class StructuredMesh:
    dims: tuple          # elements per direction
    lo: tuple
    hi: tuple
    amplitude: float = 0.0
    geo_degree: int | None = None  # None: isoparametric; g: degree-g Lobatto mapping

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
    """Apply a 1D operator matrix along one axis of an nd array.

    The array is viewed as (pre, k, post) blocks, with k the length of
    `axis`, and the operator is one matmul, mat @ arr.reshape(pre, k, post),
    whose result reshapes back without a copy; no axis is moved. Along the
    last axis (post = 1) it stays the single GEMM arr @ mat.T: the stacked
    (k, 1) columns would sum in another order and move curved-mesh metric
    terms by roundoff.
    """
    shape = arr.shape
    axis %= len(shape)
    if axis == len(shape) - 1:
        return arr @ mat.T
    pre = math.prod(shape[:axis])
    post = math.prod(shape[axis + 1 :])
    out = mat @ arr.reshape(pre, shape[axis], post)
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1 :])


def element_coords(mesh, op):
    """Nodal coordinates of every element on the solution grid of `op`,
    (n_elements, n_nodes, d)."""
    if mesh.geo_degree is None or mesh.is_cartesian:
        return _map_coordinates(mesh, _reference_fractions(mesh, op.nodes))
    g = mesh.geo_degree
    geo_op = lgl_operator(g)
    coarse = _map_coordinates(mesh, _reference_fractions(mesh, geo_op.nodes))
    interp = interpolation_matrix(geo_op.nodes, op.nodes)
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
    """Metric terms in node layout: ja[i, n, j] = (Ja)^n_j at node i,
    jac[i] = J, for one element (reference.element_metrics) or with
    leading element axes."""

    ja: np.ndarray
    jac: np.ndarray


@dataclass(frozen=True)
class MetricData:
    """Discrete geometry of one mesh/operator pairing.

    The volume metric terms are stored in line order, one contiguous
    (d, p+1, d, lanes) block: line_ja[n, a, j, lane] is the scaled
    contravariant component (Ja)^n_j at line position a of lane `lane` of
    direction n, a lane being one node line of direction n, lanes in
    line_major order (element-major, each element's lines in
    reference.node_lines order). Each line_ja[n, a] is one contiguous
    (d, lanes) block, so the lane kernels form a pair normal
    0.5 (Ja_a + Ja_b) with one add of two of them, which takes no
    iterator buffer at any lane count (batched._line_geometry). Node
    layout comes from node_ja (per-direction views, which the one-point
    volume term reads over the whole mesh) and reference.element_metrics
    (per-element copies); no node-layout copy is kept. jac[e, i] is the
    Jacobian at node i of element e.

    face_ja[n][s, e, m, :] is element e's own boundary trace of its
    direction-n metric vector at face node m of side s (0: reference -1
    face, 1: +1 face), each face_ja[n][s, :, :, j] one contiguous
    (n_elem, face nodes) array, so the lane kernels read interface and
    coupling normals as (d, lanes) rows of it with no copy
    (batched._face_geometry). On Lobatto grids the trace is a restriction:
    face_ja[n] views line positions 0 and p of line_ja[n], no second
    store. On Gauss grids it is an extrapolation, stored side-major and
    then component-major as the transposed view of one contiguous
    (2, d, n_elem, face nodes) block. The interface normal of direction n
    is face_ja[n][1], the minus element's +1 trace, pointing from the
    minus to the plus element, so both sides of an interface see one
    value.
    """

    line_ja: np.ndarray
    jac: np.ndarray
    face_ja: tuple


def _line_axes(d, n):
    """The axis order of line_major on an (n_elem, p+1, ..., p+1, m)
    tensor: component, line position, element, then the other
    reference directions in order."""
    rest = tuple(i for i in range(1, d + 1) if i != n + 1)
    return (d + 1, n + 1, 0) + rest


def line_major(arr, n, p1, d):
    """View of a nodal array (n_elem, p1^d, m) as (m, p1, n_elem, ...):
    entry [k, a] is component k at position a of every node line in
    direction n, the lines of each element in reference.node_lines order."""
    tensor = arr.reshape(arr.shape[:1] + (p1,) * d + arr.shape[-1:])
    return tensor.transpose(_line_axes(d, n))


def node_ja(metrics, n):
    """Direction n's metric vectors in node layout, a view of the line
    store: (n_elem, p+1, ..., p+1, d), entry [e, i_1, ..., i_d, j] is
    (Ja)^n_j at node (i_1, ..., i_d) of element e."""
    block = metrics.line_ja[n].swapaxes(0, 1)
    d, p1, lanes = block.shape
    lines = block.reshape((d, p1, lanes // p1 ** (d - 1)) + (p1,) * (d - 1))
    return lines.transpose(np.argsort(_line_axes(d, n)))


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
    """(plus, minus): plus[n][e] is the element across the +n face of e and
    minus[n][e] the element across its -n face (periodic). Each is a
    permutation and the other's inverse, plus[n][minus[n]] = arange."""
    idx = np.arange(mesh.n_elements).reshape(mesh.dims)
    return tuple(
        tuple(np.roll(idx, shift, axis=n).ravel() for n in range(mesh.d))
        for shift in (-1, 1)
    )


def _node_metrics(mesh, op, coords):
    """ja (n_elem, nodes, d, d) and jac (n_elem, nodes) in node layout,
    ja[e, i, n, j] = (Ja)^n_j at node i of element e: the constant terms
    of a Cartesian mesh, or on curved meshes the terms computed on the
    degree-p Lobatto grid (see the module docstring), reusing the
    solution-grid `coords` of a Lobatto operator; Gauss operators
    interpolate both to their nodes along each axis."""
    d = mesh.d
    p1 = op.n_nodes
    n_elem = mesh.n_elements
    nn = p1**d
    if mesh.is_cartesian:
        h = mesh.widths
        jac_val = 1.0
        for w in h:
            jac_val *= 0.5 * w
        ja = np.zeros((n_elem, nn, d, d))
        for n in range(d):
            area = jac_val / (0.5 * h[n])
            ja[:, :, n, n] = area
        return ja, np.full((n_elem, nn), jac_val)
    lobatto = lgl_operator(op.degree)
    if coords is None or op.family != "lgl":
        coords = element_coords(mesh, lobatto)
    coords_nd = coords.reshape((n_elem,) + (p1,) * d + (d,))
    if d == 2:
        ja_nd, jac_nd = _metrics_2d(coords_nd, lobatto.D)
    else:
        ja_nd, jac_nd = _metrics_3d_curl(coords_nd, lobatto.D)
    if op.family != "lgl":
        interp = interpolation_matrix(lobatto.nodes, op.nodes)
        for axis in range(1, d + 1):
            ja_nd = apply_along(interp, ja_nd, axis)
            jac_nd = apply_along(interp, jac_nd, axis)
    return ja_nd.reshape(n_elem, nn, d, d), jac_nd.reshape(n_elem, nn)


def compute_metrics(mesh, op, coords=None):
    """Volume metric terms in line order plus each element's face traces of
    them (MetricData); `coords` as in _node_metrics. Raises MeshError on a
    non-positive Jacobian at the solution nodes.
    """
    d = mesh.d
    p1 = op.n_nodes
    n_elem = mesh.n_elements
    ja, jac = _node_metrics(mesh, op, coords)
    if not np.all(jac > 0.0):
        e, i = np.unravel_index(np.argmin(jac), jac.shape)
        raise MeshError(
            "non-positive Jacobian %r at element %d, node %d (amplitude too large?)"
            % (float(jac[e, i]), int(e), int(i))
        )
    lanes = n_elem * p1 ** (d - 1)
    line_ja = np.empty((d, p1, d, lanes))
    for n in range(d):
        lines = line_ja[n].swapaxes(0, 1).reshape((d, p1, n_elem) + (p1,) * (d - 1))
        np.copyto(lines, line_major(ja[:, :, n, :], n, p1, d))
    if op.family == "lgl":
        # the boundary nodes are line positions 0 and p: (2, n_elem, face
        # nodes, d) views of the store
        face_ja = tuple(
            line_ja[n][:: p1 - 1].transpose(0, 2, 1).reshape(2, n_elem, -1, d)
            for n in range(d)
        )
        return MetricData(line_ja, jac, face_ja)
    # Gauss: extrapolated traces, both sides of direction n written
    # component by component into one (2, d, n_elem, face nodes) block and
    # kept as its (2, n_elem, face nodes, d) view
    face_ja = []
    ja_nd = ja.reshape((n_elem,) + (p1,) * d + (d, d))
    for n in range(d):
        block = np.empty((2, d, n_elem, p1 ** (d - 1)))
        for side, j in np.ndindex(2, d):
            block[side, j] = _extrapolate_face(ja_nd[..., n, j], op, n, side)
        face_ja.append(block.transpose(0, 2, 3, 1))
    return MetricData(line_ja, jac, tuple(face_ja))
