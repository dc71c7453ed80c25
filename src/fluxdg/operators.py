"""One-dimensional nodal operators with the summation-by-parts property.

Two node families are supported on the reference interval [-1, 1]:

* 'lgl'   - Lobatto nodes (include the endpoints, diagonal boundary operator)
* 'gauss' - Gauss nodes (interior only, dense boundary extrapolation)

Every operator satisfies M D + D^T M = R^T B N R with M = diag(weights),
B = I and N = diag(-1, +1); that identity is what all volume/surface
splittings in the discretization lean on.

The two-point volume terms of both node families and both kernels read
one pair table, hybridized_scatter, the line coefficients of the
hybridized operator (build_hybridized; Chan, Del Rey Fernandez and
Carpenter 2019). On Lobatto nodes its volume pairs are the split
derivative 2 D - M^{-1} R^T B N R up to 2 ulps, and its volume-face
coupling cancels on the boundary nodes, so Lobatto flux differencing
takes the pairs alone.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedOperatorError

MAX_DEGREE = 15
FAMILIES = ("lgl", "gauss")

# face normal signs in 1D, left then right
_N_FACE = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class Operator1D:
    degree: int
    family: str
    nodes: np.ndarray     # (p+1,)
    weights: np.ndarray   # (p+1,) quadrature weights (diagonal mass matrix)
    D: np.ndarray         # (p+1, p+1) differentiation matrix
    boundary_interp: np.ndarray  # (2, p+1) rows evaluate at -1 and +1

    @property
    def n_nodes(self):
        return self.degree + 1


@dataclass(frozen=True)
class TransferMatrices:
    """Interpolation to a finer degree and the L2 projection back."""

    interp: np.ndarray   # (q+1, p+1)
    project: np.ndarray  # (p+1, q+1)


def _check_degree(p):
    if not (1 <= p <= MAX_DEGREE):
        raise UnsupportedOperatorError(
            "degree %r outside supported range 1..%d" % (p, MAX_DEGREE)
        )


def _legendre_pair(p, x):
    """Values of P_p and P'_p at x (vectorized)."""
    x = np.asarray(x, dtype=float)
    pk_prev = np.ones_like(x)
    pk = x.copy()
    dpk_prev = np.zeros_like(x)
    dpk = np.ones_like(x)
    if p == 0:
        return pk_prev, dpk_prev
    for n in range(1, p):
        pk_next = ((2 * n + 1) * x * pk - n * pk_prev) / (n + 1)
        dpk_next = dpk_prev + (2 * n + 1) * pk
        pk_prev, pk = pk, pk_next
        dpk_prev, dpk = dpk, dpk_next
    return pk, dpk


def _lobatto_nodes_weights(p):
    """Lobatto nodes by Newton iteration on P'_p.

    Starting guesses are the Chebyshev-Lobatto points; P''_p comes from the
    Legendre ODE so only the (P, P') recurrence is needed.
    """
    if p == 1:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    x = -np.cos(np.pi * np.arange(1, p) / p)  # interior guesses
    for _ in range(100):
        leg, dleg = _legendre_pair(p, x)
        ddleg = (2.0 * x * dleg - p * (p + 1) * leg) / (1.0 - x * x)
        dx = dleg / ddleg
        x -= dx
        if np.max(np.abs(dx)) < 1.0e-15:
            break
    x = 0.5 * (x - x[::-1])  # enforce symmetry about the origin
    nodes = np.concatenate(([-1.0], x, [1.0]))
    leg, _ = _legendre_pair(p, nodes)
    weights = 2.0 / (p * (p + 1) * leg * leg)
    return nodes, weights


def _bary_weights(nodes):
    dx = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dx, 1.0)
    return 1.0 / np.prod(dx, axis=1)


def _diff_matrix(nodes):
    lam = _bary_weights(nodes)
    dx = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dx, 1.0)
    mat = (lam[None, :] / lam[:, None]) / dx
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -np.sum(mat, axis=1))
    return mat


def _lagrange_row(nodes, lam, y):
    """Interpolation weights from `nodes` to the point y."""
    diff = y - nodes
    hit = np.nonzero(diff == 0.0)[0]
    row = np.zeros_like(nodes)
    if hit.size:
        row[hit[0]] = 1.0
        return row
    c = lam / diff
    return c / np.sum(c)


def interpolation_matrix(nodes_from, nodes_to):
    """Rows of Lagrange weights that evaluate the interpolant on
    `nodes_from` at each point of `nodes_to`, (len(nodes_to), len(nodes_from))."""
    lam = _bary_weights(nodes_from)
    return np.vstack([_lagrange_row(nodes_from, lam, y) for y in nodes_to])


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _make_operator(p, family, nodes, weights):
    mat = _diff_matrix(nodes)
    lam = _bary_weights(nodes)
    boundary = np.vstack([_lagrange_row(nodes, lam, -1.0), _lagrange_row(nodes, lam, 1.0)])
    # Reassemble D from the skew part of M D plus the boundary operator.
    # The barycentric matrix satisfies the summation-by-parts identity only
    # up to roundoff amplified by the O(p^2) entry growth (entrywise ~1e-13
    # by p=15); splitting off the exactly antisymmetric part and adding back
    # RtBNR/2 makes the identity hold to a few ulps at every degree while
    # perturbing each entry only at its own roundoff level.
    md = weights[:, None] * mat
    rtbnr = boundary.T @ (_N_FACE[:, None] * boundary)
    mat = (0.5 * (md - md.T) + 0.5 * rtbnr) / weights[:, None]
    _freeze(nodes, weights, mat, boundary)
    return Operator1D(p, family, nodes, weights, mat, boundary)


@lru_cache(maxsize=None)
def lgl_operator(p):
    _check_degree(p)
    nodes, weights = _lobatto_nodes_weights(p)
    return _make_operator(p, "lgl", nodes, weights)


@lru_cache(maxsize=None)
def gauss_operator(p):
    _check_degree(p)
    nodes, weights = np.polynomial.legendre.leggauss(p + 1)
    return _make_operator(p, "gauss", nodes, weights)


def make_operator(p, family):
    if family == "lgl":
        return lgl_operator(p)
    if family == "gauss":
        return gauss_operator(p)
    raise UnsupportedOperatorError("unknown node family %r" % (family,))


def build_hybridized(op):
    """Hybridized skew operator Q_h on [volume nodes; left face; right face],
    a frozen (p+3, p+3) matrix.

    The face-face corner carries half the boundary operator, so
    Q_h + Q_hᵀ = blockdiag(0, BN): the face consistency flux is part of the
    volume operator and the surface term couples neighbours through
    f_num - f(face state).
    """
    n = op.n_nodes
    md = op.weights[:, None] * op.D
    skew = 0.5 * (md - md.T)
    r = op.boundary_interp
    rtbn = r.T * _N_FACE[None, :]  # (n, 2)
    q = np.zeros((n + 2, n + 2))
    q[:n, :n] = skew
    q[:n, n:] = 0.5 * rtbn
    q[n:, :n] = -0.5 * (_N_FACE[:, None] * r)
    q[n:, n:] = 0.5 * np.diag(_N_FACE)
    _freeze(q)
    return q


# ---------------------------------------------------------------------------
# the scatter table of the volume kernels (scalar and batched)

@lru_cache(maxsize=None)
def hybridized_scatter(degree, family):
    """Per-line scatter coefficients of the hybridized operator.

    Returns (vv_pairs, vol_face, lift):

    * vv_pairs: (a, b, c_ab, c_ba) over the volume node pairs a < b, the
      M^{-1} factor folded into the weights, all-zero pairs dropped; both
      weights are stored so the antisymmetric scatter of the pair loops
      never recomputes them;
    * vol_face: per side, (volume-row weights with M^{-1}, raw face-row
      weights) for the volume/face-node crossings;
    * lift: per side, the M^{-1} R^T row that carries a face-row sum back to
      the volume nodes.
    """
    op = make_operator(degree, family)
    q = build_hybridized(op)
    w = op.weights
    n = op.n_nodes
    mat = 2.0 * q[:n, :n] / w[:, None]
    vv = tuple(
        (a, b, float(mat[a, b]), float(mat[b, a]))
        for a in range(n)
        for b in range(a + 1, n)
        if mat[a, b] != 0.0 or mat[b, a] != 0.0
    )
    vol_face = []
    lift = []
    for s in (0, 1):
        col = n + s
        vol_face.append(
            (
                tuple(float(2.0 * q[a, col] / w[a]) for a in range(n)),
                tuple(float(2.0 * q[col, a]) for a in range(n)),
            )
        )
        lift.append(tuple(float(op.boundary_interp[s, a] / w[a]) for a in range(n)))
    return vv, tuple(vol_face), tuple(lift)


@lru_cache(maxsize=None)
def transfer_matrices(p, q, family="lgl"):
    """Interpolation p -> q and L2 projection q -> p (exact round trip for
    polynomial data since the fine quadrature integrates degree 2p)."""
    _check_degree(p)
    _check_degree(q)
    if q < p:
        raise UnsupportedOperatorError(
            "target degree %d must not be below source degree %d" % (q, p)
        )
    op_low = make_operator(p, family)
    op_high = make_operator(q, family)
    interp = interpolation_matrix(op_low.nodes, op_high.nodes)
    # consistent-mass projection: the fine quadrature integrates degree 2p
    # exactly, so project @ interp is the identity for every q >= p
    weighted = interp.T * op_high.weights[None, :]
    project = np.linalg.solve(weighted @ interp, weighted)
    _freeze(interp, project)
    return TransferMatrices(interp, project)
