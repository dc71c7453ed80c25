import math

import numpy as np
import pytest

from fluxdg.errors import UnsupportedOperatorError
from fluxdg.operators import (
    FAMILIES,
    MAX_DEGREE,
    build_dsplit,
    build_hybridized,
    gauss_operator,
    hybridized_scatter,
    lgl_operator,
    make_operator,
    split_pairs,
    transfer_matrices,
)
from fluxdg.reference import node_lines


def test_known_lobatto_values():
    op = lgl_operator(3)
    s5 = 1.0 / math.sqrt(5.0)
    assert np.abs(op.nodes - [-1.0, -s5, s5, 1.0]).max() < 1e-15
    assert np.abs(op.weights - [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0]).max() < 1e-15
    op4 = lgl_operator(4)
    s37 = math.sqrt(3.0 / 7.0)
    assert np.abs(op4.nodes - [-1.0, -s37, 0.0, s37, 1.0]).max() < 1e-15
    assert np.abs(op4.weights - [0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1]).max() < 1e-15
    # endpoint diagonal entry of D is -p(p+1)/4
    for p in (3, 4, 7):
        op = lgl_operator(p)
        assert abs(op.D[0, 0] + p * (p + 1) / 4.0) < 1e-12


def test_known_gauss_values():
    op = gauss_operator(2)
    s = math.sqrt(3.0 / 5.0)
    assert np.abs(op.nodes - [-s, 0.0, s]).max() < 1e-15
    assert np.abs(op.weights - [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]).max() < 1e-15


@pytest.mark.parametrize("family", FAMILIES)
def test_quadrature_exactness(family):
    # LGL integrates degree 2p-1 exactly, Gauss degree 2p+1
    for p in range(1, MAX_DEGREE + 1):
        op = make_operator(p, family)
        assert abs(op.weights.sum() - 2.0) < 1e-14
        deg = 2 * p - 1 if family == "lgl" else 2 * p + 1
        for k in range(deg + 1):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = float(op.weights @ op.nodes**k)
            assert abs(got - exact) < 5e-14, (family, p, k)


@pytest.mark.parametrize("family", FAMILIES)
def test_differentiation_exact_on_polynomials(family):
    for p in (1, 4, 9, 15):
        op = make_operator(p, family)
        for k in range(p + 1):
            df = op.D @ op.nodes**k
            exact = k * op.nodes ** (k - 1) if k else np.zeros_like(op.nodes)
            assert np.abs(df - exact).max() < 1e-10 * max(1.0, p**2), (family, p, k)


@pytest.mark.parametrize("family", FAMILIES)
def test_boundary_interp_evaluates_endpoints(family):
    for p in (2, 5, 11):
        op = make_operator(p, family)
        for k in range(p + 1):
            vals = op.boundary_interp @ op.nodes**k
            assert abs(vals[0] - (-1.0) ** k) < 1e-12
            assert abs(vals[1] - 1.0) < 1e-12
    # on Lobatto nodes the endpoint rows are unit vectors
    op = lgl_operator(6)
    e0 = np.zeros(7)
    e0[0] = 1.0
    assert np.array_equal(op.boundary_interp[0], e0)
    assert np.array_equal(op.boundary_interp[1], e0[::-1])


def test_dsplit_rejects_gauss():
    with pytest.raises(UnsupportedOperatorError):
        build_dsplit(gauss_operator(3))


def test_dsplit_interior_rows_equal_2d():
    # the boundary correction only touches the four corner entries on LGL
    op = lgl_operator(5)
    diff = build_dsplit(op) - 2.0 * op.D
    mask = np.zeros_like(diff, dtype=bool)
    mask[0, 0] = mask[-1, -1] = True
    assert np.abs(diff[~mask]).max() == 0.0
    assert abs(diff[0, 0] - 1.0 / op.weights[0]) < 1e-13
    assert abs(diff[-1, -1] + 1.0 / op.weights[-1]) < 1e-13


@pytest.mark.parametrize("family", FAMILIES)
def test_hybridized_volume_block_cancels_exactly(family):
    # the rest of the hybridized algebra is
    # test_acceptance::test_hybridized_operator_algebra
    for p in (1, 3, 7, 15):
        op = make_operator(p, family)
        q = build_hybridized(op)
        n = op.n_nodes
        sym = q + q.T
        assert np.abs(sym[:n, :n]).max() == 0.0


def test_transfer_interpolation_exactness():
    # the round trip is test_acceptance::test_overintegration_round_trip
    for p in range(1, 8):
        for q in range(p, 2 * p + 1):
            tm = transfer_matrices(p, q)
            # interpolation is exact on degree-p data
            op_p = lgl_operator(p)
            op_q = lgl_operator(q)
            for k in range(p + 1):
                up = op_p.nodes**k
                assert np.abs(tm.interp @ up - op_q.nodes**k).max() < 1e-11
    with pytest.raises(UnsupportedOperatorError):
        transfer_matrices(4, 3)


def test_degree_bounds():
    for bad in (0, -1, MAX_DEGREE + 1):
        with pytest.raises(UnsupportedOperatorError):
            lgl_operator(bad)
    with pytest.raises(UnsupportedOperatorError):
        make_operator(3, "chebyshev")


def test_node_lines_are_permutations():
    for d in (2, 3):
        for p1 in (2, 4, 5):
            lines = node_lines(p1, d)
            assert len(lines) == d
            for n in range(d):
                flat = np.sort(lines[n].reshape(-1))
                assert np.array_equal(flat, np.arange(p1**d))
                # along-line stride is the axis stride of a C-ordered cube
                stride = p1 ** (d - 1 - n)
                assert np.all(np.diff(lines[n], axis=1) == stride)


@pytest.mark.parametrize("p", range(1, MAX_DEGREE + 1))
def test_split_pairs_match_matrix(p):
    mat = build_dsplit(lgl_operator(p))
    seen = set()
    for a, b, wab, wba in split_pairs(p):
        assert a < b
        assert wab == mat[a, b]
        assert wba == mat[b, a]
        seen.add((a, b))
    # every nonzero upper-triangle entry is present exactly once
    nz = {
        (a, b)
        for a in range(p + 1)
        for b in range(a + 1, p + 1)
        if mat[a, b] != 0.0 or mat[b, a] != 0.0
    }
    assert seen == nz


@pytest.mark.parametrize("p", range(1, 9))
def test_hybridized_pairs_are_gauss_dsplit(p):
    # the hybridized volume-volume weights 2 Q[a, b] / w[a] are the entries
    # of the split derivative 2D - M^{-1}RᵀBNR with its dense boundary
    # operator: the surface-correction form of gauss flux differencing is
    # the same operator
    op = gauss_operator(p)
    n_face = np.array([-1.0, 1.0])
    r = op.boundary_interp
    mat = 2.0 * op.D - (r.T @ (n_face[:, None] * r)) / op.weights[:, None]
    vv, _vol_face, _lift = hybridized_scatter(p, "gauss")
    weights = {(a, b): (wab, wba) for a, b, wab, wba in vv}
    bound = 1e-15 * np.abs(mat).max()
    for a in range(p + 1):
        for b in range(a + 1, p + 1):
            wab, wba = weights.get((a, b), (0.0, 0.0))
            assert abs(wab - mat[a, b]) <= bound, (a, b)
            assert abs(wba - mat[b, a]) <= bound, (b, a)
    mskew = op.weights[:, None] * mat
    assert np.abs(mskew + mskew.T).max() < 1e-14
    assert np.abs(np.diag(mat)).max() < 1e-14


@pytest.mark.parametrize("p", range(1, 9))
def test_lobatto_hybridized_is_dsplit_plus_cancelling_coupling(p):
    # on Lobatto nodes the hybridized scheme is flux differencing with the
    # split derivative: its volume pairs are the dsplit pairs (equal to
    # rounding, not bitwise: 2 ulps of the weight at p = 3, one at p = 7, 8),
    # and each side couples only its boundary node, where the volume-row
    # weight and the lifted face-row weight cancel exactly; that is why the
    # Lobatto line kernel takes the dsplit table and no coupling
    vv, vol_face, lift = hybridized_scatter(p, "lgl")
    dsplit = split_pairs(p)
    assert [(a, b) for a, b, _, _ in vv] == [(a, b) for a, b, _, _ in dsplit]
    for (_, _, wab, wba), (_, _, dab, dba) in zip(vv, dsplit):
        assert abs(wab - dab) <= 2.0 * np.spacing(abs(dab))
        assert abs(wba - dba) <= 2.0 * np.spacing(abs(dba))
    for side, boundary in ((0, 0), (1, p)):
        cvol, cface = vol_face[side]
        for a in range(p + 1):
            rows = (cvol[a], cface[a], lift[side][a])
            if a != boundary:
                assert rows == (0.0, 0.0, 0.0), (side, a)
        assert cvol[boundary] != 0.0
        assert cvol[boundary] == -lift[side][boundary] * cface[boundary]


def test_hybridized_scatter_weights():
    p = 3
    op = gauss_operator(p)
    q = build_hybridized(op)
    n = op.n_nodes
    vv, vol_face, lift = hybridized_scatter(p, "gauss")
    for a, b, wab, wba in vv:
        assert abs(wab - 2.0 * q[a, b] / op.weights[a]) < 1e-15
        assert abs(wba - 2.0 * q[b, a] / op.weights[b]) < 1e-15
    for side in (0, 1):
        col = n + side
        cvol, cface = vol_face[side]
        for a in range(n):
            assert abs(cvol[a] - 2.0 * q[a, col] / op.weights[a]) < 1e-15
            assert abs(cface[a] - 2.0 * q[col, a]) < 1e-15
        for a in range(n):
            assert abs(lift[side][a] - op.boundary_interp[side, a] / op.weights[a]) < 1e-15
