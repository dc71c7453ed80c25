import numpy as np
import pytest

from fluxdg.errors import MeshError
from fluxdg.geometry import (
    StructuredMesh,
    apply_along,
    build_mesh,
    compute_metrics,
    element_coords,
    element_metrics,
    neighbor_table,
)
from fluxdg.operators import gauss_operator, lgl_operator

from .oracles import metric_identity_residual


def test_mesh_validation():
    with pytest.raises(MeshError):
        build_mesh((4,))
    with pytest.raises(MeshError):
        build_mesh((2, 2, 2, 2))
    with pytest.raises(MeshError):
        build_mesh((0, 4))
    with pytest.raises(MeshError):
        StructuredMesh((2, 2), (0.0, 0.0), (0.0, 1.0))


def test_mesh_properties():
    mesh = build_mesh((4, 5), bounds=(-5.0, 5.0))
    assert mesh.d == 2
    assert mesh.n_elements == 20
    assert mesh.widths == (2.5, 2.0)
    assert mesh.is_cartesian
    assert not build_mesh((4, 4), amplitude=0.05).is_cartesian


def test_mixed_bounds():
    mesh = build_mesh((2, 4), bounds=[(-1.0, 1.0), (0.0, 8.0)])
    assert mesh.widths == (1.0, 2.0)


@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("d", [2, 3])
def test_coordinates_cover_box(family, d):
    op = lgl_operator(3) if family == "lgl" else gauss_operator(3)
    mesh = build_mesh((3,) * d, bounds=(-5.0, 5.0))
    coords = element_coords(mesh, op)
    assert coords.shape == (3**d, 4**d, d)
    lo = coords.min(axis=(0, 1))
    hi = coords.max(axis=(0, 1))
    if family == "lgl":
        assert np.abs(lo + 5.0).max() == 0.0
        assert np.abs(hi - 5.0).max() == 0.0
    else:
        assert np.all(lo > -5.0) and np.all(hi < 5.0)


def test_shared_face_nodes_bitwise_identical():
    # global coordinate formula: both sides of an interior face evaluate the
    # same expression, so equality is exact, not approximate
    op = lgl_operator(4)
    mesh = build_mesh((3, 3), amplitude=0.2)
    coords = element_coords(mesh, op).reshape(3, 3, 5, 5, 2)
    # wrap-around neighbours differ by the domain period, so only interior
    # faces are bitwise comparable
    for i in range(2):
        for j in range(3):
            assert np.array_equal(coords[i, j, -1, :, :], coords[i + 1, j, 0, :, :])
            assert np.array_equal(coords[j, i, :, -1, :], coords[j, i + 1, :, 0, :])


def test_neighbor_table_periodic_wrap():
    mesh = build_mesh((3, 2))
    plus = neighbor_table(mesh)
    idx = np.arange(6).reshape(3, 2)
    # +x neighbor of the last row wraps to the first
    assert plus[0][idx[2, 0]] == idx[0, 0]
    assert plus[0][idx[0, 1]] == idx[1, 1]
    assert plus[1][idx[1, 1]] == idx[1, 0]
    for n in range(2):
        assert np.array_equal(np.sort(plus[n]), np.arange(6))


def test_cartesian_metrics_exact():
    mesh = build_mesh((4, 2), bounds=[(-1.0, 1.0), (0.0, 8.0)])
    op = lgl_operator(3)
    metrics = compute_metrics(mesh, op)
    # widths (0.5, 4): jac = (0.25)*(2) = 0.5, areas (2, 0.25)
    assert np.all(metrics.jac == 0.5)
    assert metrics.cartesian
    # the constant diagonal metric: the face areas the Cartesian lane
    # kernels scale their axis fluxes by
    assert np.abs(metrics.ja - np.diag([2.0, 0.25])).max() < 1e-15
    assert not compute_metrics(build_mesh((2, 2), amplitude=0.1), op).cartesian


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("geo", [None, 2])
def test_metric_identity_curved(d, geo):
    op = lgl_operator(4)
    mesh = build_mesh((3,) * d, amplitude=0.25 if d == 2 else 0.15, geo_degree=geo)
    metrics = compute_metrics(mesh, op)
    resid = metric_identity_residual(metrics, op, d)
    assert resid < 1e-12, resid
    assert np.all(metrics.jac > 0.0)


def test_amplitude_too_large_rejected():
    mesh = build_mesh((2, 2), amplitude=3.0)
    with pytest.raises(MeshError):
        compute_metrics(mesh, lgl_operator(3))


def test_per_element_helpers_match_assembled():
    mesh = build_mesh((3, 3), amplitude=0.2)
    op = lgl_operator(3)
    metrics = compute_metrics(mesh, op)
    for e in (0, 4, 8):
        view = element_metrics(metrics, e)
        assert np.array_equal(view.ja, metrics.ja[e])


def test_lgl_face_metrics_collocated():
    # with boundary nodes the element's own face trace is a restriction;
    # the minus element's trace is the shared value
    mesh = build_mesh((3, 3), amplitude=0.2)
    op = lgl_operator(4)
    metrics = compute_metrics(mesh, op)
    ja_nd = metrics.ja.reshape(9, 5, 5, 2, 2)
    own = metrics.elem_face_ja[0]  # (e, side, m, j)
    assert np.array_equal(own[:, 0], ja_nd[:, 0, :, 0, :])
    assert np.array_equal(own[:, 1], ja_nd[:, -1, :, 0, :])
    # shared face normal is the minus element's +1 trace
    assert np.array_equal(metrics.face_ja[0], own[:, 1])


@pytest.mark.parametrize("d", [2, 3])
def test_gauss_face_metric_consistency_with_coarse_geometry(d):
    # extrapolated face metrics of neighbouring elements agree only when the
    # mapping keeps the metric fields inside the solution space: sampling at
    # the solution nodes never does, a shared Lobatto geometry grid of degree
    # g does for g <= p in 2D but needs 2 g <= p in 3D (curl-form products
    # square the mapping degree)
    if d == 2:
        cases = ((3, None, False), (3, 2, True), (3, 3, True))
    else:
        cases = ((3, None, False), (3, 2, False), (3, 1, True), (4, 2, True))
    for p, geo, should_match in cases:
        op = gauss_operator(p)
        mesh = build_mesh((3,) * d, amplitude=0.15 if d == 2 else 0.08, geo_degree=geo)
        metrics = compute_metrics(mesh, op)
        plus = neighbor_table(mesh)
        own = metrics.elem_face_ja[0]
        mismatch = 0.0
        for e in range(mesh.n_elements):
            nb = plus[0][e]
            mismatch = max(mismatch, float(np.abs(own[e, 1] - own[nb, 0]).max()))
        if should_match:
            assert mismatch < 5e-12, (d, p, geo, mismatch)
        else:
            assert mismatch > 1e-7, (d, p, geo, mismatch)


def test_apply_along_matches_einsum():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((5, 4, 4, 4))
    mat = rng.standard_normal((4, 4))
    for axis in (1, 2, 3):
        got = apply_along(mat, arr, axis)
        want = np.moveaxis(
            np.einsum("ab,...b->...a", mat, np.moveaxis(arr, axis, -1)), -1, axis
        )
        assert np.abs(got - want).max() < 1e-13
