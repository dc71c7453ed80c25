from dataclasses import fields

import numpy as np
import pytest

from fluxdg.discretization import build_setup
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
from fluxdg.operators import gauss_operator, lgl_operator, make_operator, transfer_matrices

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
    plus, minus = neighbor_table(mesh)
    idx = np.arange(6).reshape(3, 2)
    # +x neighbor of the last row wraps to the first
    assert plus[0][idx[2, 0]] == idx[0, 0]
    # and the -x neighbor of the first row to the last
    assert minus[0][idx[0, 0]] == idx[2, 0]
    assert plus[0][idx[0, 1]] == idx[1, 1]
    assert plus[1][idx[1, 1]] == idx[1, 0]
    for n in range(2):
        assert np.array_equal(np.sort(plus[n]), np.arange(6))


@pytest.mark.parametrize("dims", [(1, 3), (3, 1, 2), (2, 2, 2)])
def test_minus_neighbor_inverts_plus_neighbor(dims, gas):
    """minus_neighbor[n] is the inverse permutation of plus_neighbor[n], as
    built once per mesh and stored on SpatialSetup; in a one-element
    direction both maps are the identity."""
    mesh = build_mesh(dims)
    setup = build_setup(mesh, lgl_operator(1), gas)
    ids = np.arange(mesh.n_elements)
    for n, (plus, minus) in enumerate(zip(setup.plus_neighbor, setup.minus_neighbor)):
        assert np.array_equal(minus[plus], ids)
        assert np.array_equal(plus[minus], ids)
        if dims[n] == 1:
            assert np.array_equal(plus, ids) and np.array_equal(minus, ids)


def test_cartesian_metrics_exact():
    mesh = build_mesh((4, 2), bounds=[(-1.0, 1.0), (0.0, 8.0)])
    op = lgl_operator(3)
    metrics = compute_metrics(mesh, op)
    # widths (0.5, 4): jac = (0.25)*(2) = 0.5, areas (2, 0.25)
    assert mesh.is_cartesian
    assert np.all(metrics.jac == 0.5)
    # the constant diagonal metric: the face areas the Cartesian lane
    # kernels scale their axis fluxes by
    assert np.abs(metrics.ja - np.diag([2.0, 0.25])).max() < 1e-15


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
    # with boundary nodes the element's own face trace is a restriction
    mesh = build_mesh((3, 3), amplitude=0.2)
    op = lgl_operator(4)
    metrics = compute_metrics(mesh, op)
    ja_nd = metrics.ja.reshape(9, 5, 5, 2, 2)
    own = metrics.face_ja[0]  # (side, e, m, j)
    assert np.array_equal(own[0], ja_nd[:, 0, :, 0, :])
    assert np.array_equal(own[1], ja_nd[:, -1, :, 0, :])


@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("d", [2, 3])
def test_face_metrics_stored_once(family, d):
    # the geometry is the volume metrics plus one face-trace array per
    # direction, which keeps its face_ja[n][s, e, m, j] indices but stores
    # each component of each side as one contiguous (n_elem, face nodes)
    # block; the interface normal the kernels read is a view of the store,
    # never a second copy
    op = make_operator(3, family)
    mesh = build_mesh((2,) * d, amplitude=0.1)
    metrics = compute_metrics(mesh, op)
    assert [f.name for f in fields(metrics)] == ["ja", "jac", "face_ja"]
    assert len(metrics.face_ja) == d
    for face_ja in metrics.face_ja:
        assert face_ja.shape == (2, mesh.n_elements, 4 ** (d - 1), d)
        store = face_ja.base
        assert store is not None and store.flags.c_contiguous and store.nbytes == face_ja.nbytes
        for s, j in np.ndindex(2, d):
            assert face_ja[s, :, :, j].flags.c_contiguous, (s, j)
        assert np.shares_memory(face_ja[1], store)


@pytest.mark.parametrize(
    "family,amplitude,geo",
    [("lgl", 0.0, None), ("lgl", 0.1, None), ("gauss", 0.1, None), ("gauss", 0.1, 1)],
)
@pytest.mark.parametrize("d", [2, 3])
def test_volume_metrics_stored_component_major(d, family, amplitude, geo):
    # ja keeps its ja[e, i, n, j] indices, but each component (Ja)^n_j is one
    # contiguous (n_elem, nodes) block: the lane kernels read pair normals
    # straight from line-major views of these blocks
    mesh = build_mesh((2, 3, 2)[:d], amplitude=amplitude, geo_degree=geo)
    metrics = compute_metrics(mesh, make_operator(3, family))
    assert metrics.ja.shape == (mesh.n_elements, 4**d, d, d)
    for n, j in np.ndindex(d, d):
        assert metrics.ja[:, :, n, j].flags.c_contiguous, (n, j)


@pytest.mark.parametrize("d", [2, 3])
def test_gauss_face_metrics_agree_across_interfaces(d):
    # Gauss face metrics extrapolate the Lobatto-grid metrics sampled at the
    # Gauss nodes, which reproduces the Lobatto face trace: both neighbours
    # of every face see one normal, isoparametric or at any mapping degree
    # (in 3D also above p/2, where the curl form's products outgrow p)
    if d == 2:
        cases = ((3, None), (3, 2), (3, 3))
    else:
        cases = ((3, None), (3, 2), (4, 3), (3, 1), (4, 2))
    for p, geo in cases:
        op = gauss_operator(p)
        mesh = build_mesh((3,) * d, amplitude=0.15 if d == 2 else 0.08, geo_degree=geo)
        metrics = compute_metrics(mesh, op)
        plus, _ = neighbor_table(mesh)
        mismatch = 0.0
        for n, own in enumerate(metrics.face_ja):
            mismatch = max(mismatch, float(np.abs(own[1] - own[0][plus[n]]).max()))
        assert mismatch < 5e-12, (d, p, geo, mismatch)


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


def _apply_along_moveaxis(mat, arr, axis):
    """Oracle: move `axis` last, one broadcast matmul against mat.T, move the
    axis back."""
    moved = np.moveaxis(arr, axis, -1)
    return np.moveaxis(moved @ mat.T, -1, axis)


@pytest.mark.parametrize("name", ["lgl_D", "gauss_D", "interp", "project"])
def test_apply_along_bytes_match_moveaxis_form(name):
    # the one reshaped matmul sums every entry in the order of the moved-axis
    # form: the same bytes for square and non-square operators, at the first,
    # a middle and the last axis, for contiguous and strided input
    transfer = transfer_matrices(3, 5)
    mat = {
        "lgl_D": lgl_operator(3).D,
        "gauss_D": gauss_operator(3).D,
        "interp": transfer.interp,
        "project": transfer.project,
    }[name]
    k = mat.shape[1]
    base = np.random.default_rng(1).standard_normal((k, 3, k, 2 * k, k))
    inputs = [base, base[:, :, :, ::2], base.transpose(4, 1, 2, 3, 0)]
    assert not inputs[1].flags.c_contiguous and not inputs[2].flags.c_contiguous
    for arr in inputs:
        for axis in (0, 2, arr.ndim - 1):
            got = apply_along(mat, arr, axis)
            want = _apply_along_moveaxis(mat, arr, axis)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (arr.strides, axis)
