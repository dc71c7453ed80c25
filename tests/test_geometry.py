import tracemalloc
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
    line_major,
    neighbor_table,
    node_ja,
)
from fluxdg.geometry import _extrapolate_face, _node_metrics
from fluxdg.operators import gauss_operator, lgl_operator, make_operator, transfer_matrices
from fluxdg.reference import element_metrics

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
    area = np.diag([2.0, 0.25])[:, None, :, None]
    assert np.abs(metrics.line_ja - area).max() < 1e-15


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
        terms = element_metrics(metrics, e)
        assert terms.ja.shape == (16, 2, 2)
        for n in range(2):
            want = node_ja(metrics, n)[e].reshape(16, 2)
            assert np.array_equal(terms.ja[:, n, :], want)
        assert np.shares_memory(terms.jac, metrics.jac)
        assert np.array_equal(terms.jac, metrics.jac[e])


def test_lgl_face_metrics_collocated():
    # with boundary nodes the element's own face trace is a restriction
    mesh = build_mesh((3, 3), amplitude=0.2)
    op = lgl_operator(4)
    metrics = compute_metrics(mesh, op)
    ja0 = node_ja(metrics, 0)  # (e, i_1, i_2, j)
    own = metrics.face_ja[0]  # (side, e, m, j)
    assert np.array_equal(own[0], ja0[:, 0])
    assert np.array_equal(own[1], ja0[:, -1])


@pytest.mark.parametrize("amplitude", [0.0, 0.1])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("d", [2, 3])
def test_face_metrics_stored_once(d, family, p, amplitude):
    # face_ja[n][s, e, m, j] keeps its indices, with each component of each
    # side one contiguous (n_elem, face nodes) block. On Lobatto grids the
    # traces are line positions 0 and p of the volume store, no second
    # store, and equal the restrictions the extrapolation rows make (as
    # floats: a one-hot row turns a -0.0 into +0.0); Gauss grids keep the
    # extrapolated traces in one separate (2, d, n_elem, face nodes) block
    op = make_operator(p, family)
    mesh = build_mesh((2, 3, 2)[:d], amplitude=amplitude)
    metrics = compute_metrics(mesh, op)
    assert [f.name for f in fields(metrics)] == ["line_ja", "jac", "face_ja"]
    assert len(metrics.face_ja) == d
    for n, face_ja in enumerate(metrics.face_ja):
        assert face_ja.shape == (2, mesh.n_elements, (p + 1) ** (d - 1), d)
        for s, j in np.ndindex(2, d):
            assert face_ja[s, :, :, j].flags.c_contiguous, (s, j)
        if family == "lgl":
            assert np.shares_memory(face_ja, metrics.line_ja[n])
            for s, j in np.ndindex(2, d):
                trace = _extrapolate_face(node_ja(metrics, n)[..., j], op, n, s)
                assert np.array_equal(face_ja[s, :, :, j], trace), (n, s, j)
        else:
            store = face_ja.base
            assert store.flags.c_contiguous and store.nbytes == face_ja.nbytes
            assert not np.shares_memory(store, metrics.line_ja)


@pytest.mark.parametrize(
    "family,amplitude,geo",
    [("lgl", 0.0, None), ("lgl", 0.1, None), ("gauss", 0.1, None), ("gauss", 0.1, 1)],
)
@pytest.mark.parametrize("d", [2, 3])
def test_volume_metrics_stored_in_line_order(d, family, amplitude, geo):
    # line_ja[n, a, j] holds (Ja)^n_j at line position a of every lane of
    # direction n, lanes in line_major order: one contiguous (d, p+1, d,
    # lanes) block whose every [n, a, j] row is contiguous and carries the
    # bytes of the node-layout terms; node_ja reads them back as views
    mesh = build_mesh((2, 3, 2)[:d], amplitude=amplitude, geo_degree=geo)
    op = make_operator(3, family)
    metrics = compute_metrics(mesh, op)
    lanes = mesh.n_elements * 4 ** (d - 1)
    assert metrics.line_ja.shape == (d, 4, d, lanes)
    assert metrics.line_ja.flags.c_contiguous
    ja, jac = _node_metrics(mesh, op, None)
    assert jac.tobytes() == metrics.jac.tobytes()
    for n in range(d):
        lines = line_major(ja[:, :, n, :], n, 4, d).reshape(d, 4, lanes)
        for j, a in np.ndindex(d, 4):
            row = metrics.line_ja[n, a, j]
            assert row.flags.c_contiguous and row.tobytes() == lines[j, a].tobytes()
        view = node_ja(metrics, n)
        assert np.shares_memory(view, metrics.line_ja)
        want = ja[:, :, n, :].reshape(view.shape)
        assert view.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("d", [2, 3])
def test_setup_holds_one_metric_store(gas, d, family):
    # a curved set-up holds d*d*N + N metric doubles (the line store and the
    # Jacobian) besides its coordinates, neighbours and weights; Lobatto
    # grids hold no face-metric store on top, Gauss grids only their
    # extrapolated face blocks. A Lobatto face store would add
    # 2*d*d*n_elem*(p+1)^(d-1) doubles: 32 KB on the 2D mesh below, 144 KB
    # on the 3D one
    mesh = build_mesh((16,) * d if d == 2 else (4,) * d, amplitude=0.1)
    op = make_operator(3, family)
    build_setup(mesh, op, gas)  # warm the operator caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        setup = build_setup(mesh, op, gas)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    metrics = setup.metrics
    dofs = setup.dofs
    assert metrics.line_ja.nbytes == 8 * d * d * dofs and metrics.jac.nbytes == 8 * dofs
    if family == "lgl":
        assert all(np.shares_memory(f, metrics.line_ja) for f in metrics.face_ja)
        faces = 0
    else:
        faces = sum(f.base.nbytes for f in metrics.face_ja)
        assert faces == 8 * 2 * d * d * mesh.n_elements * 4 ** (d - 1)
    arrays = [setup.coords, setup.wbar, *setup.plus_neighbor, *setup.minus_neighbor]
    known = sum(a.nbytes for a in [metrics.line_ja, metrics.jac] + arrays) + faces
    # array headers and the set-up's Python objects: 3.5-7.6 KB
    assert 0 <= held - known < 16 * 1024, held - known


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
