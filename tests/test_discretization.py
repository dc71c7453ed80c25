import inspect
import re
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from fluxdg import (
    batched,
    discretization,
    euler,
    fluxes,
    geometry,
    operators,
    reference,
    timeint,
)
from fluxdg import (
    RhsConfig,
    StepController,
    build_mesh,
    build_setup,
    conserved_totals,
    entropy_rate,
    error_norm_l2,
    flux_function,
    integrate,
    make_operator,
    prim2cons,
    rhs,
    stable_dt,
)
from fluxdg.discretization import (
    VOLUME_SCHEMES,
    _constant_terms,
    face_states,
    volume_overintegration,
    volume_strong,
    volume_weak,
)
from fluxdg.errors import AdmissibilityError, ConfigurationError
from fluxdg.euler import (
    cons2prim,
    directional_flux,
    entropy2prim,
    entropy_vars,
    prim2entropy,
)
from fluxdg.geometry import MetricTerms, node_ja
from fluxdg.operators import MAX_DEGREE, build_dsplit, transfer_matrices
from fluxdg.reference import (
    element_metrics,
    node_lines,
    scalar_gauss_volume,
    surface_terms,
    volume_fluxdiff,
)
from fluxdg.verify import (
    SUB_PARAMETRIC_DEGREE,
    compare_kernels,
    random_field,
    relative_gap,
    rhs_cases,
)

from .oracles import gauss_volume_dense


def lgl_setup(gas, d=2, dims=None, amplitude=0.0, p=3):
    mesh = build_mesh(dims or (2,) * d, amplitude=amplitude)
    return build_setup(mesh, make_operator(p, "lgl"), gas)


def gauss_setup(gas, d=2, dims=None, amplitude=0.0, geo_degree=None, p=3):
    mesh = build_mesh(dims or (2,) * d, amplitude=amplitude, geo_degree=geo_degree)
    return build_setup(mesh, make_operator(p, "gauss"), gas)


def projected_faces(u, setup):
    """The entropy-projected face states of every direction."""
    return list(face_states(u, cons2prim(u, setup.gas), setup, True))


def constant_field(setup, gas, prim=(1.0, 0.1, -0.2, 0.3, 1.0)):
    row = np.asarray(prim[: setup.d + 1] + (prim[-1],))
    q = np.tile(row, (setup.n_elements, setup.n_nodes, 1))
    return prim2cons(q, gas)


def matrix_route_fluxdiff(u_elem, op, mat, metrics, vol_flux, gas):
    """Volume term assembled directly from mat, the split matrix
    build_dsplit(op): every ordered node pair (i, k) contributes
    D_split[i,k] F(u_i, u_k, mean metric). The production kernel visits
    unordered pairs once and scatters both weights; the two readings must
    agree up to summation order."""
    p1 = op.n_nodes
    d = u_elem.shape[-1] - 2
    dirn = flux_function(vol_flux)
    states = u_elem.tolist()
    acc = np.zeros_like(u_elem)
    for n in range(d):
        for line in node_lines(p1, d)[n]:
            for a in range(p1):
                i = int(line[a])
                for b in range(p1):
                    if a == b or mat[a, b] == 0.0:
                        continue
                    k = int(line[b])
                    alpha = tuple(0.5 * (metrics.ja[i, n] + metrics.ja[k, n]))
                    f = dirn(states[i], states[k], alpha, gas)
                    acc[i] += mat[a, b] * np.asarray(f)
    return acc / metrics.jac[:, None]


# --- configuration validation ------------------------------------------------


def test_config_rejects_unknown_names(gas):
    setup = lgl_setup(gas)
    cases = [
        (RhsConfig(volume_scheme="nope"), "volume_scheme"),
        (RhsConfig(kernel="gpu"), "kernel"),
        (RhsConfig(surface_flux="roe"), "surface_flux"),
        (RhsConfig(volume_flux="llf"), "volume flux"),
        # the surface-correction form was the same operator as gauss_fluxdiff
        (RhsConfig(volume_scheme="gauss_surface_correction"), "volume_scheme"),
    ]
    for cfg, field in cases:
        with pytest.raises(ConfigurationError, match=field):
            cfg.validate(setup)


def test_config_family_constraints(gas):
    lgl = lgl_setup(gas)
    gss = gauss_setup(gas)
    with pytest.raises(ConfigurationError, match="volume_scheme"):
        RhsConfig(volume_scheme="gauss_fluxdiff").validate(lgl)
    with pytest.raises(ConfigurationError, match="volume_scheme"):
        RhsConfig(volume_scheme="fluxdiff").validate(gss)
    RhsConfig(volume_scheme="gauss_fluxdiff").validate(gss)


def test_config_overintegration_requirements(gas):
    plain = lgl_setup(gas)
    with pytest.raises(ConfigurationError, match="overint_degree"):
        RhsConfig(volume_scheme="overintegration").validate(plain)
    curved = lgl_setup(gas, amplitude=0.2)
    with pytest.raises(ConfigurationError, match="volume_scheme"):
        RhsConfig(volume_scheme="overintegration", overint_degree=5).validate(curved)
    RhsConfig(volume_scheme="overintegration", overint_degree=5).validate(plain)


@pytest.mark.parametrize("q", [2, MAX_DEGREE + 1])
def test_config_rejects_overint_degree_out_of_range(gas, q):
    # the fine degree lives in RhsConfig alone: below p there is nothing to
    # dealias, above MAX_DEGREE there is no operator
    setup = lgl_setup(gas, p=3)
    config = RhsConfig(volume_scheme="overintegration", overint_degree=q)
    with pytest.raises(ConfigurationError, match="overint_degree"):
        config.validate(setup)


# --- set-up footprint --------------------------------------------------------


def setup_bytes(setup):
    """nbytes of the distinct buffers reachable from setup through dataclass
    fields and tuples, every view counted once with its base."""
    bases = {}
    todo = [setup]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, tuple):
            todo.extend(obj)
        elif is_dataclass(obj):
            todo.extend(getattr(obj, f.name) for f in fields(obj))
    return sum(a.nbytes for a in bases.values())


@pytest.mark.parametrize("family,geo", [("lgl", None), ("gauss", 1)])
def test_setup_footprint(gas, family, geo):
    # coordinates, volume metrics, one face-trace array per direction,
    # neighbours and weights, each stored once, come to 3.52 u.nbytes on
    # 3D p3 curved meshes; a second copy of one side's face traces would
    # add 0.45
    mesh = build_mesh((4,) * 3, amplitude=0.1, geo_degree=geo)
    setup = build_setup(mesh, make_operator(3, family), gas)
    u = random_field(setup, gas, seed=3)
    ratio = setup_bytes(setup) / u.nbytes
    assert ratio <= 3.6, ratio


# --- scheme equivalences -----------------------------------------------------


@pytest.mark.parametrize("amplitude", [0.0, 0.2])
def test_strong_equals_weak_assembled(gas, amplitude):
    setup = lgl_setup(gas, dims=(3, 2), amplitude=amplitude)
    u = random_field(setup, gas, seed=3, amp=0.4)
    r_strong = rhs(u, setup, RhsConfig(volume_scheme="strong", surface_flux="llf"))
    r_weak = rhs(u, setup, RhsConfig(volume_scheme="weak", surface_flux="llf"))
    assert np.abs(r_strong - r_weak).max() < 1e-13


def test_central_fluxdiff_equals_strong_on_cartesian(gas):
    # the split matrix with the plain average collapses to the strong
    # derivative; on curved meshes the two differ at truncation order
    # because the metric average moves inside the product rule
    setup = lgl_setup(gas, dims=(3, 3))
    u = random_field(setup, gas, seed=4, amp=0.5)
    r_fd = rhs(u, setup, RhsConfig(volume_flux="central", surface_flux="central"))
    r_strong = rhs(u, setup, RhsConfig(volume_scheme="strong", surface_flux="central"))
    assert np.abs(r_fd - r_strong).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vol_flux", ["shima", "ranocha"])
def test_fluxdiff_matches_matrix_route(gas, d, vol_flux):
    setup = lgl_setup(gas, d=d, amplitude=0.15)
    u = random_field(setup, gas, seed=5, amp=0.4)
    mat = build_dsplit(setup.op)
    for e in range(min(2, setup.n_elements)):
        terms = element_metrics(setup.metrics, e)
        got = volume_fluxdiff(u[e], setup.op, terms, vol_flux, gas)
        want = matrix_route_fluxdiff(u[e], setup.op, mat, terms, vol_flux, gas)
        assert np.abs(got - want).max() < 1e-13


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("d,amplitude,geo", [(2, 0.0, None), (2, 0.15, 2), (3, 0.08, 1)])
def test_gauss_forms_agree(gas, d, amplitude, geo, p):
    # the whole gauss_fluxdiff volume term, all directions summed, against
    # the dense hybridized operator
    setup = gauss_setup(gas, d=d, amplitude=amplitude, geo_degree=geo, p=p)
    u = random_field(setup, gas, seed=6, amp=0.3)
    for vol_flux in ("shima", "ranocha", "central"):
        config = RhsConfig(volume_scheme="gauss_fluxdiff", volume_flux=vol_flux)
        got = np.zeros_like(u)
        want = np.zeros_like(u)
        for n, faces in enumerate(projected_faces(u, setup)):
            scalar_gauss_volume(u, faces, setup, n, config, got)
            want += gauss_volume_dense(u, faces, setup, n, vol_flux)
        assert relative_gap(want, got) < 1e-13, vol_flux


@pytest.mark.parametrize("vol_flux", ["shima", "ranocha", "central"])
@pytest.mark.parametrize("d", [2, 3])
def test_gauss_volume_forms_agree_per_element(gas, d, vol_flux):
    # the volume term of each direction and element alone, before the
    # surface term is added, on a curved mesh, sub-parametric and
    # isoparametric
    for geo in (SUB_PARAMETRIC_DEGREE, None):
        setup = gauss_setup(gas, d=d, amplitude=0.15, geo_degree=geo)
        u = random_field(setup, gas, seed=7, amp=0.3)
        config = RhsConfig(volume_scheme="gauss_fluxdiff", volume_flux=vol_flux)
        for n, faces in enumerate(projected_faces(u, setup)):
            got = np.zeros_like(u)
            scalar_gauss_volume(u, faces, setup, n, config, got)
            want = gauss_volume_dense(u, faces, setup, n, vol_flux)
            assert np.abs(want).max() > 1e-3
            for e in range(setup.n_elements):
                assert relative_gap(want[e], got[e]) < 1e-13, (geo, n, e)


@pytest.mark.parametrize("family", ["lgl", "gauss"])
def test_one_setup_serves_every_overint_degree(gas, family):
    # the fine degree comes from RhsConfig alone, so one Cartesian setup
    # runs q = p, p + 1 and 2p; at q = p the transfer is the identity and
    # overintegration is the weak form
    p = 3
    setup = build_setup(build_mesh((2, 2)), make_operator(p, family), gas)
    u = random_field(setup, gas, seed=10, amp=0.5)
    r_w = rhs(u, setup, RhsConfig(volume_scheme="weak", surface_flux="llf"))
    for q in (p, p + 1, 2 * p):
        cfg = RhsConfig(volume_scheme="overintegration", overint_degree=q, surface_flux="llf")
        got = rhs(u, setup, cfg)
        assert np.isfinite(got).all(), q
        gap = np.abs(got - r_w).max()
        if q == p:
            assert gap < 1e-14
        else:
            assert gap > 1e-10, q
        # the whole-mesh pass reads the mesh's metrics exactly as a
        # single-element call reads that element's
        vol = volume_overintegration(u, setup.op, q, setup.metrics, gas)
        for e in range(setup.n_elements):
            one = volume_overintegration(
                u[e], setup.op, q, element_metrics(setup.metrics, e), gas
            )
            assert np.array_equal(vol[e], one), (q, e)


def test_overintegration_dealiases_exactly(gas):
    # q = 2p integrates every flux product the projection can see; the
    # round trip back to the p grid must not disturb a degree-p field
    setup = lgl_setup(gas)
    u = random_field(setup, gas, seed=11, amp=0.3)
    got = volume_overintegration(u[0], setup.op, 6, element_metrics(setup.metrics, 0), gas)
    assert got.shape == u[0].shape
    assert np.isfinite(got).all()


# --- volume term structure ---------------------------------------------------


def summed_from_zero(volume, u, q, setup):
    """Oracle of the one-point volume sum: accumulate each direction's term
    onto zeros (strong adds D_n F^n, weak subtracts its weak-form matrix
    applied to F^n), then divide by J."""
    d = setup.d
    p1 = setup.op.n_nodes
    if volume is volume_strong:
        mat, sign = setup.op.D, 1.0
    else:
        w = setup.op.weights
        mat, sign = (setup.op.D.T * w[None, :]) / w[:, None], -1.0
    acc = np.zeros_like(u)
    shape = (-1,) + (p1,) * d + (d + 2,)
    for n in range(d):
        ja = node_ja(setup.metrics, n)
        contra = directional_flux(u.reshape(shape), q.reshape(shape), ja)
        term = geometry.apply_along(mat, contra, n + 1)
        if sign > 0:
            acc += term.reshape(u.shape)
        else:
            acc -= term.reshape(u.shape)
    return acc / setup.metrics.jac[..., None]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("amplitude", [0.0, 0.15])
@pytest.mark.parametrize("family", ["lgl", "gauss"])
def test_one_point_volume_whole_mesh_matches_elements(gas, family, amplitude, d):
    # one call batches every element into each matmul, reading the metric
    # store through node-layout views, a per-element call only that
    # element's lines and node-layout terms; the bytes agree with each other
    # and with the sum started from zeros, signed zeros included (a constant
    # state cancels to zero at many nodes)
    setup = (lgl_setup if family == "lgl" else gauss_setup)(gas, d=d, amplitude=amplitude)
    for u in (random_field(setup, gas, seed=12, amp=0.5), constant_field(setup, gas)):
        q = cons2prim(u, gas)
        for volume in (volume_strong, volume_weak):
            whole = volume(u, q, setup.op, setup.metrics)
            assert whole.tobytes() == summed_from_zero(volume, u, q, setup).tobytes()
            for e in range(setup.n_elements):
                one = volume(u[e], q[e], setup.op, element_metrics(setup.metrics, e))
                assert whole[e].tobytes() == one.tobytes(), (volume.__name__, e)


def overintegration_per_node(u, op, degree, metrics, gas):
    """volume_overintegration with the fine grid's metric terms repeated at
    every fine node, which keeps volume_weak in the directional form."""
    d = u.shape[-1] - 2
    q1 = degree + 1
    transfer = transfer_matrices(op.degree, degree, op.family)
    uq = u.reshape((-1,) + (op.n_nodes,) * d + (d + 2,))
    for n in range(d):
        uq = geometry.apply_along(transfer.interp, uq, n + 1)
    uq = uq.reshape(-1, q1**d, d + 2)
    fine = MetricTerms(
        np.broadcast_to(element_metrics(metrics, 0).ja[0], uq.shape[:2] + (d, d)),
        np.broadcast_to(metrics.jac[0, 0], uq.shape[:2]),
    )
    back = volume_weak(uq, cons2prim(uq, gas), make_operator(degree, op.family), fine)
    back = back.reshape((-1,) + (q1,) * d + (d + 2,))
    for n in range(d):
        back = geometry.apply_along(transfer.project, back, n + 1)
    return back.reshape(u.shape)


@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("dims", [(2, 3), (3, 1, 2)])
def test_constant_terms_view_the_metric_store(gas, dims, family):
    # the constant metric of a Cartesian mesh is read from the stored
    # terms, not copied: of a mesh's line store and of an element's
    # node-layout terms alike
    setup = build_setup(build_mesh(dims), make_operator(3, family), gas)
    terms = element_metrics(setup.metrics, 1)
    for metrics, store in ((setup.metrics, setup.metrics.line_ja), (terms, terms.ja)):
        const = _constant_terms(metrics)
        assert np.shares_memory(const.ja, store)
        assert np.array_equal(const.ja, terms.ja[0])
        assert const.jac == terms.jac[0]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("dims", [(2, 3), (3, 1, 2)])
def test_axis_one_point_volume_matches_directional(gas, dims, family, p):
    # on an anisotropic Cartesian mesh the constant metric terms take the
    # axis form (each direction its own (Ja)^n_n folded into the matrix);
    # the mesh's metric store takes the directional form, the oracle
    bounds = [(-5.0, 5.0), (0.0, 3.0), (-1.0, 1.5)][: len(dims)]
    mesh = build_mesh(dims, bounds=bounds)
    setup = build_setup(mesh, make_operator(p, family), gas)
    u = random_field(setup, gas, seed=13 + p, amp=0.4)
    q = cons2prim(u, gas)
    const = _constant_terms(setup.metrics)
    assert const.ja.shape == (setup.d, setup.d)
    for volume in (volume_strong, volume_weak):
        got = volume(u, q, setup.op, const)
        want = volume(u, q, setup.op, setup.metrics)
        assert relative_gap(want, got) < 1e-13, volume.__name__
    degree = p + 1
    got = volume_overintegration(u, setup.op, degree, setup.metrics, gas)
    want = overintegration_per_node(u, setup.op, degree, setup.metrics, gas)
    assert relative_gap(want, got) < 1e-13


@pytest.mark.parametrize("scheme", ["strong", "weak"])
def test_batched_one_point_volume_route(gas, monkeypatch, scheme):
    # with the surface coupling switched off rhs returns -VOL: on Cartesian
    # meshes the batched kernel reaches the axis form, never the
    # directional flux that the reference kernel runs; on curved meshes both
    # kernels run the directional form on node-layout views of the metric
    # store, to the last bit (a zero gap)
    monkeypatch.setattr(discretization, "surface_terms", lambda *args: args[-1])
    monkeypatch.setattr(discretization._batched, "mesh_surface", lambda *args: args[-1])
    curved = lgl_setup(gas, dims=(2, 3), amplitude=0.1)
    u = random_field(curved, gas, seed=17, amp=0.3)
    gap, _ = compare_kernels(u, curved, RhsConfig(volume_scheme=scheme))
    assert gap == 0.0

    def directional(*args):
        raise AssertionError("directional_flux called")

    monkeypatch.setattr(discretization, "directional_flux", directional)
    for family in ("lgl", "gauss"):
        setup = (lgl_setup if family == "lgl" else gauss_setup)(gas, dims=(2, 3))
        u = random_field(setup, gas, seed=18, amp=0.3)
        config = RhsConfig(volume_scheme=scheme)
        assert np.isfinite(rhs(u, setup, config)).all()
        with pytest.raises(AssertionError, match="directional_flux"):
            compare_kernels(u, setup, config)


def test_weak_volume_constant_state_lives_on_boundary(gas):
    setup = lgl_setup(gas)
    u = constant_field(setup, gas)
    terms = element_metrics(setup.metrics, 0)
    q = cons2prim(u[0], gas)
    vol = volume_weak(u[0], q, setup.op, terms)
    strong = volume_strong(u[0], q, setup.op, terms)
    # strong derivative of a constant flux is zero; the weak form keeps the
    # boundary part of the summation-by-parts identity
    assert np.abs(strong).max() < 1e-13
    p1 = setup.op.n_nodes
    interior = [
        i
        for i in range(setup.n_nodes)
        if 0 < i % p1 < p1 - 1 and 0 < i // p1 < p1 - 1
    ]
    assert np.abs(vol[interior]).max() < 1e-13
    assert np.abs(vol).max() > 1e-3
    # assembled against the surface term it cancels
    r = rhs(u, setup, RhsConfig(volume_scheme="weak", surface_flux="llf"))
    assert np.abs(r).max() < 1e-12


def test_surface_subtract_own_vanishes_for_constant(gas):
    setup = lgl_setup(gas, dims=(3, 3), amplitude=0.12)
    u = constant_field(setup, gas)
    bare = np.zeros_like(u)
    corrected = np.zeros_like(u)
    for n, faces in enumerate(face_states(u, cons2prim(u, gas), setup, False)):
        surface_terms(faces, setup, n, "ranocha", False, bare)
        surface_terms(faces, setup, n, "ranocha", True, corrected)
    assert np.abs(bare).max() > 1e-3
    assert np.abs(corrected).max() < 1e-13


# --- entropy projection ------------------------------------------------------


def test_entropy_projection_identity_on_lobatto(gas):
    setup = lgl_setup(gas)
    u = random_field(setup, gas, seed=12, amp=0.3)
    proj = projected_faces(u, setup)
    p1 = setup.op.n_nodes
    fn = p1 ** (setup.d - 1)
    # boundary interpolation picks off Lobatto face nodes, so projection
    # reduces to an entropy-variable round trip there
    for n, lines in enumerate(node_lines(p1, setup.d)):
        for side, col in ((0, 0), (1, -1)):
            face, q = proj[n][side]
            assert face.shape == q.shape == (setup.n_elements, fn, setup.d + 2)
            assert np.abs(face - u[:, lines[:, col]]).max() < 1e-11
            assert np.abs(q - cons2prim(face, gas)).max() < 1e-11


def test_entropy_projection_preserves_constants(gas):
    setup = gauss_setup(gas)
    u = constant_field(setup, gas)
    for sides in projected_faces(u, setup):
        for face, _q in sides:
            assert np.abs(face - u[0, 0]).max() < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_entropy_projection_matches_node_layout_formula(gas, d, p):
    """face_states(projected=True) runs one direction at a time in line
    layout, and its states are byte for byte those of the node-layout
    formula entropy2prim(einsum(moveaxis(prim2entropy(prim)))), conserved
    states by prim2cons of them, on flat, curved isoparametric, curved
    geo 1 and anisotropic meshes, with and without conserved states. Each
    face array is a view of one component-major block, so the lane rows
    batched reads from it are C-contiguous, and so are those of the plus
    side gathered through plus_neighbor."""
    meshes = (
        ((2,) * d, 0.0, None),
        ((2,) * d, 0.1, None),
        ((2,) * d, 0.1, 1),
        ((3, 1, 2)[:d], 0.1, None),
    )
    for dims, amplitude, geo in meshes:
        setup = gauss_setup(
            gas, d=d, dims=dims, amplitude=amplitude, geo_degree=geo, p=p
        )
        u = random_field(setup, gas, seed=20 + p, amp=0.3)
        prim = cons2prim(u, gas)
        shape = (setup.n_elements,) + (p + 1,) * d + (d + 2,)
        w = prim2entropy(prim, gas).reshape(shape)
        for conserved in (True, False):
            states = face_states(u, prim, setup, True, conserved)
            for n, sides in enumerate(states):
                moved = np.moveaxis(w, n + 1, -2)
                order = setup.plus_neighbor[n]
                for row, (face, q) in zip(setup.op.boundary_interp, sides):
                    trace = np.einsum("...kv,k->...v", moved, row)
                    want = entropy2prim(trace.reshape(q.shape), gas)
                    assert q.tobytes() == want.tobytes(), (dims, geo, n)
                    if conserved:
                        assert face.tobytes() == prim2cons(want, gas).tobytes()
                    else:
                        assert face is None
                    for arr in (q, face) if conserved else (q,):
                        assert batched._face_rows(arr).flags.c_contiguous
                        assert batched._face_rows(arr, order).flags.c_contiguous


PEP_VELOCITY = (0.3, -0.2, 0.1)


def pressure_equilibrium_field(setup, gas):
    """A smooth density wave carried by constant velocity and pressure (1):
    (conserved states, the velocity)."""
    d = setup.d
    q = np.empty((setup.n_elements, setup.n_nodes, d + 2))
    q[..., 0] = 1.0 + 0.5 * np.prod(np.sin(0.6 * setup.coords + 0.3), axis=-1)
    q[..., 1:-1] = PEP_VELOCITY[:d]
    q[..., -1] = 1.0
    return prim2cons(q, gas), np.asarray(PEP_VELOCITY[:d])


@pytest.mark.parametrize("kernel", ["reference", "batched"])
@pytest.mark.parametrize("surface", ["matching", "llf"])
@pytest.mark.parametrize("vol_flux", ["shima", "ranocha", "central"])
@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_lgl_fluxdiff_preserves_pressure_equilibrium(gas, d, curved, vol_flux, surface, kernel):
    """With constant velocity v and pressure, lgl flux differencing moves
    the density only: d(rho v)/dt = v drho/dt and dE/dt = |v|^2/2 drho/dt,
    so v and p stay constant, with every volume flux, a matching or llf
    surface flux, on flat and curved meshes."""
    setup = lgl_setup(gas, d=d, dims=(3,) * d, amplitude=0.1 if curved else 0.0)
    u, v = pressure_equilibrium_field(setup, gas)
    config = RhsConfig(
        volume_flux=vol_flux,
        surface_flux=vol_flux if surface == "matching" else surface,
        kernel=kernel,
    )
    dudt = rhs(u, setup, config)
    drho = dudt[..., :1]
    scale = np.abs(dudt).max()
    assert scale > 1e-2  # the density does move
    assert np.abs(dudt[..., 1:-1] - v * drho).max() < 1e-12 * scale
    assert np.abs(dudt[..., -1:] - 0.5 * (v @ v) * drho).max() < 1e-12 * scale


@pytest.mark.parametrize("curved", [False, True, "isoparametric"])
@pytest.mark.parametrize("d", [2, 3])
def test_entropy_projection_moves_face_pressure(gas, d, curved):
    """gauss_fluxdiff is not pressure-equilibrium preserving, and this is
    where it loses it: on a pressure-equilibrium state the entropy projection
    keeps the face velocity but moves the face pressure by several percent
    (it interpolates the entropy variables, which hold log rho), while the
    unprojected Gauss traces keep both to rounding. Curved meshes run
    sub-parametric (True) and isoparametric."""
    geo = SUB_PARAMETRIC_DEGREE if curved is True else None
    setup = gauss_setup(
        gas, d=d, dims=(3,) * d, amplitude=0.1 if curved else 0.0, geo_degree=geo
    )
    u, v = pressure_equilibrium_field(setup, gas)
    prim = cons2prim(u, gas)
    for projected, least, most in ((True, 1e-2, 1.0), (False, 0.0, 1e-14)):
        moved = 0.0
        for sides in face_states(u, prim, setup, projected):
            for _face, q in sides:
                assert np.abs(q[..., 1:-1] - v).max() < 1e-14
                moved = max(moved, np.abs(q[..., -1] - 1.0).max())
        assert least <= moved < most, projected


@pytest.mark.parametrize("d, amplitude, seed", [(2, 0.0, 0), (3, 0.0, 3), (3, 0.1, 1)])
def test_entropy_projection_reports_bad_face_state(gas, d, amplitude, seed):
    # every node admissible, but the oscillation is wild enough that the
    # interpolated entropy variables leave the admissible set at a face;
    # the error names element, face node, direction and side. In 3D the
    # face nodes form a 2D grid (the seeds name face nodes 14 and 6, off
    # its first row), which checks how a bad lane of the line-layout
    # projection maps back to its element and face node
    setup = gauss_setup(gas, d=d, amplitude=amplitude)
    u = random_field(setup, gas, seed=seed, amp=1.0)
    location = r"face state at element \d+, face node \d+ \(direction \d, side \d\)"
    with pytest.raises(AdmissibilityError, match=location) as info:
        projected_faces(u, setup)
    # the named face node really is the bad one
    e, m, n, side = (int(x) for x in re.findall(r"\d+", str(info.value))[:4])
    p1 = setup.op.n_nodes
    w = entropy_vars(u[e], gas).reshape((p1,) * setup.d + (-1,))
    row = setup.op.boundary_interp[side]
    w_face = np.einsum("...kv,k->...v", np.moveaxis(w, n, -2), row)
    assert not w_face.reshape(-1, setup.d + 2)[m, -1] < 0.0
    for kernel in ("reference", "batched"):
        config = RhsConfig(volume_scheme="gauss_fluxdiff", kernel=kernel)
        with pytest.raises(AdmissibilityError) as raised:
            rhs(u, setup, config)
        assert str(raised.value) == str(info.value), kernel


@pytest.mark.parametrize(
    "pressures, side", [((2.0, 1.0, 0.05), 1), ((0.05, 1.0, 2.0), 0)]
)
@pytest.mark.parametrize("scheme", ["strong", "weak"])
def test_gauss_trace_admissibility_names_owner(gas, scheme, pressures, side):
    # every node admissible, but one line's pressure extrapolates negative at
    # one end; both kernels name the element that owns the trace, the face
    # node and the side, also when the bad face is the plus side of an
    # interface (side 0), which the lane kernel reads in neighbour order
    setup = gauss_setup(gas, dims=(3, 3), p=2)
    q = cons2prim(constant_field(setup, gas), gas)
    line = node_lines(3, 2)[0][1]
    q[4, line, -1] = pressures
    u = prim2cons(q, gas)
    assert np.isfinite(cons2prim(u, gas)).all()
    location = (
        "interpolation produced an inadmissible face state at element 4, "
        "face node 1 (direction 0, side %d)" % side
    )
    messages = set()
    for kernel in ("reference", "batched"):
        config = RhsConfig(volume_scheme=scheme, surface_flux="llf", kernel=kernel)
        with pytest.raises(AdmissibilityError) as info:
            rhs(u, setup, config)
        messages.add(str(info.value))
    assert messages == {location}


@pytest.mark.parametrize("kernel", ["reference", "batched"])
@pytest.mark.parametrize(
    "family, scheme",
    [
        ("lgl", "fluxdiff"),
        ("lgl", "strong"),
        ("gauss", "weak"),
        ("gauss", "gauss_fluxdiff"),
    ],
)
def test_rhs_admissibility_gate_names_location(gas, kernel, family, scheme):
    setup = (lgl_setup if family == "lgl" else gauss_setup)(gas)
    u = constant_field(setup, gas)
    u[1, 2, -1] = 0.01  # energy below kinetic: negative pressure
    config = RhsConfig(volume_scheme=scheme, surface_flux="llf", kernel=kernel)
    with pytest.raises(AdmissibilityError, match="element 1, node 2"):
        rhs(u, setup, config)


# --- functionals -------------------------------------------------------------


def test_conserved_totals_constant_field(gas):
    setup = lgl_setup(gas, dims=(3, 2))
    u = constant_field(setup, gas)
    totals = conserved_totals(u, setup)
    assert np.abs(totals - 100.0 * u[0, 0]).max() < 1e-10


def test_error_norm_l2_constant_offset(gas):
    setup = lgl_setup(gas, dims=(3, 2))
    u = constant_field(setup, gas)
    shifted = u.copy()
    shifted[..., 0] += 0.25
    err = error_norm_l2(shifted, u, setup)
    assert err[0] == pytest.approx(0.25 * 10.0, rel=1e-12)
    assert np.abs(err[1:]).max() == 0.0


def test_entropy_rate_zero_field(gas):
    setup = lgl_setup(gas)
    u = constant_field(setup, gas)
    total, normalized = entropy_rate(u, np.zeros_like(u), setup)
    assert total == 0.0
    assert normalized == 0.0


def test_entropy_rate_sign_of_dissipative_flux(gas):
    # llf interface dissipation can only destroy entropy
    setup = lgl_setup(gas, dims=(3, 3), amplitude=0.1)
    u = random_field(setup, gas, seed=15, amp=0.3)
    r_ec = rhs(u, setup, RhsConfig())
    r_diss = rhs(u, setup, RhsConfig(surface_flux="llf"))
    total_ec, _ = entropy_rate(u, r_ec, setup)
    total_diss, _ = entropy_rate(u, r_diss, setup)
    assert abs(total_ec) < 1e-13
    assert total_diss < -1e-10


# --- reachability ------------------------------------------------------------

# production functions that no rhs call reaches, each with its reason; the
# batched sweep below must reach every other function of PRODUCTION_MODULES
PRODUCTION_MODULES = (
    batched, discretization, euler, fluxes, geometry, operators, timeint
)
NOT_REACHED_BY_RHS = {
    "discretization.conserved_totals": "diagnostic of a state (harness, verify)",
    "discretization.entropy_rate": "diagnostic of a state (harness, verify)",
    "discretization.error_norm_l2": "diagnostic of a state (harness)",
    "euler.entropy_vars": "entropy variables of conserved states, for entropy_rate",
    "euler.entropy_and_potential": "entropy and flux potential, for the entropy checks",
    "euler.entropy2cons": "inverse entropy map to conserved states (rhs maps back "
    "through entropy2prim); perfbench traces it as a span boundary",
    "fluxes.count_guard": "the counter guard, opened by callers that count work",
    "fluxes._stack": "the counter guard's per-thread stack",
    "timeint._butcher_rows": "import-time check of the RK54 coefficients",
    "timeint._check_order_conditions": "import-time check of the RK54 coefficients",
}
# the oracle's functions that no rhs call reaches
NOT_REACHED_BY_REFERENCE_RHS = {
    "reference.logmean_reference": "the log mean's textbook oracle, for verify "
    "and the tests; the flux kernels call logmean_optimized",
}


def defined_functions(modules):
    """"module.name" of every function the modules define, keyed by its code
    object; lru-cached and context-manager functions count as the function
    they wrap."""
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[fn.__code__] = "%s.%s" % (module.__name__.split(".")[-1], name)
    return found


def unreached(modules, sweep):
    """Names of the modules' functions that sweep() never calls. Every
    cache of operators, discretization and reference is emptied first, so
    the cached builders run inside the sweep whatever ran before it."""
    for module in (operators, discretization, reference):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    defined = defined_functions(modules)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sweep()
    finally:
        sys.setprofile(previous)
    return {name for code, name in defined.items() if code not in called}


def rhs_sweep(kernel):
    """rhs with `kernel` over dimension, family, flat and curved meshes
    (sub-parametric and isoparametric), every volume scheme and every
    surface flux, at p = 2."""
    cases = rhs_cases(((2, 2), (2, 2, 2)), (2,), volume_fluxes=("ranocha",), seeds=(12,))
    for case in cases:
        setup = case.setup()
        u = case.field(setup, 0.3)
        assert np.isfinite(rhs(u, setup, replace(case.config, kernel=kernel))).all()
    assert {case.config.volume_scheme for case in cases} == set(VOLUME_SCHEMES)


def test_batched_rhs_reaches_every_production_function(gas):
    """Sweeping the default rhs (kernel="batched") and one integrate step
    calls every function of the production modules apart from the named
    diagnostics, the counter guard and the import-time RK checks: they hold
    no code that rhs never reaches, and the allow-list holds no stale
    entry."""

    def sweep():
        rhs_sweep(kernel="batched")
        setup = lgl_setup(gas, dims=(2, 2), p=2)

        def dt_fn(u, t):
            return stable_dt(u, setup.mesh, setup.metrics, gas, 2, StepController())

        u0 = random_field(setup, gas, seed=12, amp=0.3)
        integrate(u0, lambda u, t: rhs(u, setup, RhsConfig()), n_steps=1, dt_fn=dt_fn)

    missing = unreached(PRODUCTION_MODULES, sweep)
    assert missing == set(NOT_REACHED_BY_RHS), sorted(missing ^ set(NOT_REACHED_BY_RHS))


def test_reference_rhs_reaches_every_oracle_function(gas):
    """Sweeping rhs(kernel="reference") calls every function of
    fluxdg.reference but the log mean's own oracle: the scalar oracle holds
    no code that its rhs never reaches."""
    missing = unreached((reference,), lambda: rhs_sweep(kernel="reference"))
    assert missing == set(NOT_REACHED_BY_REFERENCE_RHS), sorted(missing)
