import inspect
import re
import sys
from itertools import product

import numpy as np
import pytest

from fluxdg import fluxes, geometry
from fluxdg import (
    FluxCounter,
    RhsConfig,
    build_mesh,
    build_setup,
    conserved_totals,
    count_guard,
    entropy_rate,
    error_norm_l2,
    flux_function,
    make_operator,
    prim2cons,
    rhs,
)
from fluxdg.discretization import (
    VOLUME_SCHEMES,
    _scalar_gauss_volume,
    face_states,
    surface_terms,
    volume_fluxdiff,
    volume_overintegration,
    volume_strong,
    volume_weak,
)
from fluxdg.errors import AdmissibilityError, ConfigurationError
from fluxdg.euler import cons2prim, entropy_vars
from fluxdg.fluxes import SURFACE_KINDS
from fluxdg.geometry import element_metrics
from fluxdg.operators import node_lines

from .conftest import random_field
from .oracles import gauss_volume_dense


def lgl_setup(gas, d=2, dims=None, amplitude=0.0, p=3, **kw):
    mesh = build_mesh(dims or (2,) * d, amplitude=amplitude)
    return build_setup(mesh, make_operator(p, "lgl"), gas, **kw)


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


def matrix_route_fluxdiff(u_elem, dop, metrics, vol_flux, gas):
    """Volume term assembled directly from the split matrix: every ordered
    node pair (i, k) contributes D_split[i,k] F(u_i, u_k, mean metric). The
    production kernel visits unordered pairs once and scatters both weights;
    the two readings must agree up to summation order."""
    op = dop.op
    mat = dop.matrix
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
    # setup must have been built for the requested fine degree
    with pytest.raises(ConfigurationError, match="overint_degree"):
        RhsConfig(volume_scheme="overintegration", overint_degree=5).validate(plain)
    curved = lgl_setup(gas, amplitude=0.2)
    with pytest.raises(ConfigurationError, match="volume_scheme"):
        RhsConfig(volume_scheme="overintegration", overint_degree=5).validate(curved)
    ready = lgl_setup(gas, overint_degree=5)
    RhsConfig(volume_scheme="overintegration", overint_degree=5).validate(ready)


def test_build_setup_rejects_low_overint_degree(gas):
    mesh = build_mesh((2, 2))
    with pytest.raises(ConfigurationError, match="overint_degree"):
        build_setup(mesh, make_operator(3, "lgl"), gas, overint_degree=2)


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
    for e in range(min(2, setup.n_elements)):
        terms = element_metrics(setup.metrics, e)
        got = volume_fluxdiff(u[e], setup.dsplit, terms, vol_flux, gas)
        want = matrix_route_fluxdiff(u[e], setup.dsplit, terms, vol_flux, gas)
        assert np.abs(got - want).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vol_flux", ["shima", "ranocha"])
def test_fluxdiff_free_stream_curved(gas, d, vol_flux):
    setup = lgl_setup(gas, d=d, dims=(3,) * d, amplitude=0.12)
    u = constant_field(setup, gas)
    cfg = RhsConfig(volume_flux=vol_flux, surface_flux=vol_flux)
    assert np.abs(rhs(u, setup, cfg)).max() < 1e-12


def _relative_gap(a, b):
    return float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max()))


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
            _scalar_gauss_volume(u, faces, setup, n, config, got)
            want += gauss_volume_dense(u, faces, setup, n, vol_flux)
        assert _relative_gap(got, want) < 1e-13, vol_flux


@pytest.mark.parametrize("vol_flux", ["shima", "ranocha", "central"])
@pytest.mark.parametrize("d", [2, 3])
def test_gauss_volume_forms_agree_per_element(gas, d, vol_flux):
    # the volume term of each direction and element alone, before the
    # surface term is added
    setup = gauss_setup(gas, d=d, amplitude=0.15, geo_degree=2 if d == 2 else 1)
    u = random_field(setup, gas, seed=7, amp=0.3)
    config = RhsConfig(volume_scheme="gauss_fluxdiff", volume_flux=vol_flux)
    for n, faces in enumerate(projected_faces(u, setup)):
        got = np.zeros_like(u)
        _scalar_gauss_volume(u, faces, setup, n, config, got)
        want = gauss_volume_dense(u, faces, setup, n, vol_flux)
        assert np.abs(want).max() > 1e-3
        for e in range(setup.n_elements):
            assert _relative_gap(got[e], want[e]) < 1e-13, (n, e)


def test_overintegration_at_p_equals_weak(gas):
    setup = lgl_setup(gas, dims=(2, 2), overint_degree=3)
    u = random_field(setup, gas, seed=10, amp=0.5)
    r_w = rhs(u, setup, RhsConfig(volume_scheme="weak", surface_flux="llf"))
    cfg = RhsConfig(volume_scheme="overintegration", overint_degree=3, surface_flux="llf")
    assert np.abs(rhs(u, setup, cfg) - r_w).max() < 1e-14


def test_overintegration_dealiases_exactly(gas):
    # q = 2p integrates every flux product the projection can see; the
    # round trip back to the p grid must not disturb a degree-p field
    setup = lgl_setup(gas, overint_degree=6)
    op_q, transfer, metrics_q = setup.overint
    u = random_field(setup, gas, seed=11, amp=0.3)
    got = volume_overintegration(u[0], setup.op, transfer, metrics_q, gas)
    assert got.shape == u[0].shape
    assert np.isfinite(got).all()


# --- volume term structure ---------------------------------------------------


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


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_entropy_projection_moves_face_pressure(gas, d, curved):
    """gauss_fluxdiff is not pressure-equilibrium preserving, and this is
    where it loses it: on a pressure-equilibrium state the entropy projection
    keeps the face velocity but moves the face pressure by several percent
    (it interpolates the entropy variables, which hold log rho), while the
    unprojected Gauss traces keep both to rounding."""
    geo = (2 if d == 2 else 1) if curved else None
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


def test_entropy_projection_reports_bad_face_state(gas):
    # every node admissible, but the oscillation is wild enough that the
    # interpolated entropy variables leave the admissible set at a face;
    # the error names element, face node, direction and side
    setup = gauss_setup(gas)
    u = random_field(setup, gas, seed=0, amp=1.0)
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
        with pytest.raises(AdmissibilityError, match=location):
            rhs(u, setup, RhsConfig(volume_scheme="gauss_fluxdiff", kernel=kernel))


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
    line = setup.lines[0][1]
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


# --- evaluation counting -----------------------------------------------------


def test_volume_evaluation_counts(gas):
    p = 3
    q = 5
    d = 2
    setup = lgl_setup(gas, d=d, p=p, overint_degree=q)
    u = random_field(setup, gas, seed=13, amp=0.4)
    terms = element_metrics(setup.metrics, 0)
    nn = (p + 1) ** d

    c = FluxCounter()
    with count_guard(c):
        volume_strong(u[0], cons2prim(u[0], gas), setup.op, terms)
    assert c.one_point_evals == d * nn
    assert c.two_point_evals == 0

    c = FluxCounter()
    with count_guard(c):
        volume_weak(u[0], cons2prim(u[0], gas), setup.op, terms)
    assert c.one_point_evals == d * nn

    c = FluxCounter()
    with count_guard(c):
        volume_fluxdiff(u[0], setup.dsplit, terms, "ranocha", gas)
    assert c.two_point_evals == d * p * nn // 2
    assert c.logmean_evals == 2 * c.two_point_evals

    op_q, transfer, metrics_q = setup.overint
    c = FluxCounter()
    with count_guard(c):
        volume_overintegration(u[0], setup.op, transfer, metrics_q, gas)
    assert c.one_point_evals == d * (q + 1) ** d


def test_rhs_counter_argument(gas):
    setup = lgl_setup(gas)
    u = random_field(setup, gas, seed=14, amp=0.4)
    c = FluxCounter()
    rhs(u, setup, RhsConfig(), counter=c)
    p, d = 3, 2
    per_elem = d * p * (p + 1) ** d // 2
    n_faces = setup.n_elements * d * (p + 1) ** (d - 1)
    assert c.two_point_evals == setup.n_elements * per_elem + n_faces


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


def test_reference_rhs_reaches_every_flux_and_geometry_function(gas):
    """Building meshes and setups and sweeping rhs(kernel="reference") over
    dimension, family, mesh, volume scheme and surface flux calls every
    function defined in fluxdg.fluxes and fluxdg.geometry: the oracle's
    modules hold no flux form or geometry helper that rhs never reaches."""
    defined = {
        fn.__code__: module.__name__ + "." + name
        for module in (fluxes, geometry)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
    }
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    ran = set()
    p = 1
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for d, family, amplitude in product((2, 3), ("lgl", "gauss"), (0.0, 0.1)):
            curved_gauss = family == "gauss" and amplitude > 0.0
            geo = (2 if d == 2 else 1) if curved_gauss else None
            mesh = build_mesh((2,) * d, amplitude=amplitude, geo_degree=geo)
            overint = p + 1 if amplitude == 0.0 else None
            op = make_operator(p, family)
            setup = build_setup(mesh, op, gas, overint_degree=overint)
            u = random_field(setup, gas, seed=12, amp=0.3)
            for scheme, kind in product(VOLUME_SCHEMES, SURFACE_KINDS):
                config = RhsConfig(
                    volume_scheme=scheme, surface_flux=kind, overint_degree=p + 1
                )
                try:
                    config.validate(setup)
                except ConfigurationError:
                    continue  # scheme not defined for this family or mesh
                dudt = rhs(u, setup, config, counter=FluxCounter())
                assert np.isfinite(dudt).all()
                ran.add(scheme)
    finally:
        sys.setprofile(previous)
    assert ran == set(VOLUME_SCHEMES)
    missing = sorted(name for code, name in defined.items() if code not in called)
    assert not missing, missing
