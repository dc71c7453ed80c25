import inspect
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest

from fluxdg import batched, discretization, euler
from fluxdg import (
    FluxCounter,
    RhsConfig,
    build_mesh,
    build_setup,
    count_guard,
    make_operator,
    prim2cons,
    rhs,
)
from fluxdg.batched import inv_logmean_batched, logmean_batched, mesh_fluxdiff_volume
from fluxdg.discretization import KERNELS, VOLUME_SCHEMES, volume_fluxdiff
from fluxdg.errors import ConfigurationError
from fluxdg.euler import cons2prim
from fluxdg.fluxes import SURFACE_KINDS, flux_function
from fluxdg.geometry import element_metrics
from fluxdg.means import logmean_optimized, inv_logmean_optimized
from fluxdg.operators import hybridized_scatter, node_lines
from fluxdg.verify import random_field, random_primitives, relative_gap



def make_setup(gas, d=2, p=3, amplitude=0.0, geo_degree=None, family="lgl", dims=None):
    mesh = build_mesh(dims or (2,) * d, amplitude=amplitude, geo_degree=geo_degree)
    return build_setup(mesh, make_operator(p, family), gas)


def test_branchless_logmean_matches_scalar():
    rng = np.random.default_rng(3)
    a = 1.0 + rng.random(64)
    b = a.copy()
    # half the lanes sit deep in the series regime, half far outside it
    b[:32] *= 1.0 + 1e-9 * rng.standard_normal(32)
    b[32:] *= 1.0 + 2.0 * rng.random(32)
    got = logmean_batched(a, b)
    inv = inv_logmean_batched(a, b)
    for i in range(64):
        want = logmean_optimized(a[i], b[i])
        assert abs(got[i] - want) < 5e-16 * want
        assert abs(inv[i] - inv_logmean_optimized(a[i], b[i])) < 5e-16 / want


def _volume_against_oracle(setup, u, vol_flux):
    """mesh_fluxdiff_volume against volume_fluxdiff stacked over the mesh,
    with the (two-point, log-mean) counts of each."""
    want_c = FluxCounter()
    with count_guard(want_c):
        want = np.stack(
            [
                volume_fluxdiff(
                    u[e], setup.op, element_metrics(setup.metrics, e), vol_flux,
                    setup.gas,
                )
                for e in range(setup.n_elements)
            ]
        )
    got_c = FluxCounter()
    with count_guard(got_c):
        got = mesh_fluxdiff_volume(
            u, cons2prim(u, setup.gas), setup, RhsConfig(volume_flux=vol_flux)
        )
    assert np.abs(got - want).max() < 1e-13
    assert (got_c.two_point_evals, got_c.logmean_evals) == (
        want_c.two_point_evals,
        want_c.logmean_evals,
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vol_flux", ["shima", "ranocha", "central"])
@pytest.mark.parametrize("amplitude", [0.0, 0.15])
def test_element_volume_matches_scalar(gas, d, vol_flux, amplitude):
    setup = make_setup(gas, d=d, amplitude=amplitude)
    u = random_field(setup, gas, seed=5, amp=0.5)
    _volume_against_oracle(setup, u, vol_flux)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_element_volume_matches_scalar_across_degrees(gas, p):
    setup = make_setup(gas, d=2, p=p, amplitude=0.12)
    u = random_field(setup, gas, seed=7, amp=0.4)
    _volume_against_oracle(setup, u, "ranocha")


@pytest.mark.parametrize(
    "family,scheme",
    [
        ("lgl", "fluxdiff"),
        ("gauss", "gauss_fluxdiff"),
    ],
)
@pytest.mark.parametrize("d", [2, 3])
def test_mesh_rhs_matches_reference_kernel(gas, family, scheme, d):
    geo = None
    amplitude = 0.12 if d == 2 else 0.08
    if family == "gauss":
        geo = 2 if d == 2 else 1
    setup = make_setup(
        gas, d=d, dims=(3,) * d, amplitude=amplitude, geo_degree=geo, family=family
    )
    u = random_field(setup, gas, seed=8, amp=0.3)
    base = RhsConfig(volume_scheme=scheme, volume_flux="ranocha", surface_flux="ranocha")
    u_before = u.copy()
    want = rhs(u, setup, base)
    batched_config = RhsConfig(
        volume_scheme=scheme,
        volume_flux="ranocha",
        surface_flux="ranocha",
        kernel="batched",
    )
    got = rhs(u, setup, batched_config)
    assert np.abs(got - want).max() < 1e-13
    # rhs works in buffers of its own: a second call returns a new array
    # with the same values and leaves u alone
    again = rhs(u, setup, batched_config)
    assert not np.shares_memory(again, got)
    assert np.array_equal(again, got)
    assert np.array_equal(u, u_before)


def test_mesh_rhs_cartesian_matches_reference_kernel(gas):
    setup = make_setup(gas, d=2, dims=(4, 4))
    u = random_field(setup, gas, seed=9, amp=0.5)
    for surface in ("ranocha", "llf", "hll"):
        want = rhs(u, setup, RhsConfig(surface_flux=surface))
        got = rhs(u, setup, RhsConfig(surface_flux=surface, kernel="batched"))
        assert np.abs(got - want).max() < 1e-13, surface


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_tensor_lanes_follow_node_lines(gas, d, p):
    """The lane kernels take node lines as tensor axes, the scalar path as
    index arrays (operators.node_lines): both must see the same lanes in
    the same order. Row [k, a] of a direction's transposed copy is
    component k at line position a of every (element, line) lane; the
    Lobatto face states are the lines' first and last nodes in line
    order."""
    dims = (2, 3) if d == 2 else (2, 1, 3)
    setup = make_setup(gas, d=d, p=p, dims=dims)
    rng = np.random.default_rng(p)
    arr = rng.random((setup.n_elements, setup.n_nodes, d + 2))
    faces = discretization.face_states(arr, 2.0 * arr, setup, False)
    # one buffer refilled direction after direction, as mesh_fluxdiff_volume
    # does: after each refill it must hold exactly what a fresh buffer gets,
    # so no row of the previous direction goes stale
    shared = batched._line_buffer(setup, d + 2)
    shared.fill(np.nan)
    for n, ((u0, q0), (u1, q1)) in enumerate(faces):
        lines = node_lines(p + 1, d)[n]
        rows = batched._line_rows(arr, setup, n, shared)
        fresh = batched._line_rows(arr, setup, n, batched._line_buffer(setup, d + 2))
        assert rows is shared
        assert np.array_equal(rows, fresh), n
        assert rows.shape == (d + 2, p + 1, setup.n_elements * lines.shape[0])
        assert rows.flags.c_contiguous
        for a in range(p + 1):
            want = np.moveaxis(arr[:, lines[:, a]], -1, 0).reshape(d + 2, -1)
            assert np.array_equal(rows[:, a], want), (n, a)
        assert np.array_equal(u0, arr[:, lines[:, 0]])
        assert np.array_equal(u1, arr[:, lines[:, -1]])
        assert np.array_equal(q1, 2.0 * arr[:, lines[:, -1]])


@pytest.mark.parametrize("form", ["cartesian", "directional"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", SURFACE_KINDS)
def test_lane_kernels_fill_the_given_block(gas, kind, d, form):
    """Every lane kernel writes its d+2 flux rows into the block it is
    given, whatever its strides, returns that block, and computes there
    exactly what it computes in a block of its own. The conserved blocks
    are strided views, rows of a transposed (lanes, d+2) array as the
    minus-side face lanes are, and no kernel writes into either side's
    states: the axis form takes v.n as the velocity row v_j of the states
    themselves, which llf and hll only read."""
    n = 41
    rng = np.random.default_rng(19)
    prims = [random_primitives(rng, d, n, amp=0.5) for _ in range(2)]
    for q in prims:  # a third of the lanes supersonic each way (hll upwinding)
        q[: n // 3, 1:-1] += 3.0
        q[n // 3 : 2 * n // 3, 1:-1] -= 3.0
    cons = [prim2cons(q, gas) for q in prims]
    ql, qr = (
        batched.Lanes(q[:, 0], tuple(q[:, 1:-1].T), q[:, -1], c.T)
        for q, c in zip(prims, cons)
    )
    assert ql.u.shape == (d + 2, n) and not ql.u.flags.c_contiguous
    states_before = [(q.tobytes(), c.tobytes()) for q, c in zip(prims, cons)]
    if form == "cartesian":
        fn, geometry = batched.flux_lanes_cartesian, d - 1
        normals = np.broadcast_to(np.eye(d)[d - 1], (n, d))
    else:
        fn, geometry = batched.flux_lanes_directional, tuple(rng.random((d, n)) + 0.25)
        normals = np.transpose(geometry)
    big = np.full((d + 4, 2 * n + 1), np.nan)
    block = big[1:-1, 1::2]
    assert block.shape == (d + 2, n) and not block.flags.c_contiguous
    got = fn(kind, ql, qr, geometry, gas, n, block)
    assert got is block
    assert not np.isnan(block).any()
    # nothing outside the block is written
    assert np.isnan(big[[0, -1]]).all() and np.isnan(big[:, ::2]).all()
    assert np.array_equal(got, fn(kind, ql, qr, geometry, gas, n))
    assert [(q.tobytes(), c.tobytes()) for q, c in zip(prims, cons)] == states_before
    scalar = flux_function(kind)
    for i in range(n):
        want = np.asarray(scalar(cons[0][i], cons[1][i], normals[i], gas))
        assert np.abs(got[:, i] - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("dims", [(1, 3), (3, 1, 2)])
@pytest.mark.parametrize("family", ["lgl", "gauss"])
def test_lift_matches_face_point_loop(gas, family, dims, curved):
    """_lift against a loop over face points: face point m of element e
    (line m of direction n, lanes in minus-element order) adds its minus
    flux into e and subtracts its plus flux from plus_neighbor[n][e], on
    the line's last node (Lobatto) or on every node through the boundary
    interpolation rows (Gauss), divided by the Jacobian. All minus-side
    updates come first, as in _lift. On Cartesian meshes the fluxes are
    the unscaled axis form and the lift multiplies in the face area of
    _face_geometry, with the constant Jacobian, as area / (w J)."""
    d = len(dims)
    geo = (2 if d == 2 else 1) if family == "gauss" and curved else None
    mesh = build_mesh(dims, amplitude=0.1 if curved else 0.0, geo_degree=geo)
    op = make_operator(2, family)
    setup = build_setup(mesh, op, gas)
    jac = setup.metrics.jac
    w1d = op.weights
    rng = np.random.default_rng(23)
    start = rng.standard_normal((setup.n_elements, setup.n_nodes, d + 2))
    for n in range(d):
        nb = setup.plus_neighbor[n]
        if dims[n] == 1:
            assert np.array_equal(nb, np.arange(setup.n_elements))
        lines = node_lines(op.n_nodes, d)[n]
        n_face = lines.shape[0]
        fm, fp = rng.standard_normal((2, d + 2, setup.n_elements * n_face))
        area, normal = batched._face_geometry(setup, n)
        assert (normal is None) == (not curved)
        got = start.copy()
        batched._lift(got, setup, n, fm.copy(), fp.copy())
        want = start.copy()
        for side, row, sign in ((fm, 1, 1.0), (fp, 0, -1.0)):
            for e, m in product(range(setup.n_elements), range(n_face)):
                target = e if row == 1 else nb[e]
                flux = side[:, e * n_face + m]
                for a in range(op.n_nodes):
                    node = lines[m, a]
                    if family == "lgl":
                        if a != (op.n_nodes - 1 if row == 1 else 0):
                            continue
                        if curved:
                            term = flux / (w1d[a] * jac[target, node])
                        else:
                            term = flux * (area / (w1d[a] * jac[target, node]))
                    else:
                        lift = op.boundary_interp[row][a] / w1d[a]
                        if curved:
                            term = (lift * flux) / jac[target, node]
                        else:
                            term = (lift * (area / jac[target, node])) * flux
                    want[target, node] += sign * term
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("dims", [(1, 3), (3, 1, 2)])
def test_gauss_side_blocks_are_what_lift_lifts(gas, dims, curved):
    """mesh_gauss_surface hands mesh_gauss_volume the interface fluxes in
    element order: side 1 the flux of each element's +1 face (the minus
    side), side 0 the negated flux of its -1 face, gathered from the
    neighbour whose plus side it is. On Cartesian meshes both blocks carry
    the face area times the axis flux. Lifted through the rows
    boundary_interp / weights and divided by J, they reproduce _lift."""
    d = len(dims)
    geo = (2 if d == 2 else 1) if curved else None
    mesh = build_mesh(dims, amplitude=0.1 if curved else 0.0, geo_degree=geo)
    setup = build_setup(mesh, make_operator(2, "gauss"), gas)
    op = setup.op
    u = random_field(setup, gas, seed=24, amp=0.3)
    lift = op.boundary_interp / op.weights
    faces_by_n = discretization.face_states(u, cons2prim(u, gas), setup, True)
    for n, faces in enumerate(faces_by_n):
        side0, side1 = batched.mesh_gauss_surface(faces, setup, n, "llf")
        ql, qr = batched._interface_lanes(faces, setup, n, True)
        scale, normal = batched._face_geometry(setup, n)
        assert (normal is None) == (not curved)
        if curved:
            f = batched.flux_lanes_directional("llf", ql, qr, normal, gas, ql.rho.size)
        else:
            f = batched.flux_lanes_cartesian("llf", ql, qr, n, gas, ql.rho.size)
        assert np.array_equal(side1, scale * f)
        want = np.zeros_like(u)
        batched._lift(want, setup, n, f, f.copy())
        got = np.zeros_like(u)
        view = batched._line_major(got, setup, n)
        jac = batched._line_major(setup.metrics.jac[..., None], setup, n)[0]
        for s, block in enumerate((side0, side1)):
            block = block.reshape(view[:, 0].shape)
            for a in range(op.n_nodes):
                view[:, a] += lift[s, a] * block / jac[a]
        assert relative_gap(want, got) < 1e-13, n


@pytest.mark.parametrize("vol_flux", ["central", "ranocha"])
@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("dims", [(1, 1), (1, 3), (1, 1, 1), (3, 1, 2)])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("family,scheme", [("lgl", "fluxdiff"), ("gauss", "gauss_fluxdiff")])
def test_two_point_schemes_match_reference_on_edge_meshes(
    gas, family, scheme, p, dims, curved, vol_flux
):
    """Batched against reference rhs for the two-point schemes where the
    node and face bookkeeping is most fragile: p = 1, one element along a
    direction (the element is its own plus neighbour, so the minus and plus
    lifts land in the same element), non-cubic meshes, flat and curved
    metrics, and the conserved-lane path of the central volume flux."""
    d = len(dims)
    geo = (2 if d == 2 else 1) if family == "gauss" and curved else None
    mesh = build_mesh(dims, amplitude=0.1 if curved else 0.0, geo_degree=geo)
    setup = build_setup(mesh, make_operator(p, family), gas)
    for n in range(d):
        if dims[n] == 1:
            assert np.array_equal(setup.plus_neighbor[n], np.arange(setup.n_elements))
    u = random_field(setup, gas, seed=15, amp=0.3)
    results = {}
    for kernel in KERNELS:
        config = RhsConfig(
            volume_scheme=scheme, volume_flux=vol_flux, surface_flux="llf", kernel=kernel
        )
        c = FluxCounter()
        with count_guard(c):
            dudt = rhs(u, setup, config)
        results[kernel] = dudt, (c.two_point_evals, c.logmean_evals)
    (ref, ref_counts), (bat, bat_counts) = results["reference"], results["batched"]
    assert relative_gap(ref, bat) < 1e-13
    # mesh_gauss_surface evaluates each face flux twice (see
    # test_gauss_entropy_conservative_counts)
    face_points = d * setup.n_elements * (p + 1) ** (d - 1)
    extra = face_points if family == "gauss" else 0
    assert bat_counts == (ref_counts[0] + extra, ref_counts[1])


def test_batched_counts_match_scalar_counts(gas):
    setup = make_setup(gas, d=3, amplitude=0.1)
    u = random_field(setup, gas, seed=10, amp=0.3)
    counts = {}
    for kernel in ("reference", "batched"):
        c = FluxCounter()
        with count_guard(c):
            rhs(u, setup, RhsConfig(kernel=kernel))
        counts[kernel] = (c.two_point_evals, c.one_point_evals, c.logmean_evals)
    assert counts["reference"] == counts["batched"]


@pytest.mark.parametrize("elements", [1, 3])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("kind", SURFACE_KINDS)
@pytest.mark.parametrize("scheme", ["strong", "weak", "overintegration"])
@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("d", [2, 3])
def test_one_point_schemes_match_reference(gas, d, family, scheme, kind, p, elements):
    overint = None
    amplitude = 0.1
    geo = None if family == "lgl" else (2 if d == 2 else 1)
    if scheme == "overintegration":  # Cartesian meshes only
        overint = p + 1
        amplitude = 0.0
        geo = None
    mesh = build_mesh((elements,) * d, amplitude=amplitude, geo_degree=geo)
    setup = build_setup(mesh, make_operator(p, family), gas)
    u = random_field(setup, gas, seed=11, amp=0.3)
    results = {}
    for kernel in KERNELS:
        config = RhsConfig(
            volume_scheme=scheme,
            surface_flux=kind,
            overint_degree=overint,
            kernel=kernel,
        )
        c = FluxCounter()
        with count_guard(c):
            dudt = rhs(u, setup, config)
        results[kernel] = dudt, (c.two_point_evals, c.one_point_evals, c.logmean_evals)
    (ref, ref_counts), (bat, bat_counts) = results["reference"], results["batched"]
    assert relative_gap(ref, bat) < 1e-13
    assert ref_counts == bat_counts
    # the interface flux is these schemes' only two-point work, one
    # evaluation per face point on both families
    assert bat_counts[0] == d * setup.n_elements * (p + 1) ** (d - 1)


def _supersonic_field(setup, dims, gas, seed):
    """A random field, discontinuous at every interface, whose velocity
    component n is 2.5 plus jitter, signed by the parity of the element's
    indices in the other directions: the two sides of a direction-n face
    share the sign, the sign alternates between neighbouring rows of
    elements, and the sound speed stays below 1.7, so the interfaces are
    supersonic both ways. The sign is constant on each element, which keeps
    the Gauss traces admissible."""
    rng = np.random.default_rng(seed)
    d = setup.d
    index = np.array(np.unravel_index(np.arange(setup.n_elements), dims))
    parity = (index.sum(axis=0) - index) % 2
    sign = np.repeat(1.0 - 2.0 * parity.T, setup.n_nodes, axis=0)
    n = len(sign)
    q = np.empty((n, d + 2))
    q[:, 0] = 1.0 + 0.2 * rng.random(n)
    q[:, 1 : d + 1] = sign * (2.5 + 0.2 * (rng.random((n, d)) - 0.5))
    q[:, d + 1] = 1.0 + rng.random(n)
    return prim2cons(q, gas).reshape(setup.n_elements, setup.n_nodes, d + 2)


def _upwind_face_points(u, setup, gas):
    """(face points, points with S_l >= 0, points with S_r <= 0) for the
    Davis bounds between each interface's two traces."""
    counts = np.zeros(3, dtype=int)
    faces = discretization.face_states(u, cons2prim(u, gas), setup, False)
    for n, ((_, q0), (_, q1)) in enumerate(faces):
        normal = setup.metrics.face_ja[n][1]
        norm = np.linalg.norm(normal, axis=-1)
        vn, cn = [], []
        for q in (q1, q0[setup.plus_neighbor[n]]):
            vn.append((q[..., 1:-1] * normal).sum(axis=-1))
            cn.append(np.sqrt(gas.gamma * q[..., -1] / q[..., 0]) * norm)
        s_l = np.minimum(vn[0] - cn[0], vn[1] - cn[1])
        s_r = np.maximum(vn[0] + cn[0], vn[1] + cn[1])
        counts += (norm.size, np.count_nonzero(s_l >= 0.0), np.count_nonzero(s_r <= 0.0))
    return counts


@pytest.mark.parametrize("kind", SURFACE_KINDS)
@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("d", [2, 3])
def test_strong_form_matches_reference_across_supersonic_jumps(gas, d, family, kind):
    """The strong form's f_num - f(own face state) on interfaces with jumps
    and supersonic flow both ways, so both hll upwind branches fire and a
    mix-up of the two sides' own fluxes shows: batched equals the scalar
    oracle with equal counts, and the strong form counts two one-point
    evaluations per face point on top of the volume's d per node."""
    geo = None if family == "lgl" else (2 if d == 2 else 1)
    dims, p = ((4, 4), 3) if d == 2 else ((2, 2, 2), 2)
    setup = make_setup(
        gas, d=d, p=p, amplitude=0.1, geo_degree=geo, family=family, dims=dims
    )
    u = _supersonic_field(setup, dims, gas, seed=13)
    n_face, left, right = _upwind_face_points(u, setup, gas)
    assert min(left, right) >= n_face / 3
    for scheme, surface_one_point in (("strong", 2 * n_face), ("weak", 0)):
        results = {}
        for kernel in KERNELS:
            config = RhsConfig(volume_scheme=scheme, surface_flux=kind, kernel=kernel)
            c = FluxCounter()
            with count_guard(c):
                dudt = rhs(u, setup, config)
            results[kernel] = dudt, (c.two_point_evals, c.one_point_evals, c.logmean_evals)
        (ref, ref_counts), (bat, bat_counts) = results["reference"], results["batched"]
        assert relative_gap(ref, bat) < 1e-13
        assert ref_counts == bat_counts
        assert bat_counts[1] == d * setup.dofs + surface_one_point


@pytest.mark.parametrize(
    "family, scheme",
    [
        ("lgl", "fluxdiff"),
        ("lgl", "strong"),
        ("lgl", "weak"),
        ("gauss", "gauss_fluxdiff"),
        ("gauss", "weak"),
        ("gauss", "strong"),
    ],
)
@pytest.mark.parametrize("d", [2, 3])
def test_rhs_converts_nodal_states_once(gas, monkeypatch, d, family, scheme):
    """A batched rhs makes exactly one cons2prim pass over the nodal states
    and converts only the face states that are not nodal values and carry no
    primitives of their own: the Gauss traces, once per direction and side.
    Lobatto face states are gathered from the nodal primitives and the
    projected ones come out of the inverse entropy map."""
    geo = (2 if d == 2 else 1) if family == "gauss" else None
    setup = make_setup(gas, d=d, p=2, amplitude=0.1, geo_degree=geo, family=family)
    u = random_field(setup, gas, seed=13, amp=0.3)
    face_shape = (setup.n_elements, 3 ** (d - 1), d + 2)
    calls = []
    for module in (discretization, euler, batched):

        def counted(states, gas_, original=module.cons2prim):
            calls.append(np.shape(states))
            return original(states, gas_)

        monkeypatch.setattr(module, "cons2prim", counted)
    config = RhsConfig(volume_scheme=scheme, surface_flux="llf", kernel="batched")
    assert np.isfinite(rhs(u, setup, config)).all()
    for fn in vars(batched).values():
        if inspect.isfunction(fn) and fn.__module__ == batched.__name__:
            assert "cons2prim" not in fn.__code__.co_names, fn.__name__
    traces = family == "gauss" and not scheme.startswith("gauss")
    assert calls.count(u.shape) == 1
    assert calls.count(face_shape) == (2 * d if traces else 0)
    assert len(calls) == calls.count(u.shape) + calls.count(face_shape)


@pytest.mark.parametrize("scheme", ["gauss_fluxdiff"])
@pytest.mark.parametrize("d", [2, 3])
def test_gauss_entropy_conservative_counts(gas, d, scheme):
    """Two-point counts of gauss_fluxdiff: the volume pairs
    plus one surface evaluation per face point on the reference kernel; the
    batched kernel adds one more per face point, because
    mesh_gauss_surface evaluates each face flux once per adjacent element.
    That second evaluation is the one the benchmark pins through
    batched.mesh_gauss_surface.useful_eval_ratio == 0.5."""
    p = 2
    geo = 2 if d == 2 else 1
    setup = make_setup(gas, d=d, p=p, amplitude=0.1, geo_degree=geo, family="gauss")
    u = random_field(setup, gas, seed=14, amp=0.3)
    pairs, _vol_face, _lift = hybridized_scatter(p, "gauss")
    # every node line ends in one face point per side, so the mesh has as
    # many lines as interface points (it is periodic)
    face_points = d * setup.n_elements * (p + 1) ** (d - 1)
    volume = face_points * (len(pairs) + 2 * (p + 1))
    counts = {}
    for kernel in KERNELS:
        c = FluxCounter()
        with count_guard(c):
            rhs(u, setup, RhsConfig(volume_scheme=scheme, kernel=kernel))
        counts[kernel] = c.two_point_evals
    assert counts["reference"] == volume + face_points
    assert counts["batched"] == counts["reference"] + face_points


def test_rhs_reaches_every_lane_function(gas):
    """Sweeping rhs(kernel="batched") over dimension, family, mesh, volume
    scheme and surface flux calls every function defined in fluxdg.batched:
    the lane module holds no code that rhs never reaches."""
    defined = {
        fn.__code__: name
        for name, fn in vars(batched).items()
        if inspect.isfunction(fn) and fn.__module__ == batched.__name__
    }
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    ran = set()
    p = 2
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for d, family, amplitude in product((2, 3), ("lgl", "gauss"), (0.0, 0.1)):
            curved_gauss = family == "gauss" and amplitude > 0.0
            geo = (2 if d == 2 else 1) if curved_gauss else None
            mesh = build_mesh((2,) * d, amplitude=amplitude, geo_degree=geo)
            op = make_operator(p, family)
            setup = build_setup(mesh, op, gas)
            u = random_field(setup, gas, seed=12, amp=0.3)
            for scheme, kind in product(VOLUME_SCHEMES, SURFACE_KINDS):
                config = RhsConfig(
                    volume_scheme=scheme,
                    surface_flux=kind,
                    overint_degree=p + 1,
                    kernel="batched",
                )
                try:
                    config.validate(setup)
                except ConfigurationError:
                    continue  # scheme not defined for this family or mesh
                assert np.isfinite(rhs(u, setup, config)).all()
                ran.add(scheme)
    finally:
        sys.setprofile(previous)
    assert ran == set(VOLUME_SCHEMES)
    missing = sorted(name for code, name in defined.items() if code not in called)
    assert not missing, missing


def test_strong_llf_rhs_peak_memory(gas):
    """The tracemalloc peak of one warm batched strong+llf rhs on the
    strong2d_llf benchmark mesh (2D p3, 8x8 Cartesian LGL) stays within
    5.25 u.nbytes. One more (d+2, lanes) face block held across the
    surface pass adds 0.25 u.nbytes; interpreter objects move the reading
    by about 0.005. It reads 5.06 with the axis-form interface fluxes,
    whose v.n are rows of the face states (5.08 with the directional
    form)."""
    mesh = build_mesh((8, 8), bounds=(-5.0, 5.0))
    setup = build_setup(mesh, make_operator(3, "lgl"), gas)
    u = random_field(setup, gas, seed=31, amp=0.3)
    config = RhsConfig(volume_scheme="strong", surface_flux="llf", kernel="batched")
    rhs(u, setup, config)  # warm the operator caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rhs(u, setup, config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 5.25 * u.nbytes, peak / u.nbytes
