import inspect
import tracemalloc
from itertools import product
from operator import attrgetter

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
from fluxdg.euler import cons2prim
from fluxdg.fluxes import SERIES_EPSILON, SURFACE_KINDS
from fluxdg.operators import hybridized_scatter
from fluxdg.reference import (
    flux_function,
    inv_logmean_optimized,
    logmean_optimized,
    node_lines,
)
from fluxdg.verify import (
    MESHES,
    SUB_PARAMETRIC_DEGREE,
    TWO_POINT_SCHEMES,
    check_batched_kernel,
    compare_kernels,
    random_field,
    random_primitives,
    relative_gap,
    rhs_cases,
)



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


def test_log_means_mix_branches_lane_by_lane(monkeypatch):
    """The lane log means on one call whose lanes mix both branches:
    log-branch lanes first, in the middle and last, equal arguments, and
    z = ((b-a)/(a+b))^2 just below, at and just above SERIES_EPSILON (99
    and 101 give z == SERIES_EPSILON exactly, which takes the log branch).
    Every lane matches the scalar mean within the bounds above, and the log
    is taken once per call, on exactly the lanes where the scalar takes its
    log branch, in lane order."""
    pairs = [
        (1.0, 3.0),
        (1.3, 1.3 * (1.0 + 1e-9)),
        (99.0, np.nextafter(101.0, 0.0)),
        (2.5, 2.5),
        (4.0, 0.5),
        (99.0, 101.0),
        (99.0, np.nextafter(101.0, np.inf)),
        (1.0, 1.001),
        (5.0, 0.7),
    ]
    z = [((y - x) / (x + y)) ** 2 for x, y in pairs]
    assert z[2] < SERIES_EPSILON == z[5] < z[6]
    log_lanes = [i for i, zi in enumerate(z) if zi >= SERIES_EPSILON]
    assert log_lanes == [0, 4, 5, 6, 8]
    a, b = np.array(pairs).T
    logs = []
    log = np.log

    def recording_log(x, *args, **kwargs):
        logs.append(np.array(x))
        return log(x, *args, **kwargs)

    monkeypatch.setattr(np, "log", recording_log)
    for lanes, scalar, inverse in (
        (logmean_batched, logmean_optimized, False),
        (inv_logmean_batched, inv_logmean_optimized, True),
    ):
        logs.clear()
        got = lanes(a, b)
        assert len(logs) == 1 and np.array_equal(logs[0], b[log_lanes] / a[log_lanes])
        for i, (x, y) in enumerate(pairs):
            want = logmean_optimized(x, y)
            bound = 5e-16 / want if inverse else 5e-16 * want
            assert abs(got[i] - scalar(x, y)) < bound, i


# reference against batched rhs, one test per case, where the bookkeeping is
# most fragile: p = 1 and one element along a direction (its own plus
# neighbour); non-cubic meshes; the central volume flux, whose lanes are
# conserved; split-form surface fluxes, where the conserved face rule alone
# decides what the face lanes carry; p = 5 and 7 in the lgl pair loop
KERNEL_CASES = (
    rhs_cases(
        ((1, 1), (1, 3), (1, 1, 1), (3, 1, 2)), (1, 3), schemes=TWO_POINT_SCHEMES,
        volume_fluxes=("central", "ranocha"), surface_fluxes=("llf",),
    )
    + rhs_cases(
        ((1, 1), (3, 3), (1, 1, 1), (3, 3, 3)), (1, 3),
        schemes=("strong", "weak", "overintegration"),
    )
    + rhs_cases(
        ((2, 2), (3, 2), (2, 2, 2), (3, 2, 2)), (2,), meshes=MESHES[1:],
        volume_fluxes=("central", "ranocha"), surface_fluxes=("shima", "ranocha"),
    )
    + rhs_cases(
        ((2, 2), (2, 2, 2)), (3,), families=("lgl",), meshes=MESHES[:2],
        schemes=("fluxdiff",), surface_fluxes=("llf", "ranocha"),
    )
    + rhs_cases(
        ((2, 2),), (5, 7), families=("lgl",), meshes=("isoparametric",),
        schemes=("fluxdiff",), volume_fluxes=("ranocha",), surface_fluxes=("llf",),
    )
)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=attrgetter("id"))
def test_rhs_case_matches_reference(case):
    gap, where = check_batched_kernel([case], amp=0.3)
    assert gap < 1e-13, where


@pytest.mark.parametrize(
    "case",
    rhs_cases(
        ((3, 3), (3, 3, 3)), (3,), meshes=MESHES[1:], schemes=TWO_POINT_SCHEMES,
        volume_fluxes=("ranocha",), surface_fluxes=("ranocha",),
    ),
    ids=attrgetter("id"),
)
def test_rhs_returns_a_fresh_array_and_leaves_u_alone(case):
    # rhs works in buffers of its own: a second call returns a new array
    # with the same values and leaves u alone
    setup = case.setup()
    u = case.field(setup, 0.3)
    u_before = u.copy()
    got = rhs(u, setup, case.config)
    again = rhs(u, setup, case.config)
    assert not np.shares_memory(again, got)
    assert np.array_equal(again, got)
    assert np.array_equal(u, u_before)


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
    exactly what it computes in a block of its own, within 1e-13 of the
    scalar directional kernel (along the axis unit vector for the axis
    form, on every axis j). The conserved blocks are strided views, rows of
    a transposed (lanes, d+2) array as the minus-side face lanes are, and
    no kernel writes into either side's states: the axis form takes v.n as
    the velocity row v_j of the states themselves, which llf and hll only
    read."""
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
        cases = [(j, np.broadcast_to(np.eye(d)[j], (n, d))) for j in range(d)]
    else:
        rows = tuple(rng.random((d, n)) + 0.25)
        cases = [(rows, np.transpose(rows))]
    scalar = flux_function(kind)
    for normal, normals in cases:
        big = np.full((d + 4, 2 * n + 1), np.nan)
        block = big[1:-1, 1::2]
        assert block.shape == (d + 2, n) and not block.flags.c_contiguous
        got = batched.flux_lanes(kind, ql, qr, normal, gas, n, block)
        assert got is block
        assert not np.isnan(block).any()
        # nothing outside the block is written
        assert np.isnan(big[[0, -1]]).all() and np.isnan(big[:, ::2]).all()
        assert np.array_equal(got, batched.flux_lanes(kind, ql, qr, normal, gas, n))
        states = [(q.tobytes(), c.tobytes()) for q, c in zip(prims, cons)]
        assert states == states_before
        for i in range(n):
            want = np.asarray(scalar(cons[0][i], cons[1][i], normals[i], gas))
            gap = np.abs(got[:, i] - want).max()
            assert gap <= 1e-13 * max(np.abs(want).max(), 1.0), (normals[i], i)


@pytest.mark.parametrize(
    "case",
    rhs_cases(((1, 3), (3, 1, 2)), (2,), schemes=("weak",), surface_fluxes=("llf",)),
    ids=attrgetter("id"),
)
def test_lift_matches_face_point_loop(case):
    """_lift against a loop over face points: face point m of element e
    (line m of direction n, lanes in minus-element order) adds its minus
    flux into e and subtracts its plus flux from plus_neighbor[n][e], on
    the line's last node (Lobatto) or on every node through the boundary
    interpolation rows (Gauss), divided by the Jacobian. All minus-side
    updates come first, as in _lift. On Cartesian meshes the fluxes are
    the unscaled axis form and the lift multiplies in the face area of
    _face_geometry, with the constant Jacobian, as area / (w J)."""
    family, dims, curved = case.family, case.dims, bool(case.amplitude)
    d = len(dims)
    setup = case.setup()
    op = setup.op
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
        assert (normal == n) if not curved else len(normal) == d
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


@pytest.mark.parametrize(
    "case",
    rhs_cases(
        ((1, 3), (3, 1, 2)), (2,), families=("gauss",), schemes=("weak",),
        surface_fluxes=("llf",), seeds=(24,),
    ),
    ids=attrgetter("id"),
)
def test_gauss_side_blocks_are_what_lift_lifts(gas, case):
    """mesh_gauss_surface hands mesh_gauss_volume the interface fluxes in
    element order: side 1 the flux of each element's +1 face (the minus
    side), side 0 the negated flux of its -1 face, gathered from the
    neighbour whose plus side it is. On Cartesian meshes both blocks carry
    the face area times the axis flux. Lifted through the rows
    boundary_interp / weights and divided by J, they reproduce _lift."""
    d, curved = len(case.dims), bool(case.amplitude)
    setup = case.setup()
    op = setup.op
    u = case.field(setup, 0.3)
    lift = op.boundary_interp / op.weights
    faces_by_n = discretization.face_states(u, cons2prim(u, gas), setup, True)
    for n, faces in enumerate(faces_by_n):
        side0, side1 = batched.mesh_gauss_surface(faces, setup, n, "llf")
        ql, qr = batched._interface_lanes(faces, setup, n)
        scale, normal = batched._face_geometry(setup, n)
        assert (normal == n) if not curved else len(normal) == d
        f = batched.flux_lanes("llf", ql, qr, normal, gas, ql.rho.size)
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


def test_two_point_counts_have_closed_forms():
    """The two-point evaluations of a batched rhs: one per face point for
    the interface flux, plus the d p (p+1)^d / 2 split pairs of each
    Lobatto element under fluxdiff and, under gauss_fluxdiff, the
    hybridized pairs and volume-face couplings of every node line and a
    second evaluation per face point, since mesh_gauss_surface evaluates
    each face flux once per adjacent element (the reference kernel's
    counts follow through check_batched_kernel)."""
    for case in KERNEL_CASES:
        setup = case.setup()
        c = FluxCounter()
        with count_guard(c):
            rhs(case.field(setup, 0.3), setup, case.config)
        d, p = setup.d, case.p
        # every node line ends in one face point per side, so the mesh has
        # as many lines as interface points (it is periodic)
        face_points = d * setup.n_elements * (p + 1) ** (d - 1)
        volume = 0
        if case.config.volume_scheme == "fluxdiff":
            volume = setup.n_elements * d * p * (p + 1) ** d // 2
        elif case.config.volume_scheme == "gauss_fluxdiff":
            pairs = len(hybridized_scatter(p, "gauss")[0])
            volume = face_points * (pairs + 2 * (p + 1) + 1)
        assert c.two_point_evals == face_points + volume, case.id


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
    evaluations per face point on top of the volume's d per node. Curved
    Gauss runs at a low mapping degree and isoparametric."""
    geos = (None,) if family == "lgl" else (SUB_PARAMETRIC_DEGREE, None)
    dims, p = ((4, 4), 3) if d == 2 else ((2, 2, 2), 2)
    for geo in geos:
        setup = make_setup(
            gas, d=d, p=p, amplitude=0.1, geo_degree=geo, family=family, dims=dims
        )
        u = _supersonic_field(setup, dims, gas, seed=13)
        n_face, left, right = _upwind_face_points(u, setup, gas)
        assert min(left, right) >= n_face / 3, geo
        for scheme, surface_one_point in (("strong", 2 * n_face), ("weak", 0)):
            config = RhsConfig(volume_scheme=scheme, surface_flux=kind)
            gap, counts = compare_kernels(u, setup, config)
            assert gap < 1e-13, (geo, scheme)
            assert counts["reference"] == counts["batched"], (geo, scheme)
            assert counts["batched"][1] == d * setup.dofs + surface_one_point, (geo, scheme)


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
    geo = SUB_PARAMETRIC_DEGREE if family == "gauss" else None
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


@pytest.mark.parametrize("d", [2, 3])
def test_split_gauss_rhs_builds_no_conserved_faces(gas, monkeypatch, d):
    """A batched ranocha/ranocha gauss_fluxdiff rhs converts no projected
    face state back to conserved variables: every lane kernel of that
    pairing reads primitives. The reference rhs, whose scalar kernels take
    conserved states, converts both sides of every direction."""
    setup = make_setup(gas, d=d, p=2, amplitude=0.1, geo_degree=1, family="gauss")
    u = random_field(setup, gas, seed=17, amp=0.3)
    calls = []

    def counted(q, gas_, original=discretization.prim2cons):
        calls.append(np.shape(q))
        return original(q, gas_)

    monkeypatch.setattr(discretization, "prim2cons", counted)
    for kernel, want in (("batched", 0), ("reference", 2 * d)):
        calls.clear()
        config = RhsConfig(volume_scheme="gauss_fluxdiff", kernel=kernel)
        assert np.isfinite(rhs(u, setup, config)).all()
        assert len(calls) == want, kernel


@pytest.mark.parametrize(
    "family, projected", [("lgl", False), ("gauss", False), ("gauss", True)]
)
def test_face_states_without_conserved(gas, family, projected):
    """face_states(conserved=False) yields None for every conserved face
    array and the same primitives as a full call."""
    setup = make_setup(gas, d=3, p=2, amplitude=0.1, family=family)
    u = random_field(setup, gas, seed=18, amp=0.3)
    prim = cons2prim(u, gas)
    full = discretization.face_states(u, prim, setup, projected)
    bare = discretization.face_states(u, prim, setup, projected, conserved=False)
    for sides, bare_sides in zip(full, bare):
        for (_, q), (u_side, q_side) in zip(sides, bare_sides):
            assert u_side is None
            assert np.array_equal(q, q_side)


def test_strong_llf_rhs_peak_memory(gas):
    """The tracemalloc peak of one warm batched strong+llf rhs on the
    strong2d_llf benchmark mesh (2D p3, 8x8 Cartesian LGL) stays within
    5.25 u.nbytes. One more (d+2, lanes) face block held across the
    surface pass adds 0.25 u.nbytes; interpreter objects move the reading
    by about 0.005. It reads 5.01 with the axis-form one-point volume,
    whose v.n are columns of the primitives (5.06 with the directional
    volume flux, 5.08 with directional interface fluxes as well)."""
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


# interpreter objects in a peak: the Lanes of every line position and their
# row views, about 6 KB on the benchmark meshes
_OBJECT_SLACK = 16 * 1024


def _warm_peak(call, make_args):
    """The tracemalloc peak of call(*make_args()) above the memory held when
    it starts, on a second call (the first warms the operator caches);
    make_args runs before the window opens."""
    call(*make_args())
    args = make_args()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_pair_loop_peak_memory(gas):
    """The tracemalloc peak of one warm mesh_fluxdiff_volume (ranocha) on
    the lgl3d_curved benchmark mesh (3D p3, 8^3 curved LGL) stays within
    the buffers it names: out, the primitive line rows and the accumulator
    (u.nbytes each), the flux block (d+2 lane rows) and the split-form
    scratch (6+d lane rows), plus what a log mean allocates, the mask and
    the index array of its log-branch lanes (at most one bool and one
    int64 per lane; on these random states nearly every lane). A pair
    normal is one add of two contiguous (d, lanes) blocks of the
    line-ordered metric store and takes no iterator buffer: it reads 0.9998
    of the bound, against 1.013 with strided metric views of a node-layout
    store, whose adds in directions 0 and 1 took two np.getbufsize()
    buffers (64 KB each) per pair call."""
    d, p = 3, 3
    mesh = build_mesh((8,) * d, bounds=(-5.0, 5.0), amplitude=0.1)
    setup = build_setup(mesh, make_operator(p, "lgl"), gas)
    u = random_field(setup, gas, seed=31, amp=0.3)
    prim = cons2prim(u, gas)
    config = RhsConfig(volume_flux="ranocha", kernel="batched")
    peak = _warm_peak(mesh_fluxdiff_volume, lambda: (u, prim, setup, config))
    lane_row = 8 * setup.n_elements * (p + 1) ** (d - 1)
    named = 3 * u.nbytes + (d + 2) * lane_row + (6 + d) * lane_row
    bound = named + lane_row + lane_row // 8
    assert peak <= bound + _OBJECT_SLACK, peak / bound


def test_gauss_pair_loop_peak_memory(gas):
    """The Gauss twin of test_pair_loop_peak_memory: one warm
    mesh_gauss_volume direction (ranocha) on the gauss3d_curved benchmark
    mesh (3D p3, 4^3 curved Gauss, geo_degree 1) stays within the primitive
    line rows and the accumulator (u.nbytes each), the flux block (d+2
    lane rows) and the split-form scratch (6+d lane rows), plus the
    log-branch mask and index array of a log mean. The accumulator is
    position-major, so every acc[a] += w f is one contiguous block add
    that takes no iterator buffer; the face lanes and the face metric
    terms are views, and every pair normal adds two (d, lanes) blocks of
    whole metric rows, which takes no iterator buffer either. At 1024
    lanes, below np.getbufsize(), numpy buffered each (d, lanes) operand
    whose rows are not one evenly strided run: 2d lane rows for the volume
    pairs of the node-layout store. It reads 1.030 of the bound, against
    1.102 with those buffers."""
    d, p = 3, 3
    mesh = build_mesh((4,) * d, bounds=(-5.0, 5.0), amplitude=0.1, geo_degree=1)
    setup = build_setup(mesh, make_operator(p, "gauss"), gas)
    u = random_field(setup, gas, seed=31, amp=0.3)
    prim = cons2prim(u, gas)
    config = RhsConfig(
        volume_scheme="gauss_fluxdiff", volume_flux="ranocha", kernel="batched"
    )
    faces = next(discretization.face_states(u, prim, setup, True))
    sides = batched.mesh_gauss_surface(faces, setup, 0, config.surface_flux)
    out = np.zeros_like(u)
    peak = _warm_peak(
        batched.mesh_gauss_volume,
        # the kernel overwrites the side blocks, so each call gets copies
        lambda: (u, prim, faces, [s.copy() for s in sides], setup, 0, config, out),
    )
    lane_row = 8 * setup.n_elements * (p + 1) ** (d - 1)
    named = 2 * u.nbytes + (d + 2) * lane_row + (6 + d) * lane_row
    bound = named + lane_row + lane_row // 8
    assert peak <= bound + _OBJECT_SLACK, peak / bound


@pytest.mark.parametrize("geo_degree", [1, None])
def test_gauss_rhs_peak_memory(gas, geo_degree):
    """The Gauss twin of test_strong_llf_rhs_peak_memory: the tracemalloc
    peak of one warm batched ranocha/ranocha gauss_fluxdiff rhs on the
    gauss3d_curved benchmark mesh (3D p3, 4^3 curved Gauss) stays within
    6.22 u.nbytes. It reads 6.03 with either mapping, the peak falling in
    the entropy projection of directions 1 and 2: out and prim (1.0 each);
    the previous direction's two primitive face arrays and two side blocks,
    which rhs still holds (0.5 each); the direction's primitive line rows
    and their entropy variables (1.0 each) and prim2entropy's temporaries
    (about 1.0). No nodal entropy variables are held through the RHS: each
    direction's die before face_states yields, and the coupling pass, which
    reads 5.81, holds out, prim, the primitive line rows and the
    accumulator (1.0 each), the face arrays and side blocks (0.5 each), the
    split-form scratch (0.45) and the flux block (0.25). No conserved face
    array is built, since every reader of this pairing takes primitives,
    and no pair normal takes an iterator buffer; it read 6.86 with the
    nodal entropy variables held (1.0), 7.30 with the last projected trace
    held as well (0.25) and the pair-normal buffers of a node-layout metric
    store (0.3), and 8.01 with the conserved faces and the
    (d+2, p+1, lanes) accumulator on top."""
    d, p = 3, 3
    mesh = build_mesh(
        (4,) * d, bounds=(-5.0, 5.0), amplitude=0.1, geo_degree=geo_degree
    )
    setup = build_setup(mesh, make_operator(p, "gauss"), gas)
    u = random_field(setup, gas, seed=31, amp=0.3)
    config = RhsConfig(
        volume_scheme="gauss_fluxdiff",
        volume_flux="ranocha",
        surface_flux="ranocha",
        kernel="batched",
    )
    peak = _warm_peak(rhs, lambda: (u, setup, config))
    assert peak <= 6.22 * u.nbytes, peak / u.nbytes
