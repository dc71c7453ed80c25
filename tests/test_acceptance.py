"""Acceptance gate: one test per advertised guarantee of the library.

Every numerical claim the package makes is pinned here with the tolerance
it is sold at, ordered from operator algebra up through full simulations.
Timing behaviour is machine-dependent, so the trend checks at the end
report violations as warnings instead of failures.
"""

import math
import warnings
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

from fluxdg import batched
from fluxdg import (
    FluxCounter,
    GasParams,
    RhsConfig,
    build_mesh,
    build_setup,
    cons2prim,
    count_guard,
    flux_function,
    integrate,
    make_operator,
    prim2cons,
    rhs,
)
from fluxdg.discretization import KERNELS, face_states
from fluxdg.fluxes import SERIES_EPSILON
from fluxdg.harness import (
    MICROBENCH_FORMS,
    build_run,
    convergence_study,
    make_config,
    measure_pid,
    microbench_flux,
    run_simulation,
)
from fluxdg.operators import FAMILIES
from fluxdg.reference import (
    inv_logmean_optimized,
    logmean_optimized,
    surface_terms,
    volume_fluxdiff,
)
from fluxdg.verify import (
    TWO_POINT_SCHEMES,
    check_batched_kernel,
    check_entropy_conservative_flux,
    check_flux_counts,
    check_free_stream,
    check_hybridized_rows,
    check_logmean,
    check_semidiscrete_invariants,
    check_sbp_identity,
    check_split_antisymmetry,
    check_transfer_round_trip,
    random_field,
    relative_gap,
    rhs_cases,
)

from .oracles import (
    entropy_vars_mp,
    gauss_volume_dense,
    inv_logmean_mp,
    jump_grid,
    logmean_mp,
    split_derivative,
)
from .test_discretization import matrix_route_fluxdiff

GAS = GasParams(1.4)


# --- operator algebra ---------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_summation_by_parts_identity(family):
    """M D + Dt M equals the boundary operator Rt B N R, entrywise 1e-13."""
    assert check_sbp_identity(range(1, 16), (family,)) < 1e-13


def test_split_operator_antisymmetry():
    """M Dsplit is antisymmetric with a zero diagonal on Lobatto nodes."""
    assert check_split_antisymmetry(range(1, 16)) < 1e-14


@pytest.mark.parametrize("family", FAMILIES)
def test_hybridized_operator_algebra(family):
    """The hybridized operator Qh of each family satisfies Qh + Qht = B
    entrywise 1e-14 and annihilates constants, row by row 1e-13."""
    skew, rows = check_hybridized_rows(range(1, 16), (family,))
    assert skew < 1e-14
    assert rows < 1e-13


# --- flux kernels -------------------------------------------------------------


def _random_states(rng, d, n):
    q = np.empty((n, d + 2))
    q[:, 0] = 10.0 ** rng.uniform(-1.0, 1.0, n)
    q[:, 1 : d + 1] = rng.uniform(-3.0, 3.0, (n, d))
    q[:, d + 1] = 10.0 ** rng.uniform(-1.0, 1.0, n)
    return prim2cons(q, GAS)


def test_entropy_condition_of_volume_flux():
    """(w jump) . f equals the potential jump for the entropy conservative
    flux, over wide random pairs plus near-identical pairs that hit the
    log-mean series branch. The jumps are evaluated at 50 digits so the
    residual measures the flux alone; the potential psi is the momentum
    slice, exact by construction."""
    import mpmath

    n_wide = 10_000
    n_close = 1_000
    worst = 0.0
    for d in (2, 3):
        rng = np.random.default_rng(100 + d)
        kernel = flux_function("ranocha")
        left = _random_states(rng, d, n_wide + n_close)
        right = np.empty_like(left)
        right[:n_wide] = _random_states(rng, d, n_wide)
        # tiny relative perturbations keep rho and p inside the series branch
        wiggle = 1.0 + 1e-8 * rng.uniform(-1.0, 1.0, (n_close, d + 2))
        right[n_wide:] = left[n_wide:] * wiggle
        normals = rng.uniform(0.2, 1.2, (n_wide + n_close, d))
        for i in range(n_wide + n_close):
            f = kernel(left[i].tolist(), right[i].tolist(), tuple(normals[i]), GAS)
            wl = entropy_vars_mp(left[i], GAS.gamma)
            wr = entropy_vars_mp(right[i], GAS.gamma)
            terms = [(b - a) * mpmath.mpf(float(c)) for a, b, c in zip(wl, wr, f)]
            dpsi = sum(
                (mpmath.mpf(float(right[i][j + 1])) - mpmath.mpf(float(left[i][j + 1])))
                * mpmath.mpf(float(normals[i][j]))
                for j in range(d)
            )
            resid = abs(sum(terms) - dpsi)
            # normalize by the mass that cancels in the contraction, not by
            # the tiny net value it cancels down to
            scale = sum(abs(t) for t in terms) + abs(dpsi) + 1
            worst = max(worst, float(resid / scale))
    assert worst < 1e-12


@pytest.mark.parametrize("d", (2, 3))
def test_entropy_condition_in_double_precision(d):
    """The same condition with float64 jumps, over 2000 pairs with signed
    normals, 400 of the pairs inside the log-mean series branch."""
    assert check_entropy_conservative_flux((d,), 2000, n_close=400) < 1e-12


def test_log_mean_against_extended_precision():
    """Both log-mean kernels match a 50-digit oracle to 1e-14 across relative
    jumps from 1e-16 to 1e2, and the series/log branch handoff is seamless."""
    worst = 0.0
    for center in (1e-3, 1.0, 1e3):
        for a, b in jump_grid(center=center, tiny=1e-16, huge=1e2):
            got = logmean_optimized(a, b)
            want = logmean_mp(a, b)
            worst = max(worst, abs(got - want) / abs(want))
            got_inv = inv_logmean_optimized(a, b)
            want_inv = inv_logmean_mp(a, b)
            worst = max(worst, abs(got_inv - want_inv) / abs(want_inv))
    assert worst < 1e-14

    # branch boundary: u = ((b-a)/(b+a))^2 crosses SERIES_EPSILON here
    f = math.sqrt(SERIES_EPSILON)
    ratio = (1.0 + f) / (1.0 - f)
    for base in (1e-3, 1.0, 1e3):
        below = logmean_optimized(base, base * ratio * (1.0 - 1e-13))
        above = logmean_optimized(base, base * ratio * (1.0 + 1e-13))
        assert abs(above - below) / base < 1e-12


def test_log_mean_branches():
    """The optimized log mean equals the direct formula on pairs 1.5x to 100x
    apart and the midpoint on pairs up to a relative 1e-10 apart, at three
    magnitudes."""
    centers = (1e-3, 1.0, 1e3)
    separated = [(c, c * r) for c in centers for r in (1.5, 2.5, 10.0, 100.0)]
    close = [(c, c * (1.0 + j)) for c in centers for j in (0.0, 1e-16, 1e-13, 1e-10)]
    assert check_logmean(separated, close) < 1e-13


# --- curved meshes ------------------------------------------------------------


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("kind", ("shima", "ranocha"))
def test_free_stream_preservation_on_curved_meshes(kind, d):
    """A constant state stays constant to roundoff on sine-perturbed meshes,
    under the two-point scheme of both families, isoparametric and
    sub-parametric."""
    fluxes = dict(schemes=TWO_POINT_SCHEMES, volume_fluxes=(kind,), surface_fluxes=(kind,))
    cases = rhs_cases(
        ((4,) * d,), (3, 4), meshes=("isoparametric",), amplitude=0.1, **fluxes
    ) + rhs_cases(
        ((3,) * d,), (3, 4), meshes=("isoparametric", "subparametric"), amplitude=0.12,
        **fluxes,
    )
    assert check_free_stream(cases) < 1e-12


# --- entropy and conservation over full runs ----------------------------------

VORTEX_CONFIGS = tuple(
    (d, scheme, mesh)
    for d in (2, 3)
    for scheme in ("fluxdiff", "gauss_fluxdiff")
    for mesh in ("cartesian", "curved")
)


@pytest.fixture(scope="module")
def vortex_samples():
    """March the vortex 77 steps per configuration and record, at the 20
    states before steps 0, 4, ..., 76, the normalized entropy production and
    the rate of change of the conserved totals."""
    records = {}
    for d, scheme, mesh in VORTEX_CONFIGS:
        family = "lgl" if scheme == "fluxdiff" else "gauss"
        # one configuration stays on the scalar kernel as an anchor; the
        # rest use the batched kernel, which is equivalence-tested below
        kernel = (
            "reference"
            if (d, scheme, mesh) == (2, "fluxdiff", "cartesian")
            else "batched"
        )
        config = make_config(
            None,
            {
                "d": str(d),
                "elements": "8" if d == 2 else "4",
                "mesh": mesh,
                "family": family,
                "volume_scheme": scheme,
                "kernel": kernel,
                "n_steps": "77",
            },
        )
        run = build_run(config)
        samples = []

        def collect(step, t, dt, u):
            if step % 4 == 0 and len(samples) < 20:
                samples.append((u, run.setup, run.scheme))

        integrate(
            run.u0,
            run.rhs_fn,
            n_steps=config.n_steps,
            dt=run.dt_fn(run.u0, 0.0),
            callbacks=(collect,),
        )
        assert len(samples) == 20
        records[d, scheme, mesh] = check_semidiscrete_invariants(samples)
    return records


def test_semidiscrete_entropy_conservation(vortex_samples):
    """Entropy conservative volume+surface fluxes keep the normalized entropy
    rate below 1e-11 for every scheme, family, mesh and dimension."""
    for key, (worst_entropy, _) in sorted(vortex_samples.items()):
        assert worst_entropy < 1e-11, (key, worst_entropy)


def test_semidiscrete_conservation(vortex_samples):
    """The conserved totals are stationary to roundoff in the same runs."""
    for key, (_, worst_totals) in sorted(vortex_samples.items()):
        assert worst_totals < 1e-12, (key, worst_totals)


# --- kinetic energy preservation ----------------------------------------------

# Lobatto flux differencing with a kinetic-energy-preserving volume flux and
# a central, shima or ranocha surface flux, flat and curved
KEP_CASES = rhs_cases(
    ((3, 3), (3, 3, 3)), (3,), families=("lgl",), meshes=("cartesian", "isoparametric"),
    schemes=("fluxdiff",), volume_fluxes=("shima", "ranocha"),
    surface_fluxes=("central", "shima", "ranocha"),
)


def kep_field(setup):
    """Pressure 1 with smooth density and velocity waves that are periodic
    on the (-5, 5)^d mesh, so the states are continuous across every face,
    the periodic ones included."""
    d = setup.d
    x = 0.2 * math.pi * setup.coords
    q = np.empty((setup.n_elements, setup.n_nodes, d + 2))
    q[..., 0] = 1.0 + 0.3 * np.sin(np.sum(x, axis=-1))
    for i in range(d):
        q[..., 1 + i] = 0.2 * np.sin(x[..., (i + 1) % d] + 0.5 * i)
    q[..., -1] = 1.0
    return prim2cons(q, setup.gas)


def kinetic_energy_terms(u, dudt, setup):
    """The nodal terms of the kinetic energy rate
    sum M J (v . d(rho v)/dt - |v|^2/2 drho/dt), shape (n_elem, nodes,
    d + 1): the d momentum terms, then the density term."""
    d = setup.d
    v = u[..., 1 : d + 1] / u[..., :1]
    weights = (setup.wbar[None, :] * setup.metrics.jac)[..., None]
    half_vv = 0.5 * np.sum(v * v, axis=-1, keepdims=True)
    return weights * np.concatenate(
        (v * dudt[..., 1 : d + 1], -half_vv * dudt[..., :1]), axis=-1
    )


@pytest.mark.parametrize("case", KEP_CASES, ids=attrgetter("id"))
def test_kinetic_energy_preservation(case):
    """At constant pressure with continuous states, a kinetic-energy-
    preserving volume and surface flux keep the total kinetic energy:
    sum M J (v . d(rho v)/dt - |v|^2/2 drho/dt) = 0, with both kernels.
    The sum is normalized by the sum of the absolute terms; each term
    carries the rounding of the pair sums behind its rhs entry, so the
    bound is 64 ulps of that scale (the worst case read 9.4)."""
    setup = case.setup()
    u = kep_field(setup)
    for kernel in KERNELS:
        dudt = rhs(u, setup, replace(case.config, kernel=kernel))
        terms = kinetic_energy_terms(u, dudt, setup)
        scale = float(np.abs(terms).sum())
        assert scale > 0.1
        assert abs(float(terms.sum())) < 64 * np.finfo(float).eps * scale, kernel


# --- form equivalences --------------------------------------------------------


def test_volume_term_matches_split_matrix_assembly():
    """The pair-scattering volume kernel equals the dense split-matrix sum."""
    for d in (2, 3):
        mesh = build_mesh((2,) * d, amplitude=0.1)
        setup = build_setup(mesh, make_operator(3, "lgl"), GAS)
        u = random_field(setup, GAS, seed=21 + d, amp=0.4)
        mat = split_derivative(setup.op)
        for kind in ("shima", "ranocha", "central"):
            fast = volume_fluxdiff(u, setup.op, setup.metrics, kind, GAS)
            slow = matrix_route_fluxdiff(u, setup.op, mat, setup.metrics, 0, kind, GAS)
            assert relative_gap(slow, fast[0]) < 1e-13


def test_cartesian_and_directional_forms_agree():
    """Summing per-axis lane fluxes against a direction vector reproduces
    the directional lane kernel, lane by lane."""
    for d in (2, 3):
        rng = np.random.default_rng(31 + d)
        u = _random_states(rng, d, 400)
        alphas = rng.uniform(-1.0, 1.0, (200, d))
        ql, qr = (
            batched.Lanes(q[:, 0], tuple(q[:, 1:-1].T), q[:, -1], c.T)
            for q, c in ((cons2prim(half, GAS), half) for half in (u[0::2], u[1::2]))
        )
        for kind in ("shima", "ranocha", "central"):
            combo = sum(
                alphas[:, j] * batched.flux_lanes(kind, ql, qr, j, GAS, 200)
                for j in range(d)
            )
            direct = batched.flux_lanes(kind, ql, qr, tuple(alphas.T), GAS, 200)
            for i in range(200):
                assert relative_gap(direct[:, i], combo[:, i]) < 1e-13


def test_gauss_volume_forms_agree():
    """The gauss_fluxdiff right-hand side equals the dense hybridized
    operator (face-face corner zeroed) applied pair by pair, plus the
    interface terms."""
    cases = [(2, 0.0, None), (2, 0.1, 2), (3, 0.0, None), (3, 0.1, 1)]
    for d, amplitude, geo in cases:
        mesh = build_mesh((3,) * d, amplitude=amplitude, geo_degree=geo)
        setup = build_setup(mesh, make_operator(3, "gauss"), GAS)
        u = random_field(setup, GAS, seed=41 + d, amp=0.3)
        got = rhs(u, setup, RhsConfig(volume_scheme="gauss_fluxdiff"))
        want = np.zeros_like(u)
        for n, faces in enumerate(face_states(u, cons2prim(u, GAS), setup, True)):
            want += gauss_volume_dense(u, faces, setup, n, "ranocha")
            surface_terms(faces, setup, n, "ranocha", False, want)
        assert relative_gap(-want, got) < 1e-13


def test_central_fluxdiff_matches_strong_form():
    """With the central volume flux, flux differencing collapses to the strong
    form on Cartesian meshes."""
    for d in (2, 3):
        mesh = build_mesh((3,) * d)
        setup = build_setup(mesh, make_operator(3, "lgl"), GAS)
        u = random_field(setup, GAS, seed=51 + d, amp=0.4)
        split = rhs(
            u, setup,
            RhsConfig(volume_scheme="fluxdiff", volume_flux="central",
                      surface_flux="central"),
        )
        strong = rhs(
            u, setup, RhsConfig(volume_scheme="strong", surface_flux="central")
        )
        assert relative_gap(strong, split) < 1e-13


def test_batched_kernel_matches_reference():
    """The lane-batched kernels reproduce the scalar kernels with the same
    flux counts: every scheme on curved meshes, and with every surface kind
    on Cartesian ones, where they take the axis form (anisotropic meshes
    give each direction its own face area)."""
    cases = rhs_cases(
        ((2, 3), (3, 1, 2), (4, 4)), (3,), meshes=("cartesian",),
        volume_fluxes=("shima", "ranocha"), seeds=(83, 84),
    ) + rhs_cases(
        ((3, 3), (2, 2, 2), (3, 3, 3)), (3,), meshes=("isoparametric", "subparametric"),
        volume_fluxes=("ranocha",), surface_fluxes=("ranocha", "llf"), seeds=(83, 84),
    )
    gap, where = check_batched_kernel(cases, amp=0.3)
    assert gap < 1e-13, where


# --- work counts --------------------------------------------------------------


@pytest.mark.parametrize("d", (2, 3))
def test_exact_flux_evaluation_counts(d):
    """The whole-mesh volume terms take the closed-form flux evaluations
    per element times the element count."""
    assert check_flux_counts(dims=(d,), degrees=range(3, 8)) == 0


def test_two_point_count_of_a_cubic_hexahedron():
    """Flux differencing on one d=3, p=3 element takes 288 two-point
    evaluations."""
    setup = build_setup(build_mesh((1, 1, 1)), make_operator(3, "lgl"), GAS)
    u = random_field(setup, GAS, seed=94, amp=0.3)
    c = FluxCounter()
    with count_guard(c):
        volume_fluxdiff(u, setup.op, setup.metrics, "ranocha", GAS)
    assert c.two_point_evals == 288


# --- convergence --------------------------------------------------------------


def test_vortex_convergence_order():
    """Fourth-degree elements deliver at least order 3.5 for the vortex
    density over one advection period, and free-stream errors sit at
    roundoff."""
    # entropy stable pairing: the conservative volume flux needs surface
    # dissipation to survive the underresolved coarse levels
    config = make_config(
        None, {"surface_flux": "llf", "n_steps": "none", "t_end": "10.0"}
    )
    rows = convergence_study(config, levels=(4, 8, 16))
    errors = [r[2] for r in rows]
    assert errors[0] > errors[1] > errors[2]
    finest_order = rows[-1][4]
    assert finest_order >= 3.5, rows

    free = run_simulation(
        make_config(
            None,
            {"ic": "free_stream", "elements": "4", "n_steps": "none",
             "t_end": "10.0"},
        )
    )
    assert np.abs(free.error_l2).max() < 1e-11


def test_overintegration_round_trip():
    """Projecting back after interpolating to a finer grid is the identity,
    and overintegration at q = p collapses to the weak form."""
    pairs = [(p, q) for p in range(1, 8) for q in range(p, 2 * p + 1)]
    assert check_transfer_round_trip(pairs) < 1e-13

    for d in (2, 3):
        mesh = build_mesh((2,) * d)
        setup = build_setup(mesh, make_operator(3, "lgl"), GAS)
        u = random_field(setup, GAS, seed=17 + d, amp=0.4)
        over = rhs(
            u, setup,
            RhsConfig(volume_scheme="overintegration", overint_degree=3,
                      surface_flux="central"),
        )
        weak = rhs(u, setup, RhsConfig(volume_scheme="weak", surface_flux="central"))
        assert float(np.abs(over - weak).max()) < 1e-14 * max(
            1.0, float(np.abs(weak).max())
        )


# --- timing trends (reported, never failing) -----------------------------------


def _warn_unless(condition, message):
    if not condition:
        warnings.warn(message, stacklevel=2)
    return bool(condition)


def _fastest_pid(configs, n_rhs, rounds=3):
    """Each configuration's fastest `measure_pid` over rounds of one repeat,
    the configurations interleaved within every round."""
    runs = {key: build_run(config) for key, config in configs.items()}
    best = dict.fromkeys(runs, math.inf)
    for _ in range(rounds):
        for key, run in runs.items():
            pid = measure_pid(run, n_rhs=n_rhs, repeats=1).mean_pid
            best[key] = min(best[key], pid)
    return best


def test_timing_trends_soft():
    """Lane flux-form cost ordering, flux-kind cost ordering and the growth
    of the per-DOF cost with degree. Machine noise can invert small gaps, so
    every violation is a warning, not a failure."""
    slack = 1.10

    # the forms run interleaved, round by round, and each is judged by its
    # fastest round: one slow spell of a shared host then skews neither
    for kind in ("shima", "ranocha"):
        best = dict.fromkeys(MICROBENCH_FORMS, math.inf)
        for _ in range(5):
            for form in MICROBENCH_FORMS:
                ns = microbench_flux(kind, form, 3, n_samples=4000, repeats=1)[0]
                best[form] = min(best[form], ns)
        for cheap, costly in zip(MICROBENCH_FORMS, MICROBENCH_FORMS[1:]):
            _warn_unless(
                best[cheap] <= best[costly] * slack,
                "%s: expected %s (%.0f ns) <= %s (%.0f ns)"
                % (kind, cheap, best[cheap], costly, best[costly]),
            )

    base = {"d": "3", "elements": "2", "n_steps": "1"}
    pid = _fastest_pid(
        {
            kind: make_config(None, dict(base, volume_flux=kind, surface_flux=kind))
            for kind in ("shima", "ranocha")
        },
        n_rhs=20,
    )
    _warn_unless(
        pid["ranocha"] > pid["shima"] / slack,
        "expected ranocha (%.2e) to cost more than shima (%.2e)"
        % (pid["ranocha"], pid["shima"]),
    )

    # the degree trend times the scalar oracle, whose cost tracks the
    # evaluation count; the lane kernels' per-call cost hides it on a
    # mesh this small (their per-DOF cost falls with degree here)
    by_degree = _fastest_pid(
        {
            p: make_config(None, dict(base, p=str(p), kernel="reference"))
            for p in range(3, 8)
        }
        | {"batched": make_config(None, base)},
        n_rhs=10,
    )
    for p in range(3, 7):
        _warn_unless(
            by_degree[p] <= by_degree[p + 1] * slack,
            "per-DOF cost should grow with degree: p=%d %.2e vs p=%d %.2e"
            % (p, by_degree[p], p + 1, by_degree[p + 1]),
        )
    _warn_unless(
        by_degree["batched"] <= by_degree[3] * slack,
        "batched kernel (%.2e) should not cost more than reference (%.2e)"
        % (by_degree["batched"], by_degree[3]),
    )


# --- time integration ----------------------------------------------------------


def test_runge_kutta_order_and_work():
    """Global fourth-order convergence on a linear rotation and exactly five
    right-hand-side evaluations per step."""
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    calls = 0

    def f(v, t):
        nonlocal calls
        calls += 1
        return a @ v

    u0 = np.array([1.0, 0.0])
    exact = np.array([math.cos(1.0), -math.sin(1.0)])
    errors = []
    for n in (16, 32, 64):
        calls = 0
        u, info = integrate(u0, f, n_steps=n, dt=1.0 / n)
        assert calls == 5 * n
        assert info["rhs_evals"] == 5 * n
        errors.append(float(np.abs(u - exact).max()))
    slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for slope in slopes:
        assert 3.8 <= slope <= 4.2, slopes
