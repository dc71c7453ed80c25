"""Acceptance gate: one test per advertised guarantee of the library.

Every numerical claim the package makes is pinned here with the tolerance
it is sold at, ordered from operator algebra up through full simulations.
Timing behaviour is machine-dependent, so the trend checks at the end
report violations as warnings instead of failures.
"""

import math
import warnings

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
    conserved_totals,
    count_guard,
    entropy_rate,
    flux_function,
    integrate,
    make_operator,
    prim2cons,
    rhs,
)
from fluxdg.discretization import (
    face_states,
    surface_terms,
    volume_fluxdiff,
    volume_overintegration,
    volume_strong,
    volume_weak,
)
from fluxdg.geometry import element_metrics
from fluxdg.harness import (
    MICROBENCH_FORMS,
    build_run,
    convergence_study,
    make_config,
    measure_pid,
    microbench_flux,
    run_simulation,
)
from fluxdg.means import (
    SERIES_EPSILON,
    inv_logmean_optimized,
    logmean_optimized,
)
from fluxdg.operators import build_dsplit, transfer_matrices
from fluxdg.timeint import StepController, rk_step, stable_dt

from .conftest import random_field
from .oracles import (
    entropy_vars_mp,
    gauss_volume_dense,
    inv_logmean_mp,
    jump_grid,
    logmean_mp,
)
from .test_discretization import matrix_route_fluxdiff

GAS = GasParams(1.4)
_N_FACE = np.array([-1.0, 1.0])


# --- operator algebra ---------------------------------------------------------


def test_summation_by_parts_identity():
    """M D + Dt M equals the boundary operator Rt B N R, entrywise 1e-13."""
    worst = 0.0
    for family in ("lgl", "gauss"):
        for p in range(1, 16):
            op = make_operator(p, family)
            m = np.diag(op.weights)
            lhs = m @ op.D + op.D.T @ m
            bnd = op.boundary_interp.T @ np.diag(_N_FACE) @ op.boundary_interp
            worst = max(worst, float(np.abs(lhs - bnd).max()))
    assert worst < 1e-13


def test_split_operator_antisymmetry():
    """M Dsplit is antisymmetric with a zero diagonal on Lobatto nodes."""
    worst = 0.0
    diag = 0.0
    for p in range(1, 16):
        op = make_operator(p, "lgl")
        mat = build_dsplit(op).matrix
        md = op.weights[:, None] * mat
        worst = max(worst, float(np.abs(md + md.T).max()))
        diag = max(diag, float(np.abs(np.diag(mat)).max()))
    assert worst < 1e-14
    assert diag < 1e-14


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


# --- curved meshes ------------------------------------------------------------


def test_free_stream_preservation_on_curved_meshes():
    """A constant state stays constant to roundoff on sine-perturbed meshes."""
    worst = 0.0
    for d in (2, 3):
        for p in (3, 4):
            for kind in ("shima", "ranocha"):
                config = make_config(
                    None,
                    {
                        "d": str(d),
                        "p": str(p),
                        "elements": "4",
                        "mesh": "curved",
                        "ic": "free_stream",
                        "volume_flux": kind,
                        "surface_flux": kind,
                    },
                )
                run = build_run(config)
                r = rhs(run.u0, run.setup, run.scheme)
                worst = max(worst, float(np.abs(r).max()))
    assert worst < 1e-12


# --- entropy and conservation over full runs ----------------------------------

VORTEX_CONFIGS = tuple(
    (d, scheme, mesh)
    for d in (2, 3)
    for scheme in ("fluxdiff", "gauss_fluxdiff")
    for mesh in ("cartesian", "curved")
)


@pytest.fixture(scope="module")
def vortex_samples():
    """March the vortex 90 steps per configuration and record, at 20 states
    spread along each run, the normalized entropy production and the rate of
    change of the conserved totals."""
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
                "n_steps": "90",
            },
        )
        run = build_run(config)
        setup = run.setup
        dt = stable_dt(
            run.u0, run.mesh, setup.metrics, run.gas, config.p,
            StepController(cfl=config.cfl),
        )

        def rhs_fn(v, tt, _setup=setup, _scheme=run.scheme):
            return rhs(v, _setup, _scheme)

        u, t = run.u0, 0.0
        worst_entropy = 0.0
        worst_totals = 0.0
        n_sampled = 0
        for step in range(config.n_steps):
            if step % 4 == 0 and n_sampled < 20:
                dudt = rhs_fn(u, t)
                _, normalized = entropy_rate(u, dudt, setup)
                drift = conserved_totals(dudt, setup)
                scale = float(np.abs(conserved_totals(u, setup)).max())
                worst_entropy = max(worst_entropy, abs(normalized))
                worst_totals = max(worst_totals, float(np.abs(drift).max()) / scale)
                n_sampled += 1
            u = rk_step(u, t, dt, rhs_fn)
            t += dt
        assert n_sampled == 20
        records[d, scheme, mesh] = (worst_entropy, worst_totals)
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


# --- form equivalences --------------------------------------------------------


def _relative_gap(a, b):
    scale = max(1.0, float(np.abs(a).max()))
    return float(np.abs(a - b).max()) / scale


def test_volume_term_matches_split_matrix_assembly():
    """The pair-scattering volume kernel equals the dense split-matrix sum."""
    for d in (2, 3):
        mesh = build_mesh((2,) * d, amplitude=0.1)
        setup = build_setup(mesh, make_operator(3, "lgl"), GAS)
        u = random_field(setup, GAS, seed=21 + d, amp=0.4)
        terms = element_metrics(setup.metrics, 0)
        for kind in ("shima", "ranocha", "central"):
            fast = volume_fluxdiff(u[0], setup.dsplit, terms, kind, GAS)
            slow = matrix_route_fluxdiff(u[0], setup.dsplit, terms, kind, GAS)
            assert _relative_gap(fast, slow) < 1e-13


def test_cartesian_and_directional_forms_agree():
    """Summing per-axis lane fluxes against a direction vector reproduces
    the directional lane kernel, lane by lane."""
    for d in (2, 3):
        rng = np.random.default_rng(31 + d)
        u = _random_states(rng, d, 400)
        alphas = rng.uniform(-1.0, 1.0, (200, d))
        ql, qr = (
            batched.Lanes(q[:, 0], tuple(q[:, 1:-1].T), q[:, -1], tuple(c.T))
            for q, c in ((cons2prim(half, GAS), half) for half in (u[0::2], u[1::2]))
        )
        for kind in ("shima", "ranocha", "central"):
            combo = sum(
                alphas[:, j] * batched.flux_lanes_cartesian(kind, ql, qr, j, GAS, 200)
                for j in range(d)
            )
            direct = batched.flux_lanes_directional(
                kind, ql, qr, tuple(alphas.T), GAS, 200
            )
            for i in range(200):
                assert _relative_gap(direct[:, i], combo[:, i]) < 1e-13


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
        assert _relative_gap(got, -want) < 1e-13


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
        assert _relative_gap(split, strong) < 1e-13


def test_batched_kernel_matches_reference():
    """The lane-batched kernels reproduce the scalar kernels."""
    cases = [
        (2, "lgl", "fluxdiff", 0.1, None),
        (2, "gauss", "gauss_fluxdiff", 0.1, 2),
        (3, "gauss", "gauss_fluxdiff", 0.1, 1),
    ]
    for d, family, scheme, amplitude, geo in cases:
        mesh = build_mesh((3,) * d, amplitude=amplitude, geo_degree=geo)
        setup = build_setup(mesh, make_operator(3, family), GAS)
        u = random_field(setup, GAS, seed=81 + d, amp=0.3)
        ref = rhs(u, setup, RhsConfig(volume_scheme=scheme, kernel="reference"))
        bat = rhs(u, setup, RhsConfig(volume_scheme=scheme, kernel="batched"))
        assert _relative_gap(ref, bat) < 1e-13


# --- work counts --------------------------------------------------------------


def test_exact_flux_evaluation_counts():
    """Per-element flux evaluations match the closed-form counts, including
    288 two-point evaluations for d=3, p=3 flux differencing."""
    for d in (2, 3):
        for p in range(3, 8):
            q = p + 1
            mesh = build_mesh((2,) * d)
            setup = build_setup(
                mesh, make_operator(p, "lgl"), GAS, overint_degree=q
            )
            u = random_field(setup, GAS, seed=91 + p, amp=0.3)
            terms = element_metrics(setup.metrics, 0)
            nn = (p + 1) ** d

            c = FluxCounter()
            with count_guard(c):
                volume_strong(u[0], cons2prim(u[0], GAS), setup.op, terms)
            assert c.one_point_evals == d * nn

            c = FluxCounter()
            with count_guard(c):
                volume_weak(u[0], cons2prim(u[0], GAS), setup.op, terms)
            assert c.one_point_evals == d * nn

            c = FluxCounter()
            with count_guard(c):
                volume_fluxdiff(u[0], setup.dsplit, terms, "ranocha", GAS)
            assert c.two_point_evals == d * p * nn // 2
            if (d, p) == (3, 3):
                assert c.two_point_evals == 288

            op_q, transfer, metrics_q = setup.overint
            c = FluxCounter()
            with count_guard(c):
                volume_overintegration(u[0], setup.op, transfer, metrics_q, GAS)
            assert c.one_point_evals == d * (q + 1) ** d


# --- convergence --------------------------------------------------------------


def test_vortex_convergence_order():
    """Fourth-degree elements deliver at least order 3.5 for the vortex
    density over one advection period, and free-stream errors sit at
    roundoff."""
    # entropy stable pairing: the conservative volume flux needs surface
    # dissipation to survive the underresolved coarse levels
    config = make_config(
        None,
        {"kernel": "batched", "surface_flux": "llf", "n_steps": "none",
         "t_end": "10.0"},
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
    worst = 0.0
    for p in range(1, 8):
        for q in range(p, 2 * p + 1):
            tr = transfer_matrices(p, q, "lgl")
            resid = tr.project @ tr.interp - np.eye(p + 1)
            worst = max(worst, float(np.abs(resid).max()))
    assert worst < 1e-13

    for d in (2, 3):
        mesh = build_mesh((2,) * d)
        setup = build_setup(mesh, make_operator(3, "lgl"), GAS, overint_degree=3)
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


def test_timing_trends_soft():
    """Lane flux-form cost ordering, flux-kind cost ordering and the growth
    of the per-DOF cost with degree. Machine noise can invert small gaps, so
    every violation is a warning, not a failure."""
    slack = 1.10

    for kind in ("shima", "ranocha"):
        means = {
            form: microbench_flux(kind, form, 3, n_samples=4000, repeats=3)[0]
            for form in MICROBENCH_FORMS
        }
        for cheap, costly in zip(MICROBENCH_FORMS, MICROBENCH_FORMS[1:]):
            _warn_unless(
                means[cheap] <= means[costly] * slack,
                "%s: expected %s (%.0f ns) <= %s (%.0f ns)"
                % (kind, cheap, means[cheap], costly, means[costly]),
            )

    base = {"d": "3", "elements": "2", "n_steps": "1"}
    pid = {}
    for kind in ("shima", "ranocha"):
        config = make_config(None, dict(base, volume_flux=kind, surface_flux=kind))
        pid[kind] = measure_pid(config, n_rhs=20, repeats=3).mean_pid
    _warn_unless(
        pid["ranocha"] > pid["shima"] / slack,
        "expected ranocha (%.2e) to cost more than shima (%.2e)"
        % (pid["ranocha"], pid["shima"]),
    )

    by_degree = {}
    for p in range(3, 8):
        config = make_config(None, dict(base, p=str(p)))
        by_degree[p] = measure_pid(config, n_rhs=10, repeats=2).mean_pid
    for p in range(3, 7):
        _warn_unless(
            by_degree[p] <= by_degree[p + 1] * slack,
            "per-DOF cost should grow with degree: p=%d %.2e vs p=%d %.2e"
            % (p, by_degree[p], p + 1, by_degree[p + 1]),
        )

    batched = measure_pid(
        make_config(None, dict(base, kernel="batched")), n_rhs=20, repeats=3
    ).mean_pid
    _warn_unless(
        batched <= by_degree[3] * slack,
        "batched kernel (%.2e) should not cost more than reference (%.2e)"
        % (batched, by_degree[3]),
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
