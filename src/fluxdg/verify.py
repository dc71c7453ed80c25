"""Fast self-check of the algebraic properties the solver relies on.

Each check is a cheap, deterministic pass over one contract (operator
algebra, flux symmetries, assembled invariants). The whole list runs in a
few seconds; the test suite covers the same ground, and much more, with
pinned tolerances.
"""

from dataclasses import dataclass, replace

import numpy as np

from .discretization import (
    RhsConfig,
    build_setup,
    conserved_totals,
    entropy_rate,
    rhs,
    volume_fluxdiff,
    volume_strong,
)
from .euler import GasParams, cons2prim, entropy_and_potential, entropy_vars, prim2cons
from .fluxes import FluxCounter, count_guard, flux_function
from .geometry import build_mesh, element_metrics
from .harness import build_run, RunConfig
from .means import logmean_optimized, logmean_reference
from .operators import (
    build_dsplit,
    build_hybridized,
    make_operator,
    transfer_matrices,
)

_N_FACE = (-1.0, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _result(name, worst, bound):
    return CheckResult(name, worst < bound, "max residual %.3e (bound %.1e)" % (worst, bound))


def check_sbp_identity(max_degree=10):
    worst = 0.0
    for family in ("lgl", "gauss"):
        for p in range(1, max_degree + 1):
            op = make_operator(p, family)
            m = np.diag(op.weights)
            lhs = m @ op.D + op.D.T @ m
            rhs_ = op.boundary_interp.T @ np.diag(_N_FACE) @ op.boundary_interp
            worst = max(worst, float(np.abs(lhs - rhs_).max()))
    return _result("sbp identity (both families)", worst, 1e-13)


def check_split_antisymmetry(max_degree=10):
    worst = 0.0
    diag = 0.0
    for p in range(1, max_degree + 1):
        op = make_operator(p, "lgl")
        mat = build_dsplit(op).matrix
        md = op.weights[:, None] * mat
        worst = max(worst, float(np.abs(md + md.T).max()))
        diag = max(diag, float(np.abs(np.diag(mat)).max()))
    return _result("split derivative antisymmetry", max(worst, diag), 1e-14)


def check_hybridized_rows(max_degree=8):
    worst = 0.0
    for family in ("lgl", "gauss"):
        for p in range(1, max_degree + 1):
            op = make_operator(p, family)
            q = build_hybridized(op).q_matrix
            n = op.n_nodes
            worst = max(worst, float(np.abs(q.sum(axis=1)).max()))
            sym = q + q.T
            worst = max(worst, float(np.abs(sym[:n, :]).max()))
    return _result("hybridized operator algebra", worst, 1e-13)


def check_logmean():
    worst = 0.0
    # the direct formula is the oracle only for well-separated arguments;
    # near-equal pairs are where it cancels and the series is the truth,
    # so there the check is agreement with the midpoint (error O(jump^2))
    for a, b in ((1.0, 2.5), (1e-5, 2e-5), (0.3, 4.0)):
        worst = max(
            worst, abs(logmean_optimized(a, b) - logmean_reference(a, b)) / a
        )
    for a, b in ((3.0, 3.0 + 1e-10), (7.0, 7.0)):
        worst = max(worst, abs(logmean_optimized(a, b) - 0.5 * (a + b)) / a)
    return _result("logarithmic mean branches", worst, 1e-13)


def check_entropy_conservative_flux(n_pairs=400):
    gas = GasParams(1.4)
    worst = 0.0
    for d in (2, 3):
        rng = np.random.default_rng(d)
        kernel = flux_function("ranocha")
        q = np.empty((2 * n_pairs, d + 2))
        q[:, 0] = 1.0 + rng.random(2 * n_pairs)
        q[:, 1 : d + 1] = rng.random((2 * n_pairs, d)) - 0.5
        q[:, d + 1] = 1.0 + rng.random(2 * n_pairs)
        u = prim2cons(q, gas)
        w = entropy_vars(u, gas)
        _, psi = entropy_and_potential(u, gas)
        normals = rng.random((n_pairs, d)) + 0.2
        for i in range(n_pairs):
            ul = u[2 * i].tolist()
            ur = u[2 * i + 1].tolist()
            nrm = tuple(normals[i])
            f = kernel(ul, ur, nrm, gas)
            dw = w[2 * i + 1] - w[2 * i]
            dpsi = float((psi[2 * i + 1] - psi[2 * i]) @ normals[i])
            resid = abs(float(dw @ np.asarray(f)) - dpsi)
            scale = abs(dpsi) + float(np.abs(dw).max()) + 1.0
            worst = max(worst, resid / scale)
    return _result("entropy condition of the volume flux", worst, 1e-12)


def check_free_stream():
    worst = 0.0
    for family in ("lgl", "gauss"):
        cfg = RunConfig(
            d=2,
            elements=3,
            mesh="curved",
            amplitude=0.15,
            family=family,
            volume_scheme="fluxdiff" if family == "lgl" else "gauss_fluxdiff",
            ic="free_stream",
        )
        run = build_run(cfg)
        r = rhs(run.u0, run.setup, run.scheme)
        worst = max(worst, float(np.abs(r).max()))
    return _result("free-stream preservation (curved)", worst, 1e-12)


def _random_state(setup, gas, seed, amp):
    rng = np.random.default_rng(seed)
    n = setup.n_elements * setup.n_nodes
    q = np.empty((n, setup.d + 2))
    q[:, 0] = 1.0 + amp * rng.random(n)
    q[:, 1 : setup.d + 1] = amp * (rng.random((n, setup.d)) - 0.5)
    q[:, setup.d + 1] = 1.0 + amp * rng.random(n)
    u = prim2cons(q, gas)
    return u.reshape(setup.n_elements, setup.n_nodes, setup.d + 2)


def check_batched_kernel():
    gas = GasParams(1.4)
    cases = (
        ((3, 3), "lgl", None, RhsConfig()),
        ((3, 3), "lgl", None, RhsConfig(volume_scheme="strong", surface_flux="llf")),
        ((3, 3), "gauss", 2, RhsConfig(volume_scheme="weak", surface_flux="llf")),
        ((3, 3), "gauss", 2, RhsConfig(volume_scheme="gauss_fluxdiff")),
        ((2, 2, 2), "lgl", None, RhsConfig(volume_flux="ranocha")),
    )
    worst = 0.0
    for dims, family, geo_degree, config in cases:
        mesh = build_mesh(dims, amplitude=0.1, geo_degree=geo_degree)
        setup = build_setup(mesh, make_operator(3, family), gas)
        u = _random_state(setup, gas, seed=6, amp=0.4)
        a = rhs(u, setup, config)
        b = rhs(u, setup, replace(config, kernel="batched"))
        worst = max(worst, float(np.abs(a - b).max()))
    return _result("batched kernel agreement", worst, 1e-13)


def check_transfer_round_trip(max_degree=6):
    worst = 0.0
    for p in range(1, max_degree + 1):
        for q in (p, 2 * p):
            tr = transfer_matrices(p, q, "lgl")
            resid = tr.project @ tr.interp - np.eye(p + 1)
            worst = max(worst, float(np.abs(resid).max()))
    return _result("overintegration round trip", worst, 1e-13)


def check_flux_counts():
    gas = GasParams(1.4)
    mesh = build_mesh((2, 2))
    setup = build_setup(mesh, make_operator(3, "lgl"), gas)
    u = _random_state(setup, gas, seed=7, amp=0.4)
    terms = element_metrics(setup.metrics, 0)
    c = FluxCounter()
    with count_guard(c):
        volume_strong(u[0], cons2prim(u[0], gas), setup.op, terms)
        volume_fluxdiff(u[0], setup.op, terms, "ranocha", gas)
    ok = c.one_point_evals == 2 * 16 and c.two_point_evals == 2 * 3 * 16 // 2
    detail = "one-point %d (want 32), two-point %d (want 48)" % (
        c.one_point_evals,
        c.two_point_evals,
    )
    return CheckResult("flux evaluation counts", ok, detail)


def check_semidiscrete_invariants():
    worst = 0.0
    for cfg in (
        RunConfig(d=2, elements=4, n_steps=1),
        RunConfig(
            d=2,
            elements=4,
            n_steps=1,
            mesh="curved",
            family="gauss",
            volume_scheme="gauss_fluxdiff",
            volume_flux="ranocha",
        ),
    ):
        run = build_run(cfg)
        dudt = rhs(run.u0, run.setup, run.scheme)
        _, ds = entropy_rate(run.u0, dudt, run.setup)
        totals = conserved_totals(dudt, run.setup)
        scale = float(np.abs(conserved_totals(run.u0, run.setup)).max())
        worst = max(worst, abs(ds), float(np.abs(totals).max()) / scale)
    return _result("entropy and conservation balance", worst, 1e-12)


ALL_CHECKS = (
    check_sbp_identity,
    check_split_antisymmetry,
    check_hybridized_rows,
    check_logmean,
    check_entropy_conservative_flux,
    check_free_stream,
    check_batched_kernel,
    check_transfer_round_trip,
    check_flux_counts,
    check_semidiscrete_invariants,
)


def verify_all():
    """Run every check; returns the list of CheckResults."""
    return [check() for check in ALL_CHECKS]
