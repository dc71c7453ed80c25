"""Fast self-check of the algebraic properties the solver relies on.

Each check is a deterministic pass over one contract (operator algebra,
flux symmetries, assembled invariants). It takes its range (degrees,
families, dimensions, flux kinds, cases or seeds) as arguments and returns
its worst residual, or its count mismatch. `verify_all` runs each check
over a range small enough that the whole list takes about a second; the
tests call these functions over wider ranges and pin their own bounds.
"""

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .discretization import (
    RhsConfig,
    build_setup,
    conserved_totals,
    entropy_rate,
    rhs,
    volume_fluxdiff,
    volume_overintegration,
    volume_strong,
    volume_weak,
)
from .euler import GasParams, cons2prim, entropy_and_potential, entropy_vars, prim2cons
from .fluxes import FluxCounter, count_guard, flux_function
from .geometry import build_mesh, element_metrics
from .harness import build_run, RunConfig
from .means import logmean_optimized, logmean_reference
from .operators import (
    FAMILIES,
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


def relative_gap(ref, got):
    """max|ref - got| / max(1, max|ref|)."""
    scale = max(1.0, float(np.abs(ref).max()))
    return float(np.abs(ref - got).max()) / scale


def random_primitives(rng, d, n, amp=1.0):
    """(n, d+2) admissible primitive states drawn from rng in the order rho,
    v, p: rho and p in [1, 1+amp], v in [-amp/2, amp/2]."""
    q = np.empty((n, d + 2))
    q[:, 0] = 1.0 + amp * rng.random(n)
    q[:, 1 : d + 1] = amp * (rng.random((n, d)) - 0.5)
    q[:, d + 1] = 1.0 + amp * rng.random(n)
    return q


def random_field(setup, gas, seed=0, amp=1.0):
    """Admissible random conserved field shaped for setup.

    Large amp exercises the kernels hard; keep amp <= ~0.3 for anything
    that entropy-projects (wild nodal data can leave the admissible set
    after projection, which is physical, not a bug).
    """
    rng = np.random.default_rng(seed)
    q = random_primitives(rng, setup.d, setup.n_elements * setup.n_nodes, amp)
    return prim2cons(q, gas).reshape(setup.n_elements, setup.n_nodes, setup.d + 2)


def check_sbp_identity(degrees, families):
    """Largest entry of M D + Dt M - Rt B N R."""
    worst = 0.0
    for family, p in product(families, degrees):
        op = make_operator(p, family)
        m = np.diag(op.weights)
        lhs = m @ op.D + op.D.T @ m
        bnd = op.boundary_interp.T @ np.diag(_N_FACE) @ op.boundary_interp
        worst = max(worst, float(np.abs(lhs - bnd).max()))
    return worst


def check_split_antisymmetry(degrees):
    """Largest entry of M Dsplit + (M Dsplit)t and of the diagonal of Dsplit
    on Lobatto nodes."""
    worst = 0.0
    for p in degrees:
        op = make_operator(p, "lgl")
        mat = build_dsplit(op)
        md = op.weights[:, None] * mat
        worst = max(worst, float(np.abs(md + md.T).max()))
        worst = max(worst, float(np.abs(np.diag(mat)).max()))
    return worst


def check_hybridized_rows(degrees, families):
    """(largest entry of Qh + Qht - B, largest row sum of Qh), where B is
    zero but for the face-face block diag(-1, 1): the hybridized operator
    is SBP, and it annihilates constants (volume rows by the SBP identity,
    face rows by R 1 = 1). The two are returned apart because row sums
    round at a larger scale."""
    skew = rows = 0.0
    for family, p in product(families, degrees):
        op = make_operator(p, family)
        q = build_hybridized(op)
        n = op.n_nodes
        sym = q + q.T
        sym[n:, n:] -= np.diag(_N_FACE)
        skew = max(skew, float(np.abs(sym).max()))
        rows = max(rows, float(np.abs(q.sum(axis=1)).max()))
    return skew, rows


def check_logmean(separated, close):
    """Largest gap of the optimized log mean, relative to the first
    argument, from the direct formula on separated pairs and from the
    midpoint on close pairs."""
    # the direct formula is the oracle only for well-separated arguments;
    # near-equal pairs are where it cancels and the series is the truth,
    # so there the check is agreement with the midpoint (error O(jump^2))
    worst = 0.0
    for a, b in separated:
        worst = max(worst, abs(logmean_optimized(a, b) - logmean_reference(a, b)) / a)
    for a, b in close:
        worst = max(worst, abs(logmean_optimized(a, b) - 0.5 * (a + b)) / a)
    return worst


def check_entropy_conservative_flux(dims, n_pairs, n_close=0):
    """Worst residual of the entropy condition (w_r - w_l) . f = (psi_r -
    psi_l) . n of the ranocha flux in float64, over n_pairs random state
    pairs and signed normals per dimension, the first n_close pairs a
    relative 1e-9 apart (the log-mean series branch). Each residual is
    normalized by the terms that cancel in the contraction."""
    gas = GasParams(1.4)
    kernel = flux_function("ranocha")
    worst = 0.0
    for d in dims:
        rng = np.random.default_rng(d)
        ql = random_primitives(rng, d, n_pairs)
        qr = random_primitives(rng, d, n_pairs)
        wiggle = 1e-9 * rng.standard_normal((n_close, d + 2))
        qr[:n_close] = ql[:n_close] * (1.0 + wiggle)
        normals = rng.standard_normal((n_pairs, d))
        ul, ur = prim2cons(ql, gas), prim2cons(qr, gas)
        dw = entropy_vars(ur, gas) - entropy_vars(ul, gas)
        psi_l, psi_r = (entropy_and_potential(u, gas)[1] for u in (ul, ur))
        dpsi = np.sum((psi_r - psi_l) * normals, axis=1)
        for i in range(n_pairs):
            f = kernel(ul[i].tolist(), ur[i].tolist(), tuple(normals[i]), gas)
            terms = dw[i] * np.asarray(f)
            scale = float(np.abs(terms).sum()) + abs(dpsi[i]) + 1.0
            worst = max(worst, abs(float(terms.sum()) - dpsi[i]) / scale)
    return worst


def check_free_stream(dims, degrees, families, kinds, meshes):
    """Largest |du/dt| of a constant state under each family's two-point
    scheme, with one flux kind as both volume and surface flux, on
    sine-curved meshes given as (elements per direction, amplitude)."""
    worst = 0.0
    grid = product(dims, degrees, families, kinds, meshes)
    for d, p, family, kind, (elements, amplitude) in grid:
        scheme = "fluxdiff" if family == "lgl" else "gauss_fluxdiff"
        run = build_run(RunConfig(
            d=d, p=p, elements=elements, mesh="curved", amplitude=amplitude,
            family=family, volume_scheme=scheme, volume_flux=kind,
            surface_flux=kind, ic="free_stream",
        ))
        worst = max(worst, float(np.abs(rhs(run.u0, run.setup, run.scheme)).max()))
    return worst


def check_batched_kernel(cases, seeds, amp):
    """Worst relative_gap between the reference and batched rhs of degree 3,
    over random fields of amplitude amp from each seed and over cases
    (dims, amplitude, family, geo_degree, config), each on a mesh curved
    with its amplitude (0.0: Cartesian)."""
    gas = GasParams(1.4)
    worst = 0.0
    for dims, amplitude, family, geo_degree, config in cases:
        mesh = build_mesh(dims, amplitude=amplitude, geo_degree=geo_degree)
        setup = build_setup(mesh, make_operator(3, family), gas)
        for seed in seeds:
            u = random_field(setup, gas, seed, amp)
            ref = rhs(u, setup, replace(config, kernel="reference"))
            got = rhs(u, setup, replace(config, kernel="batched"))
            worst = max(worst, relative_gap(ref, got))
    return worst


def check_transfer_round_trip(pairs):
    """Largest entry of project @ interp - I over (p, q) degree pairs."""
    worst = 0.0
    for p, q in pairs:
        tr = transfer_matrices(p, q, "lgl")
        worst = max(worst, float(np.abs(tr.project @ tr.interp - np.eye(p + 1)).max()))
    return worst


def check_flux_counts(dims, degrees):
    """Largest gap between the (one-point, two-point, log-mean) evaluations
    of one Lobatto element's volume term and their closed forms: d (p+1)^d
    one-point for strong and weak, d p (p+1)^d / 2 two-point with two log
    means each for ranocha flux differencing, and d (q+1)^d one-point for
    overintegration at every fine degree q in p+1..2p."""
    gas = GasParams(1.4)
    worst = 0
    for d, p in product(dims, degrees):
        setup = build_setup(build_mesh((2,) * d), make_operator(p, "lgl"), gas)
        u = random_field(setup, gas, seed=p, amp=0.3)[0]
        prim = cons2prim(u, gas)
        terms = element_metrics(setup.metrics, 0)
        nn = (p + 1) ** d
        pairs = d * p * nn // 2
        calls = [
            (volume_strong, (u, prim, setup.op, terms), (d * nn, 0, 0)),
            (volume_weak, (u, prim, setup.op, terms), (d * nn, 0, 0)),
            (volume_fluxdiff, (u, setup.op, terms, "ranocha", gas), (0, pairs, 2 * pairs)),
        ] + [
            (volume_overintegration, (u, setup.op, q, terms, gas), (d * (q + 1) ** d, 0, 0))
            for q in range(p + 1, 2 * p + 1)
        ]
        for fn, args, want in calls:
            c = FluxCounter()
            with count_guard(c):
                fn(*args)
            got = (c.one_point_evals, c.two_point_evals, c.logmean_evals)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    return worst


def check_semidiscrete_invariants(states):
    """(largest |normalized entropy rate|, largest rate of a conserved total
    over the largest total) of rhs over (u, setup, scheme) states."""
    entropy = totals = 0.0
    for u, setup, scheme in states:
        dudt = rhs(u, setup, scheme)
        _, normalized = entropy_rate(u, dudt, setup)
        scale = float(np.abs(conserved_totals(u, setup)).max())
        entropy = max(entropy, abs(normalized))
        totals = max(totals, float(np.abs(conserved_totals(dudt, setup)).max()) / scale)
    return entropy, totals


def verify_all():
    """Run every check over its verify range; returns the list of
    CheckResults. A check that returns several residuals passes when the
    largest is below the bound."""
    batched_cases = (
        ((3, 3), 0.1, "lgl", None, RhsConfig()),
        ((3, 3), 0.1, "lgl", None, RhsConfig(volume_scheme="strong", surface_flux="llf")),
        ((3, 3), 0.1, "gauss", 2, RhsConfig(volume_scheme="weak", surface_flux="llf")),
        ((3, 3), 0.1, "gauss", 2, RhsConfig(volume_scheme="gauss_fluxdiff")),
        ((2, 2, 2), 0.1, "lgl", None, RhsConfig()),
        # Cartesian and anisotropic, so every direction has its own face
        # area: each scheme once, each surface kind once
        ((2, 3), 0.0, "lgl", None, RhsConfig(volume_scheme="strong", surface_flux="llf")),
        ((2, 3), 0.0, "gauss", None, RhsConfig(volume_scheme="weak", surface_flux="hll")),
        ((3, 1, 2), 0.0, "lgl", None, RhsConfig(volume_flux="central", surface_flux="central")),
        ((2, 3), 0.0, "lgl", None, RhsConfig(
            volume_scheme="overintegration", overint_degree=4, surface_flux="shima")),
        ((3, 1, 2), 0.0, "gauss", None, RhsConfig(volume_scheme="gauss_fluxdiff")),
    )
    balance_runs = [
        build_run(RunConfig(d=2, elements=4)),
        build_run(RunConfig(d=2, elements=4, mesh="curved", family="gauss",
                            volume_scheme="gauss_fluxdiff")),
    ]
    table = (
        ("sbp identity (both families)", check_sbp_identity,
         dict(degrees=range(1, 11), families=FAMILIES), 1e-13),
        ("split derivative antisymmetry", check_split_antisymmetry,
         dict(degrees=range(1, 11)), 1e-14),
        ("hybridized operator algebra", check_hybridized_rows,
         dict(degrees=range(1, 9), families=FAMILIES), 1e-13),
        ("logarithmic mean branches", check_logmean,
         dict(separated=((1.0, 2.5), (1e-5, 2e-5), (0.3, 4.0)),
              close=((3.0, 3.0 + 1e-10), (7.0, 7.0))), 1e-13),
        ("entropy condition of the volume flux", check_entropy_conservative_flux,
         dict(dims=(2, 3), n_pairs=400), 1e-12),
        ("free-stream preservation (curved)", check_free_stream,
         dict(dims=(2,), degrees=(3,), families=FAMILIES, kinds=("ranocha",),
              meshes=((3, 0.15),)), 1e-12),
        ("batched kernel agreement", check_batched_kernel,
         dict(cases=batched_cases, seeds=(6,), amp=0.4), 1e-13),
        ("overintegration round trip", check_transfer_round_trip,
         dict(pairs=[(p, q) for p in range(1, 7) for q in (p, 2 * p)]), 1e-13),
        ("flux evaluation counts", check_flux_counts,
         dict(dims=(2,), degrees=(3,)), 1),
        ("entropy and conservation balance", check_semidiscrete_invariants,
         dict(states=[(r.u0, r.setup, r.scheme) for r in balance_runs]), 1e-12),
    )
    results = []
    for name, check, ranges, bound in table:
        worst = float(np.max(check(**ranges)))
        detail = "max residual %.3e (bound %.1e)" % (worst, bound)
        results.append(CheckResult(name, worst < bound, detail))
    return results
