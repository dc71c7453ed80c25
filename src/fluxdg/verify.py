"""Fast self-check of the algebraic properties the solver relies on, and
the one place that decides which RHS configurations the kernels are
compared on and how.

Each check is a deterministic pass over one contract (operator algebra,
flux symmetries, assembled invariants). It takes its range (degrees,
families, dimensions, flux kinds, cases or seeds) as arguments and returns
its worst residual, or its count mismatch. `verify_all` runs each check
over a range small enough that the whole list takes about two seconds; the
tests call these functions over wider ranges and pin their own bounds.

RHS configurations come from one generator, `rhs_cases`, as `RhsCase`s
with stable ids. `compare_kernels` runs one state through both kernels,
`check_batched_kernel` holds cases to the 1e-13 relative contract and to
equal flux counts, and `fingerprints` hashes each kernel's output, so that
two trees can be shown byte-identical case by case.
"""

import hashlib
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .discretization import (
    KERNELS,
    VOLUME_SCHEMES,
    RhsConfig,
    build_setup,
    conserved_totals,
    entropy_rate,
    rhs,
    volume_overintegration,
    volume_strong,
    volume_weak,
)
from .errors import ConfigurationError
from .euler import GasParams, cons2prim, entropy_and_potential, entropy_vars, prim2cons
from .fluxes import SURFACE_KINDS, VOLUME_KINDS, FluxCounter, count_guard
from .geometry import build_mesh
from .harness import build_run, free_stream_primitives, RunConfig
from .operators import (
    FAMILIES,
    build_hybridized,
    hybridized_scatter,
    make_operator,
    transfer_matrices,
)
from .reference import (
    flux_function,
    logmean_optimized,
    logmean_reference,
    volume_fluxdiff,
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


# the mapping degree of sub-parametric curved meshes: 1, the degree of the
# gauss3d_curved benchmark mesh
SUB_PARAMETRIC_DEGREE = 1
# the meshes of rhs_cases: flat, curved at the solution degree, curved at
# SUB_PARAMETRIC_DEGREE
MESHES = ("cartesian", "isoparametric", "subparametric")
TWO_POINT_SCHEMES = ("fluxdiff", "gauss_fluxdiff")
_GAS = GasParams(1.4)


@dataclass(frozen=True)
class RhsCase:
    """One right-hand-side configuration and the seed of its random field:
    the mesh (elements per direction, curve amplitude, 0.0 for Cartesian,
    and mapping degree, None for isoparametric), the node family and
    degree, and the scheme."""

    dims: tuple
    amplitude: float
    geo_degree: int | None
    family: str
    p: int
    config: RhsConfig
    seed: int

    @property
    def id(self):
        """A stable name, such as 2x3-curved0.1-geo1-gauss-p3-weak-ranocha-llf-s0."""
        mesh = "curved%g" % self.amplitude if self.amplitude else "cartesian"
        if self.geo_degree is not None:
            mesh += "-geo%d" % self.geo_degree
        c = self.config
        scheme = c.volume_scheme
        if c.overint_degree is not None:
            scheme += "-q%d" % c.overint_degree
        return "%s-%s-%s-p%d-%s-%s-%s-s%d" % (
            "x".join(map(str, self.dims)), mesh, self.family, self.p, scheme,
            c.volume_flux, c.surface_flux, self.seed,
        )

    def setup(self):
        mesh = build_mesh(self.dims, amplitude=self.amplitude, geo_degree=self.geo_degree)
        return build_setup(mesh, make_operator(self.p, self.family), _GAS)

    def field(self, setup, amp):
        """The case's admissible random field of amplitude amp on setup."""
        return random_field(setup, setup.gas, self.seed, amp)


def rhs_cases(
    dims,
    degrees,
    families=FAMILIES,
    meshes=MESHES,
    schemes=VOLUME_SCHEMES,
    volume_fluxes=VOLUME_KINDS,
    surface_fluxes=SURFACE_KINDS,
    seeds=(0,),
    amplitude=0.1,
):
    """The RhsCases of the product of the ranges, nested in argument order
    (dims outermost), without the configurations RhsConfig.validate
    rejects. dims holds elements-per-direction tuples, meshes names from
    MESHES; curved meshes take the given amplitude. One rule each decides
    the rest: overintegration runs at degree p + 1, a sub-parametric mesh
    maps at SUB_PARAMETRIC_DEGREE, and the one-point schemes, which read no
    volume flux, run once with the first of volume_fluxes."""
    cases = []
    for dim, mesh, family, p in product(dims, meshes, families, degrees):
        curve = 0.0 if mesh == "cartesian" else amplitude
        geo = SUB_PARAMETRIC_DEGREE if mesh == "subparametric" else None
        setup = RhsCase(dim, curve, geo, family, p, RhsConfig(), 0).setup()
        for scheme in schemes:
            kinds = volume_fluxes if scheme in TWO_POINT_SCHEMES else volume_fluxes[:1]
            for vol, surface, seed in product(kinds, surface_fluxes, seeds):
                overint = p + 1 if scheme == "overintegration" else None
                config = RhsConfig(scheme, vol, surface, overint_degree=overint)
                try:
                    config.validate(setup)
                except ConfigurationError:
                    continue
                cases.append(RhsCase(dim, curve, geo, family, p, config, seed))
    return cases


def _counted_rhs(u, setup, config, kernel):
    """(rhs with kernel, its (two-point, one-point, log-mean) counts)."""
    c = FluxCounter()
    with count_guard(c):
        dudt = rhs(u, setup, replace(config, kernel=kernel))
    return dudt, (c.two_point_evals, c.one_point_evals, c.logmean_evals)


def compare_kernels(u, setup, config):
    """(relative_gap of the batched from the reference rhs of u, {kernel:
    (two-point, one-point, log-mean) counts})."""
    runs = {kernel: _counted_rhs(u, setup, config, kernel) for kernel in KERNELS}
    gap = relative_gap(runs["reference"][0], runs["batched"][0])
    return gap, {kernel: counts for kernel, (_, counts) in runs.items()}


def _batched_counts(counts, setup, config):
    """The counts the batched kernel must report where the reference kernel
    reports counts: the same, but that the batched gauss_fluxdiff surface
    (mesh_gauss_surface) evaluates each face flux once per adjacent element,
    one more two-point evaluation per face point, with the two log means of
    a ranocha flux. perfbench pins that second evaluation as
    batched.mesh_gauss_surface.useful_eval_ratio == 0.5."""
    if config.volume_scheme != "gauss_fluxdiff":
        return counts
    points = setup.d * setup.n_elements * setup.op.n_nodes ** (setup.d - 1)
    logs = 2 if config.surface_flux == "ranocha" else 0
    return (counts[0] + points, counts[1], counts[2] + logs * points)


def fingerprints(cases, amp):
    """{case id: {kernel: (sha256 of the C-order rhs bytes, (two-point,
    one-point, log-mean) counts)}} over cases (RhsCases), each on its
    random field of amplitude amp. Two trees are byte-identical on the
    cases where their fingerprints are equal. The bytes depend on numpy and
    BLAS, so fingerprints are compared within one environment only."""
    found = {}
    for case in cases:
        setup = case.setup()
        u = case.field(setup, amp)
        found[case.id] = {}
        for kernel in KERNELS:
            dudt, counts = _counted_rhs(u, setup, case.config, kernel)
            digest = hashlib.sha256(np.ascontiguousarray(dudt).tobytes()).hexdigest()
            found[case.id][kernel] = (digest, counts)
    return found


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
    """Largest entry of M C + (M C)t on Lobatto nodes, C the matrix of the
    volume pair weights of operators.hybridized_scatter, (a, b, c_ab, c_ba)
    read as C[a, b] = c_ab and C[b, a] = c_ba: the split derivative that
    Lobatto flux differencing applies. The table holds no diagonal."""
    worst = 0.0
    for p in degrees:
        op = make_operator(p, "lgl")
        mat = np.zeros((p + 1, p + 1))
        for a, b, cab, cba in hybridized_scatter(p, "lgl")[0]:
            mat[a, b], mat[b, a] = cab, cba
        md = op.weights[:, None] * mat
        worst = max(worst, float(np.abs(md + md.T).max()))
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


def check_free_stream(cases):
    """Largest |du/dt| of a constant state under each case's rhs (RhsCases;
    their random fields are not drawn)."""
    worst = 0.0
    for case in cases:
        setup = case.setup()
        u = prim2cons(free_stream_primitives(setup.coords), setup.gas)
        worst = max(worst, float(np.abs(rhs(u, setup, case.config)).max()))
    return worst


def check_batched_kernel(cases, amp):
    """(largest relative gap between the reference and batched rhs, where it
    occurs) over cases (RhsCases), each on its random field of amplitude
    amp. The flux counts must be those of _batched_counts: the first case
    whose counts are not ends the check with an infinite gap, and `where`
    names that case and both counts."""
    cases = list(cases)
    worst, worst_id = 0.0, None
    for case in cases:
        setup = case.setup()
        gap, counts = compare_kernels(case.field(setup, amp), setup, case.config)
        want = _batched_counts(counts["reference"], setup, case.config)
        if counts["batched"] != want:
            return math.inf, "counts differ at %s: reference %s, batched %s, want %s" % (
                case.id, counts["reference"], counts["batched"], want)
        if worst_id is None or gap > worst:
            worst, worst_id = gap, case.id
    return worst, "worst at %s of %d cases" % (worst_id, len(cases))


def check_transfer_round_trip(pairs):
    """Largest entry of project @ interp - I over (p, q) degree pairs."""
    worst = 0.0
    for p, q in pairs:
        tr = transfer_matrices(p, q, "lgl")
        worst = max(worst, float(np.abs(tr.project @ tr.interp - np.eye(p + 1)).max()))
    return worst


def check_flux_counts(dims, degrees):
    """Largest gap between the (one-point, two-point, log-mean) evaluations
    of the volume terms of a mesh of 2^d Lobatto elements and their closed
    forms per element times the element count: d (p+1)^d one-point for
    strong and weak, d p (p+1)^d / 2 two-point with two log means each for
    ranocha flux differencing, and d (q+1)^d one-point for overintegration
    at every fine degree q in p+1..2p."""
    gas = GasParams(1.4)
    worst = 0
    for d, p in product(dims, degrees):
        setup = build_setup(build_mesh((2,) * d), make_operator(p, "lgl"), gas)
        u = random_field(setup, gas, seed=p, amp=0.3)
        prim = cons2prim(u, gas)
        op, metrics, n_elem = setup.op, setup.metrics, setup.n_elements
        nn = (p + 1) ** d
        pairs = n_elem * d * p * nn // 2
        calls = [
            (volume_strong, (u, prim, op, metrics), (n_elem * d * nn, 0, 0)),
            (volume_weak, (u, prim, op, metrics), (n_elem * d * nn, 0, 0)),
            (volume_fluxdiff, (u, op, metrics, "ranocha", gas), (0, pairs, 2 * pairs)),
        ] + [
            (volume_overintegration, (u, op, q, metrics, gas),
             (n_elem * d * (q + 1) ** d, 0, 0))
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
    largest is below the bound; one that returns (residual, where) names
    where in its detail."""
    # every scheme on curved meshes and, with every surface kind, on
    # anisotropic Cartesian meshes, where each direction has its own area
    kernel_cases = rhs_cases(
        ((3, 3), (2, 2, 2)), (3,), meshes=MESHES[1:], volume_fluxes=("ranocha",),
        surface_fluxes=("ranocha", "llf"), seeds=(6,),
    ) + rhs_cases(
        ((2, 3), (3, 1, 2)), (3,), meshes=MESHES[:1],
        volume_fluxes=("central", "ranocha"), seeds=(6,),
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
         dict(cases=rhs_cases(((3, 3), (3, 3, 3)), (3,), meshes=("isoparametric",),
                              schemes=TWO_POINT_SCHEMES, volume_fluxes=("ranocha",),
                              surface_fluxes=("ranocha",), amplitude=0.15)), 1e-12),
        ("batched kernel agreement", check_batched_kernel,
         dict(cases=kernel_cases, amp=0.4), 1e-13),
        ("overintegration round trip", check_transfer_round_trip,
         dict(pairs=[(p, q) for p in range(1, 7) for q in (p, 2 * p)]), 1e-13),
        ("flux evaluation counts", check_flux_counts,
         dict(dims=(2,), degrees=(3,)), 1),
        ("entropy and conservation balance", check_semidiscrete_invariants,
         dict(states=[(r.u0, r.setup, r.scheme) for r in balance_runs]), 1e-12),
    )
    results = []
    for name, check, ranges, bound in table:
        got = check(**ranges)
        where = ""
        if isinstance(got, tuple) and isinstance(got[-1], str):
            got, where = got[0], ", " + got[1]
        worst = float(np.max(got))
        detail = "max residual %.3e (bound %.1e)%s" % (worst, bound, where)
        results.append(CheckResult(name, worst < bound, detail))
    return results
