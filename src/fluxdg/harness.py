"""Run configuration, initial conditions, diagnostics and timing loops.

The solver modules know nothing about files, seeds or wall clocks. This
module owns that layer: parsing flat key=value config files, seeding
fields, running solves through `integrate`, timing them, writing CSV.
"""

import csv
import math
import os
import time
from dataclasses import dataclass, fields, replace
from typing import get_args

import numpy as np

from . import batched
from .discretization import (
    RhsConfig,
    build_setup,
    conserved_totals,
    entropy_rate,
    error_norm_l2,
    rhs,
)
from .errors import BenchmarkError, ConfigurationError
from .euler import GasParams, cons2prim, prim2cons
from .fluxes import SURFACE_KINDS
from .geometry import build_mesh
from .operators import FAMILIES, MAX_DEGREE, make_operator
from .reference import flux_function
from .timeint import RK54, StepController, check_schedule, integrate, stable_dt

DOMAIN_LO = -5.0
DOMAIN_HI = 5.0
DOMAIN_LENGTH = DOMAIN_HI - DOMAIN_LO

IC_NAMES = ("isentropic_vortex", "sinusoidal", "random", "free_stream")
MESH_KINDS = ("cartesian", "curved")
FREE_STREAM_VELOCITY = (0.1, -0.2, 0.3)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    """One experiment: mesh, operator, scheme, initial data and time loop.

    Mirrors the flat key=value config format one to one; every field name
    is a valid config key and a valid override.
    """

    d: int = 2
    p: int = 3
    elements: int = 8
    mesh: str = "cartesian"
    amplitude: float = 0.1
    family: str = "lgl"
    volume_scheme: str = "fluxdiff"
    volume_flux: str = "ranocha"
    surface_flux: str = "ranocha"
    kernel: str = "batched"
    overint_degree: int | None = None
    ic: str = "isentropic_vortex"
    epsilon: float = 20.0
    seed: int = 0
    gamma: float = 1.4
    cfl: float = 0.5
    n_steps: int | None = 90
    t_end: float | None = None
    output: str | None = None

    def validate(self):
        if self.d not in (2, 3):
            raise ConfigurationError("d: expected 2 or 3, got %r" % (self.d,))
        if not 1 <= self.p <= MAX_DEGREE:
            raise ConfigurationError("p: expected 1..%d, got %r" % (MAX_DEGREE, self.p))
        if self.family not in FAMILIES:
            raise ConfigurationError(
                "family: expected one of %s, got %r"
                % (", ".join(FAMILIES), self.family)
            )
        if self.elements < 1:
            raise ConfigurationError(
                "elements: expected a positive count, got %r" % (self.elements,)
            )
        if self.mesh not in MESH_KINDS:
            raise ConfigurationError(
                "mesh: expected one of %s, got %r" % (", ".join(MESH_KINDS), self.mesh)
            )
        if self.mesh == "curved" and not 0.0 < self.amplitude < math.inf:
            raise ConfigurationError(
                "amplitude: curved mesh needs a finite positive amplitude, got %r"
                % (self.amplitude,)
            )
        if self.ic not in IC_NAMES:
            raise ConfigurationError(
                "ic: expected one of %s, got %r" % (", ".join(IC_NAMES), self.ic)
            )
        if not 1.0 < self.gamma < math.inf:
            raise ConfigurationError(
                "gamma: expected a finite value > 1, got %r" % (self.gamma,)
            )
        if not math.isfinite(self.epsilon):
            raise ConfigurationError(
                "epsilon: expected a finite vortex strength, got %r" % (self.epsilon,)
            )
        StepController(cfl=self.cfl)
        if self.seed < 0:
            raise ConfigurationError(
                "seed: expected an integer >= 0, got %r" % (self.seed,)
            )
        check_schedule(self.n_steps, self.t_end)
        return self

    def rhs_config(self):
        return RhsConfig(
            volume_scheme=self.volume_scheme,
            volume_flux=self.volume_flux,
            surface_flux=self.surface_flux,
            overint_degree=self.overint_degree,
            kernel=self.kernel,
        )


def _field_type(field):
    """(value type, optional) of a RunConfig field: `int | None` reads as
    (int, True), `float` as (float, False)."""
    args = get_args(field.type) or (field.type,)
    return next(a for a in args if a is not type(None)), type(None) in args


_CONFIG_TYPES = {f.name: _field_type(f) for f in fields(RunConfig)}


def _coerce(key, raw):
    if key not in _CONFIG_TYPES:
        raise ConfigurationError(
            "unknown config key %r (valid: %s)"
            % (key, ", ".join(sorted(_CONFIG_TYPES)))
        )
    if isinstance(raw, str):
        raw = raw.strip()
        kind, optional = _CONFIG_TYPES[key]
        if optional and raw.lower() in ("", "none", "auto"):
            return None
        if kind in (int, float):
            try:
                return kind(raw)
            except ValueError:
                name = "an integer" if kind is int else "a number"
                raise ConfigurationError(
                    "%s: cannot parse %r as %s" % (key, raw, name)
                ) from None
    return raw


def parse_config_file(path):
    """Flat `key = value` lines; '#' starts a comment, blank lines ignored."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigurationError("config: cannot read %r (%s)" % (path, err)) from err
    mapping = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigurationError(
                "config: line %d of %r is not `key = value`: %r"
                % (lineno, path, body)
            )
        key, value = body.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def make_config(mapping=None, overrides=None):
    """Build a validated RunConfig from raw string mappings; overrides win."""
    merged = {}
    for source in (mapping, overrides):
        for key, value in (source or {}).items():
            merged[key] = _coerce(key, value)
    return RunConfig(**merged).validate()


def load_config(path=None, overrides=None):
    mapping = parse_config_file(path) if path else {}
    return make_config(mapping, overrides)


# ---------------------------------------------------------------------------
# initial conditions

def _wrap_periodic(x):
    return (x - DOMAIN_LO) % DOMAIN_LENGTH + DOMAIN_LO


def vortex_primitives(x, t=0.0, epsilon=20.0, gamma=1.4):
    """Isentropic vortex carried by the background velocity (1, 1[, 0]).

    T0 = p0/rho0 = 10; the profile is a temperature deficit around the
    (periodically wrapped) advected center, exact for all times.
    """
    d = x.shape[-1]
    t0 = 10.0
    v0 = (1.0, 1.0, 0.0)[:d]
    xr = _wrap_periodic(x - t * np.asarray(v0))
    r2 = xr[..., 0] ** 2 + xr[..., 1] ** 2
    deficit = (gamma - 1.0) * epsilon**2 / (8.0 * gamma * math.pi**2)
    temp = t0 - deficit * np.exp(1.0 - r2)
    rho = (temp / t0) ** (1.0 / (gamma - 1.0))
    swirl = epsilon / (2.0 * math.pi) * np.exp(0.5 * (1.0 - r2))
    prim = np.zeros(x.shape[:-1] + (d + 2,))
    prim[..., 0] = rho
    prim[..., 1] = v0[0] - swirl * xr[..., 1]
    prim[..., 2] = v0[1] + swirl * xr[..., 0]
    prim[..., d + 1] = rho * temp
    return prim


def sinusoidal_primitives(x, gamma=1.4):
    """rho = 2 + prod_i sin(pi x_i / 5), p = rho^gamma, fluid at rest."""
    d = x.shape[-1]
    rho = 2.0 + np.prod(np.sin(math.pi * x / 5.0), axis=-1)
    prim = np.zeros(x.shape[:-1] + (d + 2,))
    prim[..., 0] = rho
    prim[..., d + 1] = rho**gamma
    return prim


def free_stream_primitives(x):
    d = x.shape[-1]
    prim = np.empty(x.shape[:-1] + (d + 2,))
    prim[..., 0] = 1.0
    for i in range(d):
        prim[..., 1 + i] = FREE_STREAM_VELOCITY[i]
    prim[..., d + 1] = 1.0
    return prim


def random_primitives(x, seed):
    """Reproducible uniform field: rho, p in [1, 2], velocities in [-1, 1]."""
    d = x.shape[-1]
    rng = np.random.default_rng(seed)
    prim = np.empty(x.shape[:-1] + (d + 2,))
    prim[..., 0] = 1.0 + rng.random(x.shape[:-1])
    for i in range(d):
        prim[..., 1 + i] = 2.0 * rng.random(x.shape[:-1]) - 1.0
    prim[..., d + 1] = 1.0 + rng.random(x.shape[:-1])
    return prim


@dataclass(frozen=True)
class Run:
    """A resolved configuration: operators built, initial state sampled.
    The mesh and gas are setup.mesh and setup.gas."""

    config: RunConfig
    setup: object
    scheme: RhsConfig
    controller: StepController
    u0: np.ndarray
    exact: object  # exact(t) -> field, or None

    def rhs_fn(self, u, t):
        """The configured right-hand side, as `integrate` calls it."""
        return rhs(u, self.setup, self.scheme)

    def dt_fn(self, u, t):
        """The configured CFL step size at state u."""
        setup = self.setup
        return stable_dt(
            u, setup.mesh, setup.metrics, setup.gas, self.config.p, self.controller
        )


def build_run(config):
    config.validate()
    gas = GasParams(config.gamma)
    amplitude = config.amplitude if config.mesh == "curved" else 0.0
    mesh = build_mesh(
        (config.elements,) * config.d,
        bounds=(DOMAIN_LO, DOMAIN_HI),
        amplitude=amplitude,
    )
    op = make_operator(config.p, config.family)
    setup = build_setup(mesh, op, gas)
    scheme = config.rhs_config()
    scheme.validate(setup)
    x = setup.coords
    exact = None
    if config.ic == "isentropic_vortex":
        def exact(t, _x=x, eps=config.epsilon, g=config.gamma):
            return prim2cons(vortex_primitives(_x, t, eps, g), gas)

        u0 = exact(0.0)
    elif config.ic == "sinusoidal":
        u0 = prim2cons(sinusoidal_primitives(x, config.gamma), gas)
    elif config.ic == "random":
        u0 = prim2cons(random_primitives(x, config.seed), gas)
    else:
        def exact(t, _x=x):
            return prim2cons(free_stream_primitives(_x), gas)

        u0 = exact(0.0)
    return Run(config, setup, scheme, StepController(cfl=config.cfl), u0, exact)


def _as_run(config_or_run):
    return config_or_run if isinstance(config_or_run, Run) else build_run(config_or_run)


# ---------------------------------------------------------------------------
# simulations and diagnostics

@dataclass(frozen=True)
class RunResult:
    fields: np.ndarray
    steps: int
    t: float
    rhs_evals: int
    totals_initial: np.ndarray
    totals_final: np.ndarray
    conservation_drift: float
    error_l2: np.ndarray | None


def run_simulation(config_or_run, callbacks=()):
    """Integrate the configured problem at its CFL step size, passing
    callbacks to `integrate`, and gather standard diagnostics."""
    run = _as_run(config_or_run)
    setup = run.setup
    totals0 = conserved_totals(run.u0, setup)
    u, info = integrate(
        run.u0,
        run.rhs_fn,
        n_steps=run.config.n_steps,
        t_end=run.config.t_end,
        dt_fn=run.dt_fn,
        callbacks=callbacks,
    )
    totals1 = conserved_totals(u, setup)
    scale = np.abs(totals0) + np.abs(totals1)
    drift = float(np.max(np.abs(totals1 - totals0) / np.where(scale > 0, scale, 1.0)))
    err = None
    if run.exact is not None:
        err = error_norm_l2(u, run.exact(info["t"]), setup)
    return RunResult(
        u, info["steps"], info["t"], info["rhs_evals"], totals0, totals1, drift, err
    )


def entropy_sampler(run, rows, n_samples=20):
    """An `integrate` callback that appends (step, t, dt, dS/dt normalized)
    to rows at the states before steps 0, stride, 2 stride, ... of a
    fixed-step run (stride = n_steps // n_samples, at least 1), at most
    n_samples of them. dt is the step size taken from the sampled state;
    each sample costs one RHS evaluation."""
    if run.config.n_steps is None:
        raise ConfigurationError("n_steps: entropy monitoring uses fixed-step runs")
    stride = max(1, run.config.n_steps // n_samples)

    def sample(step, t, dt, u):
        if step % stride == 0 and len(rows) < n_samples:
            _, normalized = entropy_rate(u, run.rhs_fn(u, t), run.setup)
            rows.append((step, t, dt, normalized))

    return sample


def monitor_entropy_conservation(config_or_run, n_samples=20):
    """Run with the CFL step size of the initial state held fixed, sampling
    the normalized entropy production rate through `entropy_sampler`.

    Returns (rows, worst): the sampled rows and max |normalized|.
    """
    run = _as_run(config_or_run)
    rows = []
    integrate(
        run.u0,
        run.rhs_fn,
        n_steps=run.config.n_steps,
        dt=run.dt_fn(run.u0, 0.0),
        callbacks=(entropy_sampler(run, rows, n_samples),),
    )
    return rows, max(abs(r[3]) for r in rows)


def convergence_study(config, levels=(4, 8, 16)):
    """L2 errors and observed orders across a mesh refinement sequence.

    Each level runs the configured problem for one advection period (or
    config.t_end if set) and measures the M-weighted L2 error of density
    and total energy against the exact solution. Rows follow the CSV
    schema: (level, h, l2_rho, l2_rhoE, order_rho, order_rhoE); orders are
    None on the coarsest level.
    """
    config.validate()
    if config.ic not in ("isentropic_vortex", "free_stream"):
        raise ConfigurationError(
            "ic: convergence study needs an exact solution "
            "(isentropic_vortex or free_stream), got %r" % (config.ic,)
        )
    t_end = config.t_end if config.t_end is not None else DOMAIN_LENGTH
    rows = []
    prev = None
    for n in levels:
        level_cfg = replace(config, elements=int(n), n_steps=None, t_end=t_end)
        result = run_simulation(level_cfg)
        h = DOMAIN_LENGTH / n
        e_rho = float(result.error_l2[0])
        e_rhoe = float(result.error_l2[-1])
        if prev is None:
            order_rho = order_rhoe = None
        else:
            # exactly preserved solutions (free stream) have no rate
            order_rho = math.log2(prev[0] / e_rho) if e_rho > 0.0 else None
            order_rhoe = math.log2(prev[1] / e_rhoe) if e_rhoe > 0.0 else None
        rows.append((int(n), h, e_rho, e_rhoe, order_rho, order_rhoe))
        prev = (e_rho, e_rhoe)
    return rows


# ---------------------------------------------------------------------------
# timing

def _require_positive(**counts):
    """Raise ConfigurationError naming the first count below one."""
    for key, value in counts.items():
        if value < 1:
            raise ConfigurationError(
                "%s: expected a positive integer, got %r" % (key, value)
            )


def _guard_span(span, what, advice):
    info = time.get_clock_info("perf_counter")
    if span < 1000.0 * info.resolution:
        raise BenchmarkError(
            "%s spanned %.3g s, under 1000 ticks of the %.3g s clock; %s"
            % (what, span, info.resolution, advice)
        )


@dataclass(frozen=True)
class PidResult:
    """Wall-clock seconds per RHS evaluation per degree of freedom.

    Every volume node counts as one DOF: dofs = (p+1)^d * elements,
    independent of the scheme or the number of conserved variables.
    """

    mean_pid: float
    std_pid: float
    n_rhs: int
    dofs: int


def measure_pid(config_or_run, n_rhs=500, repeats=5):
    """Time complete fixed-step simulations and report per-DOF RHS cost.

    One untimed RHS evaluation warms caches before the first repeat. Each
    repeat integrates ceil(n_rhs / n_stages) RK54 steps of the initial CFL
    step size from the initial state, timed as a whole. BLAS threads are
    the caller's to set, as perfbench/run.py pins them to one; keep the
    machine quiet for small std.
    """
    _require_positive(n_rhs=n_rhs, repeats=repeats)
    run = _as_run(config_or_run)
    n_steps = -(-n_rhs // RK54.n_stages)
    n_evals = RK54.n_stages * n_steps
    dt = run.dt_fn(run.u0, 0.0)
    dofs = run.setup.dofs
    run.rhs_fn(run.u0, 0.0)  # warmup
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        integrate(run.u0, run.rhs_fn, n_steps=n_steps, dt=dt)
        span = time.perf_counter() - start
        _guard_span(span, "pid repeat", "increase n_rhs")
        samples.append(span / (n_evals * dofs))
    samples = np.asarray(samples)
    return PidResult(float(samples.mean()), float(samples.std()), n_evals, dofs)


MICROBENCH_FORMS = ("cartesian", "directional")


def microbench_flux(kind, form, d, n_samples=20000, repeats=5):
    """Nanoseconds per two-point flux evaluation in the lane kernels.

    Times one batched.flux_lanes call over n_samples lanes of random
    admissible state pairs, along axis 0 (the cartesian form) or along
    random per-lane normal rows (the directional form): the arithmetic that
    rhs(kernel="batched") runs, writing into a (d+2, n_samples) flux block
    and working in a (d+6, n_samples) scratch block, both allocated before
    the clock starts, as the rhs pair loops do (only shima and ranocha use
    the scratch). Before any timing, every lane is checked against the
    scalar directional kernel (with the axis as the normal for the
    cartesian form) to 1e-13 relative. Returns (ns_mean, ns_std, n_samples).
    """
    if kind not in SURFACE_KINDS:
        raise ConfigurationError(
            "kind: expected one of %s, got %r" % (", ".join(SURFACE_KINDS), kind)
        )
    if form not in MICROBENCH_FORMS:
        raise ConfigurationError(
            "form: expected one of %s, got %r" % (", ".join(MICROBENCH_FORMS), form)
        )
    _require_positive(n_samples=n_samples, repeats=repeats)
    gas = GasParams(1.4)
    rng = np.random.default_rng(2024)
    q = np.empty((2, n_samples, d + 2))
    q[..., 0] = 1.0 + rng.random((2, n_samples))
    q[..., 1 : d + 1] = rng.random((2, n_samples, d)) - 0.5
    q[..., d + 1] = 1.0 + rng.random((2, n_samples))
    u = prim2cons(q, gas)
    q_rows = np.ascontiguousarray(cons2prim(u, gas).transpose(0, 2, 1))
    u_rows = np.ascontiguousarray(u.transpose(0, 2, 1))
    ql, qr = (
        batched.Lanes(prim[0], tuple(prim[1:-1]), prim[-1], cons)
        for prim, cons in zip(q_rows, u_rows)
    )
    if form == "cartesian":
        normal = 0
        normals = [(1.0,) + (0.0,) * (d - 1)] * n_samples
    else:
        normal = tuple(rng.random((d, n_samples)) + 0.25)
        normals = np.transpose(normal).tolist()
    fn = batched.flux_lanes
    block = np.empty((d + 2, n_samples))
    scratch = np.empty((d + 6, n_samples))
    got = fn(kind, ql, qr, normal, gas, n_samples, block, scratch)
    got = np.transpose(got).tolist()
    dirn = flux_function(kind)
    for i, (ul, ur, nrm) in enumerate(zip(u[0].tolist(), u[1].tolist(), normals)):
        want = dirn(ul, ur, nrm, gas)
        err = max(abs(a - b) for a, b in zip(got[i], want))
        if err > 1e-13 * max(max(abs(a) for a in want), 1.0):
            raise BenchmarkError(
                "correctness gate failed for %s/%s at lane %d: |diff| %.3e"
                % (kind, form, i, err)
            )

    def timed():
        start = time.perf_counter()
        fn(kind, ql, qr, normal, gas, n_samples, block, scratch)
        return time.perf_counter() - start

    timed()  # warmup
    spans = []
    for _ in range(repeats):
        span = timed()
        _guard_span(span, "microbench repeat", "increase n_samples")
        spans.append(span / n_samples * 1e9)
    spans = np.asarray(spans)
    return float(spans.mean()), float(spans.std()), n_samples


# ---------------------------------------------------------------------------
# CSV reporting

PID_HEADER = ("d", "p", "mesh", "scheme", "flux", "n_rhs", "dofs", "pid_mean", "pid_std")
MICROBENCH_HEADER = ("flux", "form", "d", "ns_mean", "ns_std", "n_samples")
CONVERGENCE_HEADER = ("level", "h", "l2_rho", "l2_rhoe", "order_rho", "order_rhoe")
ENTROPY_HEADER = ("step", "t", "dt", "dSdt_normalized")


def output_path(name, config_output=None):
    """Resolve a report path: explicit config output wins over the default
    name; relative paths land in $FLUXDG_OUTPUT_DIR when set."""
    target = config_output or name
    if not os.path.isabs(target):
        base = os.environ.get("FLUXDG_OUTPUT_DIR")
        if base:
            target = os.path.join(base, target)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return target


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
    return path


def pid_row(config, result):
    mesh = "%s:%d" % (config.mesh, config.elements)
    scheme = config.volume_scheme
    if config.kernel == "reference":
        scheme += ":reference"
    return (
        config.d,
        config.p,
        mesh,
        scheme,
        config.volume_flux,
        result.n_rhs,
        result.dofs,
        result.mean_pid,
        result.std_pid,
    )
