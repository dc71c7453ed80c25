"""Benchmark workloads: the three RHS configurations and their inputs.

Every workload advects the isentropic vortex through a periodic box. The
workload seed only moves the vortex centre; the library receives the
generated conserved field and nothing else, and the exact solution used by
the checks is shifted by the same centre.

All workloads run `kernel="batched"`, so a later change that batches more
schemes shows up here without editing the benchmark.
"""

import math
from dataclasses import dataclass

import numpy as np

import fluxdg

GAMMA = 1.4
EPSILON = 20.0  # vortex strength
LO, HI = -5.0, 5.0
CFL = 0.5
BACKGROUND = (1.0, 1.0, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    d: int
    p: int
    elements: int
    family: str
    amplitude: float  # 0 for a Cartesian mesh
    geo_degree: object  # None: isoparametric
    volume_scheme: str
    volume_flux: str
    surface_flux: str
    t_end: float  # simulated time of one solve, about 20-40 steps
    # L2 density error at t_end; about 1.3x the largest of seeds 0-29 at the
    # commit that introduced the benchmark (the coarse Gauss mesh is far from
    # resolving the vortex, hence its large value)
    error_bound: float
    entropy_conservative: bool = False

    def rhs_config(self, kernel="batched"):
        return fluxdg.RhsConfig(
            volume_scheme=self.volume_scheme,
            volume_flux=self.volume_flux,
            surface_flux=self.surface_flux,
            kernel=kernel,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lgl3d_curved",
            why="headline entropy-stable curvilinear case and largest working "
            "set: two-point volume loop, batched surface, cons2prim",
            d=3, p=3, elements=8, family="lgl", amplitude=0.1, geo_degree=None,
            volume_scheme="fluxdiff", volume_flux="ranocha", surface_flux="llf",
            t_end=0.11, error_bound=0.08,
        ),
        Workload(
            name="gauss3d_curved",
            why="only entropy projection and mesh_gauss_surface (each face "
            "flux evaluated twice); the entropy-conservative pairing",
            # Gauss face metrics are extrapolated, so the 3D curl form needs
            # a mapping degree with 2 g <= p to keep both neighbours' face
            # normals equal (see fluxdg.geometry).
            d=3, p=3, elements=4, family="gauss", amplitude=0.1, geo_degree=1,
            volume_scheme="gauss_fluxdiff", volume_flux="ranocha",
            surface_flux="ranocha", t_end=0.44, error_bound=1.0,
            entropy_conservative=True,
        ),
        Workload(
            name="strong2d_llf",
            why="only scalar surface_terms and numpy volume_strong, no "
            "two-point volume work; flat under batched-kernel changes",
            d=2, p=3, elements=8, family="lgl", amplitude=0.0, geo_degree=None,
            volume_scheme="strong", volume_flux="ranocha", surface_flux="llf",
            t_end=0.22, error_bound=0.06,
        ),
    )
}


def vortex_centre(seed):
    """Vortex centre in the (x, y) plane, a pure function of the seed."""
    return np.random.default_rng(seed).uniform(0.5 * LO, 0.5 * HI, size=2)


def vortex_conserved(x, t, centre, gas):
    """Isentropic vortex centred at `centre` at t = 0, carried by (1, 1[, 0]).

    T0 = p0/rho0 = 10; the temperature deficit is exact for all times, so
    the state at t is the initial state shifted along the background flow
    (wrapped periodically).
    """
    d = x.shape[-1]
    v0 = np.asarray(BACKGROUND[:d])
    xr = x.copy()
    xr[..., :2] -= centre
    xr = (xr - t * v0 - LO) % (HI - LO) + LO
    r2 = xr[..., 0] ** 2 + xr[..., 1] ** 2
    t0 = 10.0
    deficit = (GAMMA - 1.0) * EPSILON**2 / (8.0 * GAMMA * math.pi**2)
    temp = t0 - deficit * np.exp(1.0 - r2)
    rho = (temp / t0) ** (1.0 / (GAMMA - 1.0))
    swirl = EPSILON / (2.0 * math.pi) * np.exp(0.5 * (1.0 - r2))
    prim = np.zeros(x.shape[:-1] + (d + 2,))
    prim[..., 0] = rho
    prim[..., 1] = v0[0] - swirl * xr[..., 1]
    prim[..., 2] = v0[1] + swirl * xr[..., 0]
    prim[..., d + 1] = rho * temp
    return fluxdg.prim2cons(prim, gas)


@dataclass(frozen=True)
class Problem:
    """A ready-to-step state: everything `set_up` builds."""

    workload: Workload
    mesh: object
    setup: object
    config: object
    controller: object
    centre: np.ndarray
    u0: np.ndarray

    def exact(self, t):
        return vortex_conserved(self.setup.coords, t, self.centre, self.setup.gas)


def set_up(workload, seed, elements=None, api=None):
    """Config to ready-to-step state through the public API.

    `api` supplies build_mesh/make_operator/build_setup (the traced run
    passes wrapped versions); `elements` overrides the mesh size (the
    correctness gate uses a small mesh of the same kind).
    """
    api = api or fluxdg
    gas = fluxdg.GasParams(GAMMA)
    n = workload.elements if elements is None else elements
    mesh = api.build_mesh(
        (n,) * workload.d,
        bounds=(LO, HI),
        amplitude=workload.amplitude,
        geo_degree=workload.geo_degree,
    )
    op = api.make_operator(workload.p, workload.family)
    setup = api.build_setup(mesh, op, gas)
    config = workload.rhs_config()
    config.validate(setup)
    centre = vortex_centre(seed)
    u0 = vortex_conserved(setup.coords, 0.0, centre, gas)
    return Problem(
        workload, mesh, setup, config, fluxdg.StepController(cfl=CFL), centre, u0
    )
