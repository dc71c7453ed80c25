"""Flux-differencing discontinuous Galerkin kernels for compressible Euler.

The package is a library of solver building blocks: SBP operators on
Legendre-Gauss-Lobatto and Legendre-Gauss nodes, entropy-conservative and
entropy-stable two-point fluxes, split-form volume kernels in a mesh-level
lane-batched flavor (the default) and a scalar reference flavor (the
oracle, `fluxdg.reference`), and a low-storage Runge-Kutta integrator.
See the demos directory for narrative entry points.
"""

from .errors import (
    AdmissibilityError,
    BenchmarkError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    FluxdgError,
    MeshError,
    UnsupportedOperatorError,
)
from .euler import GasParams, cons2prim, entropy_and_potential, prim2cons
from .geometry import StructuredMesh, build_mesh, compute_metrics
from .operators import gauss_operator, lgl_operator, make_operator
from .fluxes import FluxCounter, count_guard
from .reference import flux_function, logmean_optimized, logmean_reference
from .discretization import (
    RhsConfig,
    SpatialSetup,
    build_setup,
    conserved_totals,
    entropy_rate,
    error_norm_l2,
    rhs,
)
from .timeint import RK54, RKMethod, StepController, integrate, rk_step, stable_dt

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "BenchmarkError",
    "ConfigurationError",
    "DivergenceError",
    "DomainError",
    "FluxCounter",
    "FluxdgError",
    "GasParams",
    "MeshError",
    "RK54",
    "RKMethod",
    "RhsConfig",
    "SpatialSetup",
    "StepController",
    "StructuredMesh",
    "UnsupportedOperatorError",
    "build_mesh",
    "build_setup",
    "compute_metrics",
    "cons2prim",
    "conserved_totals",
    "count_guard",
    "entropy_and_potential",
    "entropy_rate",
    "error_norm_l2",
    "flux_function",
    "gauss_operator",
    "integrate",
    "lgl_operator",
    "logmean_optimized",
    "logmean_reference",
    "make_operator",
    "prim2cons",
    "rhs",
    "rk_step",
    "stable_dt",
    "__version__",
]
