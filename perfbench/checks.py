"""Correctness checks the benchmark runs around its timed loop.

Each check returns (name, value, bound); it passes when value <= bound.
A check that raises a library error fails with value inf.
"""

import numpy as np

import fluxdg
from workloads import set_up

KERNEL_GAP = 1e-13  # batched vs reference, relative (the library's contract)
CONSERVATION_DRIFT = 1e-12  # relative to the largest conserved total
ENTROPY_RATE = 1e-12  # normalized semidiscrete rate of the EC pairing
GATE_ELEMENTS = 3  # small mesh of the workload's kind for the kernel gate


def _guarded(name, bound, fn):
    try:
        return name, float(fn()), bound
    except (fluxdg.FluxdgError, ArithmeticError):
        return name, float("inf"), bound


def _relative_gap(a, b):
    return float(np.abs(a - b).max()) / max(1.0, float(np.abs(a).max()))


def kernel_gate(workload, seed):
    """Batched rhs equals the scalar reference rhs on a small mesh with the
    workload's d, p, family, mesh kind, scheme and flux pair."""

    def gap():
        small = set_up(workload, seed, elements=GATE_ELEMENTS)
        ref = fluxdg.rhs(small.u0, small.setup, workload.rhs_config("reference"))
        bat = fluxdg.rhs(small.u0, small.setup, small.config)
        return _relative_gap(ref, bat)

    return [_guarded("gate.batched_vs_reference", KERNEL_GAP, gap)]


def conservation_drift(u0, u, setup):
    tot0 = fluxdg.conserved_totals(u0, setup)
    tot1 = fluxdg.conserved_totals(u, setup)
    return float(np.max(np.abs(tot1 - tot0)) / np.max(np.abs(tot0)))


def final_checks(problem, u, t):
    """Checks on the state a solve ended with, at simulated time t."""
    setup = problem.setup
    finite = bool(np.all(np.isfinite(u)))
    out = [("final.finite", 0.0 if finite else 1.0, 0.0)]
    if not finite:
        return out
    out.append(
        _guarded("final.conservation_drift", CONSERVATION_DRIFT,
                 lambda: conservation_drift(problem.u0, u, setup))
    )
    out.append(
        _guarded("final.vortex_l2_density_error", problem.workload.error_bound,
                 lambda: fluxdg.error_norm_l2(u, problem.exact(t), setup)[0])
    )
    if problem.workload.entropy_conservative:
        def rate():
            dudt = fluxdg.rhs(u, setup, problem.config)
            return abs(fluxdg.entropy_rate(u, dudt, setup)[1])

        out.append(_guarded("final.entropy_rate", ENTROPY_RATE, rate))
    return out
