#!/usr/bin/env python3
"""Cost of the flux kernels, from two angles.

First the lane kernels that rhs runs by default: nanoseconds per
two-point flux evaluation in one call over 20000 lanes, per-axis Cartesian
against directional (contracted with a per-lane metric vector). Every lane
is checked against the scalar kernel before it is timed. Then the
integrated view: wall time per right-hand side per degree of freedom for
the scalar reference kernels against the lane-batched ones.

Absolute numbers are machine-specific; the orderings are the point.
"""

from fluxdg.fluxes import SURFACE_KINDS
from fluxdg.harness import MICROBENCH_FORMS, make_config, measure_pid, microbench_flux

print("lane flux evaluation, d = 3 (nanoseconds per lane)")
print("  kind    " + "".join(f"{form:>13s}" for form in MICROBENCH_FORMS))
for kind in SURFACE_KINDS:
    cells = []
    for form in MICROBENCH_FORMS:
        ns, _, _ = microbench_flux(kind, form, 3, n_samples=20000, repeats=5)
        cells.append(f"{ns:13.1f}")
    print(f"  {kind:8s}" + "".join(cells))

print("\ntime per RHS per DOF, vortex, d = 3, p = 3 (seconds)")
base = {"d": "3", "elements": "2", "n_steps": "1"}
for kernel in ("reference", "batched"):
    config = make_config(None, dict(base, kernel=kernel))
    result = measure_pid(config, n_rhs=30, repeats=3)
    print(
        f"  {kernel:9s}  {result.mean_pid:.3e}  "
        f"(+/- {result.std_pid:.1e}, {result.n_rhs} evaluations, "
        f"{result.dofs} DOFs)"
    )
