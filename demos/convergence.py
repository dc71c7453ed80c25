#!/usr/bin/env python3
"""Mesh refinement study for the isentropic vortex.

Advects the vortex once around the periodic box on a sequence of meshes
and prints the observed L2 orders for density and total energy. Degree-p
elements land close to order p+1. The default levels keep the runtime
around a minute; append a 16 to reproduce the order on a finer pair.
"""

import sys

from fluxdg.harness import convergence_study, make_config

levels = tuple(int(n) for n in sys.argv[1:]) or (2, 4, 8)

config = make_config(
    None,
    {
        "p": "3",
        # surface dissipation keeps the coarse, underresolved levels alive;
        # the purely conservative pairing can crash there
        "surface_flux": "llf",
        "n_steps": "none",
        "t_end": "10.0",  # one period at the background velocity
    },
)

print(f"p = {config.p}, levels = {levels}")
print("  n        h        L2(rho)      order    L2(rhoE)     order")
for n, h, e_rho, e_rhoe, o_rho, o_rhoe in convergence_study(config, levels=levels):
    o1 = f"{o_rho:5.2f}" if o_rho is not None else "    -"
    o2 = f"{o_rhoe:5.2f}" if o_rhoe is not None else "    -"
    print(f"  {n:3d}  {h:8.4f}   {e_rho:.4e}  {o1}    {e_rhoe:.4e}  {o2}")
