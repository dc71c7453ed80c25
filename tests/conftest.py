import numpy as np
import pytest
from hypothesis import settings

from fluxdg import GasParams, prim2cons

# property tests draw the same examples on every run, with no time limit
settings.register_profile("fluxdg", derandomize=True, deadline=None)
settings.load_profile("fluxdg")


@pytest.fixture(scope="session")
def gas():
    return GasParams(1.4)


def random_primitives(rng, d, n, amp=1.0):
    """(n, d+2) admissible primitive states: rho, p in [1, 1+amp], v in
    [-amp/2, amp/2]."""
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
    u = prim2cons(q, gas)
    return np.ascontiguousarray(u.reshape(setup.n_elements, setup.n_nodes, setup.d + 2))
