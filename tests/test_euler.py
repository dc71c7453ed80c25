import numpy as np
import pytest

from fluxdg.errors import AdmissibilityError
from fluxdg.euler import (
    GasParams,
    cons2prim,
    directional_flux,
    entropy2cons,
    entropy_and_potential,
    entropy_vars,
    max_signal_speed,
    physical_flux,
    prim2cons,
)

from .conftest import random_primitives


def test_gas_params():
    gas = GasParams(1.4)
    assert abs(gas.inv_gamma_minus_one - 2.5) < 1e-15
    with pytest.raises(AdmissibilityError):
        GasParams(1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_prim_cons_round_trip(d, gas):
    rng = np.random.default_rng(d)
    q = random_primitives(rng, d, 500)
    u = prim2cons(q, gas)
    back = cons2prim(u, gas)
    assert np.abs(back - q).max() < 1e-13


def test_cons2prim_rejects_vacuum(gas):
    bad = (
        [1.0, 0.0, 0.0, 0.0],  # E = 0: zero pressure
        [-1.0, 0.0, 0.0, 2.5],  # negative density
        [1.0, 0.0, 0.0, np.inf],  # infinite energy: p = +inf
        [np.nan, 0.0, 0.0, 2.5],
        [1.0, np.nan, 0.0, 2.5],
    )
    for u in bad:
        with pytest.raises(AdmissibilityError):
            cons2prim(np.array(u), gas)


@pytest.mark.parametrize("d", [2, 3])
def test_physical_flux_values(d, gas):
    # against the componentwise textbook formulas
    rng = np.random.default_rng(3 + d)
    q = random_primitives(rng, d, 50)
    u = prim2cons(q, gas)
    for j in range(d):
        f = physical_flux(u, j, gas)
        rho, v, p = q[:, 0], q[:, 1 : d + 1], q[:, d + 1]
        assert np.abs(f[:, 0] - rho * v[:, j]).max() < 1e-13
        for k in range(d):
            ref = rho * v[:, j] * v[:, k] + (p if j == k else 0.0)
            assert np.abs(f[:, 1 + k] - ref).max() < 1e-12
        ref_e = (u[:, d + 1] + p) * v[:, j]
        assert np.abs(f[:, d + 1] - ref_e).max() < 1e-12
    # the contracted form the volume terms use, one direction per state
    normal = rng.standard_normal((50, d))
    want = sum(normal[:, j, None] * physical_flux(u, j, gas) for j in range(d))
    got = directional_flux(u, cons2prim(u, gas), normal)
    assert np.abs(got - want).max() < 1e-12


def test_flux_of_constant_is_constant(gas):
    u = prim2cons(np.array([1.2, 0.3, -0.1, 2.0]), gas)
    field = np.broadcast_to(u, (7, 4))
    f = physical_flux(field, 0, gas)
    assert np.ptp(f, axis=0).max() == 0.0


def test_sound_and_signal_speed(gas):
    u = prim2cons(np.array([1.0, 3.0, -4.0, 1.4]), gas)
    lam = float(max_signal_speed(u, gas))
    # |v| = 5 for the 3-4 right triangle, c = sqrt(gamma p / rho) = 1.4
    assert abs(lam - (5.0 + 1.4)) < 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_entropy_vars_round_trip(d, gas):
    rng = np.random.default_rng(17 + d)
    u = prim2cons(random_primitives(rng, d, 400), gas)
    w = entropy_vars(u, gas)
    back = entropy2cons(w, gas)
    assert np.abs(back - u).max() < 1e-12


def test_entropy_vars_are_the_entropy_gradient(gas):
    # finite-difference check of w = dU/du, componentwise central differences
    u0 = prim2cons(np.array([1.3, 0.4, -0.2, 2.1]), gas)
    w = entropy_vars(u0, gas)
    for k in range(4):
        h = 1e-6
        up = u0.copy()
        um = u0.copy()
        up[k] += h
        um[k] -= h
        sp, _ = entropy_and_potential(up, gas)
        sm, _ = entropy_and_potential(um, gas)
        fd = (sp - sm) / (2.0 * h)
        assert abs(fd - w[k]) < 1e-7 * max(1.0, abs(w[k]))


def test_potential_contraction_gives_entropy_flux(gas):
    # w . f^j - psi^j == v_j U for the exact flux
    rng = np.random.default_rng(23)
    u = prim2cons(random_primitives(rng, 3, 100), gas)
    w = entropy_vars(u, gas)
    entropy, psi = entropy_and_potential(u, gas)
    v = u[:, 1:4] / u[:, :1]
    for j in range(3):
        f = physical_flux(u, j, gas)
        contract = np.sum(w * f, axis=-1) - psi[:, j]
        assert np.abs(contract - v[:, j] * entropy).max() < 1e-11


def test_entropy2cons_rejects_bad_sign(gas):
    w = np.array([1.0, 0.1, 0.1, 0.5])  # last component must be negative
    with pytest.raises(AdmissibilityError):
        entropy2cons(w, gas)
