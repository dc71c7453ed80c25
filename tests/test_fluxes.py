import numpy as np
import pytest

from fluxdg import batched
from fluxdg.errors import ConfigurationError
from fluxdg.euler import cons2prim, entropy_vars, prim2cons
from fluxdg.fluxes import (
    VOLUME_KINDS,
    FluxCounter,
    count_guard,
    flux_central_directional,
    flux_function,
    flux_hll_directional,
    flux_ranocha_directional,
    flux_shima_directional,
    require_volume_kind,
)

from .conftest import random_primitives
from .oracles import physical_flux

PAIR_KINDS = ("shima", "ranocha", "central", "llf", "hll")


def _pairs(d, n, seed, series_fraction=0.0):
    """Random admissible conserved pairs; a fraction of them nearly equal to
    drive the log-mean series branch."""
    from fluxdg import GasParams

    gas = GasParams(1.4)
    rng = np.random.default_rng(seed)
    ql = random_primitives(rng, d, n)
    qr = random_primitives(rng, d, n)
    n_series = int(series_fraction * n)
    if n_series:
        qr[:n_series] = ql[:n_series] * (1.0 + 1e-9 * rng.standard_normal(
            (n_series, d + 2)))
    return prim2cons(ql, gas), prim2cons(qr, gas), gas


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ("shima", "ranocha", "central"))
def test_volume_flux_symmetry(d, kind, gas):
    fn = flux_function(kind)
    ul, ur, _ = _pairs(d, 200, 1)
    rng = np.random.default_rng(2)
    for i in range(len(ul)):
        normal = rng.standard_normal(d)
        a = np.asarray(fn(ul[i], ur[i], normal, gas))
        b = np.asarray(fn(ur[i], ul[i], normal, gas))
        assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_flux_consistency(d, kind, gas):
    # F(u, u, n) equals the physical flux contracted with n
    fn = flux_function(kind)
    rng = np.random.default_rng(3)
    for q in random_primitives(rng, d, 100):
        u = prim2cons(q, gas)
        normal = rng.standard_normal(d)
        want = sum(normal[j] * physical_flux(u, j, gas) for j in range(d))
        got = np.asarray(fn(u, u, normal, gas))
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", VOLUME_KINDS)
def test_cartesian_matches_axis_directional(d, kind, gas):
    # the lane axis kernel (the Cartesian volume pairs) equals the scalar
    # directional kernel along the coordinate axis
    direc = flux_function(kind)
    ul, ur, _ = _pairs(d, 100, 4)
    ql, qr = (
        batched.Lanes(q[:, 0], tuple(q[:, 1:-1].T), q[:, -1], tuple(u.T))
        for q, u in ((cons2prim(ul, gas), ul), (cons2prim(ur, gas), ur))
    )
    for j in range(d):
        normal = np.zeros(d)
        normal[j] = 1.0
        lanes = batched.flux_lanes_cartesian(kind, ql, qr, j, gas, len(ul))
        for i in range(len(ul)):
            a = lanes[:, i]
            b = np.asarray(direc(ul[i], ur[i], normal, gas))
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())


def _normal_potential(u, normal, gas):
    d = len(normal)
    rho_v = u[..., 1 : d + 1]
    return np.sum(rho_v * normal, axis=-1)


@pytest.mark.parametrize("d", [2, 3])
def test_ranocha_entropy_condition(d, gas):
    # Tadmor condition (w_r - w_l) . F == psi_r - psi_l, checked against the
    # magnitude of the contraction so nearly equal pairs do not divide
    # roundoff by a vanishing jump
    ul, ur, _ = _pairs(d, 2000, 5, series_fraction=0.2)
    rng = np.random.default_rng(6)
    for i in range(len(ul)):
        normal = rng.standard_normal(d)
        f = np.asarray(flux_ranocha_directional(ul[i], ur[i], normal, gas))
        dw = entropy_vars(ur[i], gas) - entropy_vars(ul[i], gas)
        dpsi = _normal_potential(ur[i], normal, gas) - _normal_potential(ul[i], normal, gas)
        scale = float(np.abs(dw * f).sum() + abs(dpsi)) + 1.0
        assert abs(float(dw @ f) - dpsi) <= 1e-12 * scale


@pytest.mark.parametrize("d", [2, 3])
def test_shima_is_pressure_equilibrium_preserving(d, gas):
    # constant velocity and pressure: the momentum flux must keep the exact
    # p average and the density flux must transport with the shared velocity
    rng = np.random.default_rng(7)
    v = rng.standard_normal(d) * 0.3
    p = 1.7
    for _ in range(50):
        rho_l, rho_r = 1.0 + rng.random(2)
        ql = np.r_[rho_l, v, p]
        qr = np.r_[rho_r, v, p]
        ul, ur = prim2cons(ql, gas), prim2cons(qr, gas)
        for j in range(d):
            f = np.asarray(flux_shima_directional(ul, ur, np.eye(d)[j], gas))
            assert abs(f[0] - 0.5 * (rho_l + rho_r) * v[j]) < 1e-14
            mom = 0.5 * (rho_l + rho_r) * v[j] * v + p * np.eye(d)[j]
            assert np.abs(f[1 : d + 1] - mom).max() < 1e-13


def test_central_is_flux_average(gas):
    ul, ur, _ = _pairs(2, 50, 8)
    for i in range(len(ul)):
        for j in range(2):
            f = np.asarray(flux_central_directional(ul[i], ur[i], np.eye(2)[j], gas))
            want = 0.5 * (physical_flux(ul[i], j, gas) + physical_flux(ur[i], j, gas))
            assert np.abs(f - want).max() < 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("kind", ("llf", "hll"))
@pytest.mark.parametrize("d", [2, 3])
def test_dissipative_fluxes_are_entropy_stable(kind, d, gas):
    # (w_r - w_l) . F <= psi_r - psi_l on admissible pairs
    fn = flux_function(kind)
    ul, ur, _ = _pairs(d, 1000, 9)
    rng = np.random.default_rng(10)
    for i in range(len(ul)):
        normal = rng.standard_normal(d)
        f = np.asarray(fn(ul[i], ur[i], normal, gas))
        dw = entropy_vars(ur[i], gas) - entropy_vars(ul[i], gas)
        dpsi = _normal_potential(ur[i], normal, gas) - _normal_potential(ul[i], normal, gas)
        scale = float(np.abs(dw * f).sum() + abs(dpsi)) + 1.0
        assert float(dw @ f) - dpsi <= 1e-12 * scale


@pytest.mark.parametrize("kind", ("llf", "hll"))
@pytest.mark.parametrize("d", [2, 3])
def test_surface_flux_conservation_property(kind, d, gas):
    # flipping sides and the normal negates the numerical flux
    fn = flux_function(kind)
    ul, ur, _ = _pairs(d, 200, 11)
    rng = np.random.default_rng(12)
    for i in range(len(ul)):
        normal = rng.standard_normal(d)
        a = np.asarray(fn(ul[i], ur[i], normal, gas))
        b = np.asarray(fn(ur[i], ul[i], -normal, gas))
        assert np.abs(a + b).max() <= 1e-13 * max(1.0, np.abs(a).max())


def test_llf_upwinds_supersonic(gas):
    # both states moving fast to the right: the flux equals the left flux
    q = np.array([1.0, 9.0, 0.0, 1.0])
    ul = prim2cons(q, gas)
    qr = np.array([1.3, 9.5, 0.0, 1.1])
    ur = prim2cons(qr, gas)
    f = np.asarray(flux_hll_directional(ul, ur, np.array([1.0, 0.0]), gas))
    want = physical_flux(ul, 0, gas)
    assert np.abs(f - want).max() < 1e-12


def test_counters(gas):
    ul = prim2cons(np.array([1.0, 0.2, 0.1, 1.0]), gas)
    ur = prim2cons(np.array([1.1, -0.1, 0.2, 1.2]), gas)
    c = FluxCounter()
    with count_guard(c):
        flux_ranocha_directional(ul, ur, (1.0, 0.0), gas)
    assert (c.two_point_evals, c.logmean_evals) == (1, 2)
    c.reset()
    with count_guard(c):
        flux_shima_directional(ul, ur, (0.0, 1.0), gas)
        flux_central_directional(ul, ur, np.array([1.0, 0.0]), gas)
    assert (c.two_point_evals, c.logmean_evals) == (2, 0)
    # nested guards both see the work
    outer, inner = FluxCounter(), FluxCounter()
    with count_guard(outer):
        flux_ranocha_directional(ul, ur, (1.0, 0.0), gas)
        with count_guard(inner):
            flux_ranocha_directional(ul, ur, (1.0, 0.0), gas)
    assert outer.two_point_evals == 2
    assert inner.two_point_evals == 1


def test_kind_validation():
    with pytest.raises(ConfigurationError, match="llf"):
        flux_function("roe")  # the message lists the known kinds
    for kind in ("shima", "ranocha", "central", "llf", "hll"):
        assert callable(flux_function(kind))
    with pytest.raises(ConfigurationError):
        require_volume_kind("llf")  # dissipative kinds are surface-only
    require_volume_kind("ranocha")
