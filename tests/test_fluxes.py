import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxdg import batched
from fluxdg.errors import ConfigurationError
from fluxdg.euler import cons2prim, entropy_vars, prim2cons
from fluxdg.fluxes import FluxCounter, count_guard, require_volume_kind
from fluxdg.reference import (
    flux_central_directional,
    flux_function,
    flux_hll_directional,
    flux_ranocha_directional,
    flux_shima_directional,
)
from fluxdg.verify import random_primitives

from .oracles import physical_flux

PAIR_KINDS = ("shima", "ranocha", "central", "llf", "hll")


def _pairs(d, n, seed):
    """Random admissible conserved pairs."""
    from fluxdg import GasParams

    gas = GasParams(1.4)
    rng = np.random.default_rng(seed)
    ql = random_primitives(rng, d, n)
    qr = random_primitives(rng, d, n)
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


def _normal_potential(u, normal, gas):
    d = len(normal)
    rho_v = u[..., 1 : d + 1]
    return np.sum(rho_v * normal, axis=-1)


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


def _state(d):
    """An admissible primitive state (rho, v_1..d, p)."""
    positive = st.floats(0.1, 10.0)
    return st.tuples(positive, *([st.floats(-5.0, 5.0)] * d), positive)


def _direction(d):
    """An arbitrary direction, kept away from the zero vector."""
    return st.tuples(*([st.floats(-1.0, 1.0)] * d)).filter(
        lambda n: sum(c * c for c in n) > 1e-2
    )


def _lanes_flux(kind, ul, ur, normal, gas):
    """The lane kernel's flux on one lane, the normal given per lane."""
    ql, qr = (
        batched.Lanes(q[:1], tuple(q[1:-1, None]), q[-1:], u[:, None])
        for q, u in ((cons2prim(ul, gas), ul), (cons2prim(ur, gas), ur))
    )
    lane_normal = tuple(np.array([c]) for c in normal)
    return batched.flux_lanes(kind, ql, qr, lane_normal, gas, 1)[:, 0]


@pytest.mark.parametrize("kind", ("central", "llf", "hll"))
@pytest.mark.parametrize("d", [2, 3])
def test_fluxes_scale_with_the_normal(kind, d, gas):
    """F(u_l, u_r, s n) == s F(u_l, u_r, n) on both paths, which pins the
    llf and hll wave-speed bounds on the scaled normal (a sound speed not
    multiplied by |n| breaks it). The lane flux also equals the scalar
    one."""
    fn = flux_function(kind)

    @given(_state(d), _state(d), _direction(d), st.floats(1e-3, 1e3))
    def check(q_l, q_r, normal, s):
        ul, ur = prim2cons(np.array(q_l), gas), prim2cons(np.array(q_r), gas)
        scaled = tuple(s * c for c in normal)
        base = np.asarray(fn(ul, ur, normal, gas))
        # rounding scales with the terms the fluxes sum: the own-side
        # physical fluxes and the dissipation, about (|v| + c) |n| |u|
        norm = np.linalg.norm(normal)
        scale = 0.0
        for q, u in ((q_l, ul), (q_r, ur)):
            own = sum(c * physical_flux(u, j, gas) for j, c in enumerate(normal))
            speed = np.linalg.norm(q[1:-1]) + np.sqrt(gas.gamma * q[-1] / q[0])
            scale += np.abs(own).max() + speed * norm * np.abs(u).max()
        for got in (
            np.asarray(fn(ul, ur, scaled, gas)),
            _lanes_flux(kind, ul, ur, scaled, gas),
        ):
            assert np.abs(got - s * base).max() <= 1e-14 * s * scale
        lanes = _lanes_flux(kind, ul, ur, normal, gas)
        assert np.abs(lanes - base).max() <= 1e-13 * scale

    check()


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
