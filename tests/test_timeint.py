import math
from itertools import product

import numpy as np
import pytest

from fluxdg import (
    RK54,
    RKMethod,
    StepController,
    build_mesh,
    build_setup,
    integrate,
    make_operator,
    prim2cons,
    rk_step,
    stable_dt,
)
from fluxdg.errors import ConfigurationError, DivergenceError
from fluxdg.euler import max_signal_speed


def test_tableau_shape():
    from fluxdg.timeint import _butcher_rows

    assert RK54.n_stages == 5
    assert RK54.order == 4
    assert RK54.a[0] == 0.0
    # the low-storage coefficients reconstruct a consistent final Butcher row
    b_final = _butcher_rows(RK54.a, RK54.b)[-1]
    assert sum(b_final) == pytest.approx(1.0, abs=1e-14)


def test_tampered_coefficient_is_rejected():
    b = list(RK54.b)
    b[2] += 1e-6
    with pytest.raises(ConfigurationError, match="order conditions violated"):
        RKMethod("tampered", RK54.a, tuple(b), RK54.c)


def test_tableau_structural_validation():
    with pytest.raises(ConfigurationError):
        RKMethod("short", RK54.a[:4], RK54.b, RK54.c)
    with pytest.raises(ConfigurationError):
        RKMethod("bad first", (0.5,) + RK54.a[1:], RK54.b, RK54.c)


def test_zero_rhs_is_identity():
    u = np.linspace(0.3, 2.0, 12).reshape(3, 4)
    out = rk_step(u, 0.0, 0.7, lambda v, t: np.zeros_like(v))
    assert np.array_equal(out, u)


def test_rk_step_leaves_inputs_and_cached_rhs_untouched():
    # rk_step updates du and v in place: it must write neither into u nor
    # into an array that rhs_fn hands back at every stage
    rng = np.random.default_rng(3)
    u = rng.random((3, 4))
    cached = rng.random((3, 4))
    u_before = u.copy()
    cached_before = cached.copy()
    dt = 0.3
    got = rk_step(u, 0.0, dt, lambda v, t: cached)
    assert np.array_equal(cached, cached_before)
    assert np.array_equal(u, u_before)
    du = np.zeros_like(u)
    v = u.copy()
    for i in range(RK54.n_stages):
        du = RK54.a[i] * du + dt * cached
        v = v + RK54.b[i] * du
    assert np.array_equal(got, v)


def test_rk_step_rejects_bad_dt():
    u = np.ones(2)
    f = lambda v, t: -v
    for dt in (0.0, -0.1):
        with pytest.raises(ConfigurationError, match="dt"):
            rk_step(u, 0.0, dt, f)


def test_local_error_is_fifth_order():
    # one step of a 4th-order method leaves an O(dt^5) defect, so halving
    # dt shrinks it by about 32
    f = lambda v, t: -v
    u0 = np.array([1.0])
    errs = [abs(rk_step(u0, 0.0, dt, f)[0] - np.exp(-dt)) for dt in (0.2, 0.1)]
    ratio = errs[0] / errs[1]
    assert 26.0 < ratio < 38.0


def test_global_convergence_slope():
    # undamped oscillator: exact solution stays O(1), no stiffness
    mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    f = lambda v, t: mat @ v
    u0 = np.array([1.0, 0.0])
    t_end = 2.0
    errs = []
    for dt in (0.1, 0.05, 0.025):
        u, info = integrate(u0, f, t_end=t_end, dt=dt)
        exact = np.array([np.cos(t_end), -np.sin(t_end)])
        errs.append(float(np.linalg.norm(u - exact)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for s in slopes:
        assert 3.8 < s < 4.2, slopes


def test_exactly_five_evaluations_per_step():
    calls = [0]

    def f(v, t):
        calls[0] += 1
        return -v

    u, info = integrate(np.ones(3), f, n_steps=7, dt=0.01)
    assert info["steps"] == 7
    assert calls[0] == 5 * 7
    assert info["rhs_evals"] == calls[0]


def test_integrate_lands_on_t_end():
    u, info = integrate(np.ones(1), lambda v, t: -v, t_end=1.0, dt=0.3)
    assert info["t"] == 1.0
    assert info["steps"] == 4
    assert u[0] == pytest.approx(np.exp(-1.0), rel=1e-4)


def test_integrate_argument_validation():
    f = lambda v, t: -v
    u0 = np.ones(1)
    with pytest.raises(ConfigurationError, match="n_steps and t_end"):
        integrate(u0, f, dt=0.1)
    with pytest.raises(ConfigurationError, match="n_steps and t_end"):
        integrate(u0, f, n_steps=2, t_end=1.0, dt=0.1)
    with pytest.raises(ConfigurationError, match="dt and dt_fn"):
        integrate(u0, f, n_steps=2)
    with pytest.raises(ConfigurationError, match="dt and dt_fn"):
        integrate(u0, f, n_steps=2, dt=0.1, dt_fn=lambda v, t: 0.1)
    # a run that would take no step, or never end, names its bound
    for key, value in product(("n_steps", "t_end"), (0, -3, math.nan, math.inf)):
        with pytest.raises(ConfigurationError, match=key + ":"):
            integrate(u0, f, dt=0.1, **{key: value})


def test_callbacks_and_dt_fn():
    # each callback sees the state before a step and that step's size,
    # clipped on the last step to land on t_end
    f = lambda v, t: -v
    seen = []
    u, info = integrate(
        np.ones(1),
        f,
        t_end=1.0,
        dt_fn=lambda v, t: 0.3,
        callbacks=(lambda step, t, h, v: seen.append((step, t, h, v.copy())),),
    )
    assert [s for s, _, _, _ in seen] == [0, 1, 2, 3]
    assert seen[0][1:3] == (0.0, 0.3)
    assert np.array_equal(seen[0][3], np.ones(1))
    for (_, t, h, v), (_, t_next, _, v_next) in zip(seen, seen[1:]):
        assert t_next == t + h
        assert np.array_equal(v_next, rk_step(v, t, h, f))
    assert seen[-1][2] < 0.3
    assert seen[-1][1] + seen[-1][2] == info["t"] == 1.0
    assert np.array_equal(u, rk_step(seen[-1][3], seen[-1][1], seen[-1][2], f))


def test_divergence_carries_context():
    def f(v, t):
        return np.full_like(v, np.inf) if t > 0.25 else -v

    with pytest.raises(DivergenceError, match="diverged in step") as info:
        integrate(np.ones(2), f, n_steps=10, dt=0.1)
    err = info.value
    assert err.step >= 2
    assert err.t == pytest.approx(0.1 * err.step)
    assert np.all(np.isfinite(err.last_fields))


def test_stable_dt_formula(gas):
    mesh = build_mesh((2, 2), bounds=(0.0, 4.0))
    op = make_operator(3, "lgl")
    setup = build_setup(mesh, op, gas)
    q = np.tile(np.array([1.0, 0.3, -0.4, 1.0 / gas.gamma]), (4, op.n_nodes**2, 1))
    u = prim2cons(q, gas)
    ctrl = StepController(cfl=0.8)
    got = stable_dt(u, mesh, setup.metrics, gas, 3, ctrl)
    lam = float(max_signal_speed(u, gas).max())  # |v| + c = 0.5 + 1
    assert lam == pytest.approx(1.5, rel=1e-12)
    want = 0.8 * np.sqrt(setup.metrics.jac[0, 0]) / (lam * 7.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_stable_dt_shrinks_with_degree(gas):
    mesh = build_mesh((2, 2))
    op = make_operator(3, "lgl")
    setup = build_setup(mesh, op, gas)
    q = np.tile(np.array([1.0, 0.1, 0.0, 1.0]), (4, op.n_nodes**2, 1))
    u = prim2cons(q, gas)
    ctrl = StepController()
    dts = [stable_dt(u, mesh, setup.metrics, gas, p, ctrl) for p in (3, 5, 9)]
    assert dts[0] > dts[1] > dts[2]


def test_step_controller_validation():
    with pytest.raises(ConfigurationError, match="cfl"):
        StepController(cfl=0.0)
    with pytest.raises(ConfigurationError, match="cfl"):
        StepController(cfl=-1.0)
