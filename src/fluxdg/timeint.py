"""Explicit low-storage Runge-Kutta time integration.

One method ships: the five-stage, fourth-order scheme of Carpenter and
Kennedy in 2N-storage form,

    du <- a_i du + dt f(v, t + c_i dt)
    v  <- v + b_i du

The coefficients are embedded as exact integer ratios; construction
reconstructs the full Butcher tableau from the 2N form and verifies every
order condition through order four, so a typo in a 13-digit numerator fails
loudly at import time rather than as a mysterious convergence-rate drop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .euler import max_signal_speed


@dataclass(frozen=True)
class RKMethod:
    """2N-storage explicit Runge-Kutta coefficients (a: carry, b: update,
    c: stage time fractions)."""

    name: str
    a: tuple
    b: tuple
    c: tuple
    order: int = 4

    def __post_init__(self):
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise ConfigurationError(
                "stage coefficient lists must have equal length, got %d/%d/%d"
                % (len(self.a), len(self.b), len(self.c))
            )
        if self.a[0] != 0.0:
            raise ConfigurationError(
                "a[0] must be 0 (nothing to carry into the first stage)"
            )
        _check_order_conditions(self)

    @property
    def n_stages(self):
        return len(self.b)


def _butcher_rows(a, b):
    """Stage rows of the Butcher tableau implied by a 2N scheme; the last
    row holds the final update weights."""
    s = len(b)
    rows = []
    for i in range(1, s + 1):
        row = []
        for m in range(i):
            coef = b[m]
            prod = 1.0
            for n in range(m + 1, i):
                prod *= a[n]
                coef += b[n] * prod
            row.append(coef)
        rows.append(row)
    return rows


def _check_order_conditions(method, tol=1e-14):
    s = method.n_stages
    rows = _butcher_rows(method.a, method.b)
    c = np.asarray(method.c)
    amat = np.zeros((s, s))
    for i in range(1, s):
        amat[i, : len(rows[i - 1])] = rows[i - 1]
    bw = np.asarray(rows[-1] + [0.0] * (s - len(rows[-1])))[:s]
    # internal consistency: stage times are the row sums
    stage_sums = amat.sum(axis=1)
    residuals = {"stage times": float(np.max(np.abs(stage_sums - c)))}
    ac = amat @ c
    conditions = [
        ("sum b", float(bw.sum()), 1.0),
        ("b.c", float(bw @ c), 1.0 / 2.0),
        ("b.c^2", float(bw @ c**2), 1.0 / 3.0),
        ("b.Ac", float(bw @ ac), 1.0 / 6.0),
        ("b.c^3", float(bw @ c**3), 1.0 / 4.0),
        ("b.(c*Ac)", float(bw @ (c * ac)), 1.0 / 8.0),
        ("b.Ac^2", float(bw @ (amat @ c**2)), 1.0 / 12.0),
        ("b.AAc", float(bw @ (amat @ ac)), 1.0 / 24.0),
    ]
    for label, got, want in conditions:
        residuals[label] = abs(got - want)
    worst = max(residuals, key=residuals.get)
    if residuals[worst] > tol:
        raise ConfigurationError(
            "order conditions violated for %r: %s residual %.3e"
            % (method.name, worst, residuals[worst])
        )


RK54 = RKMethod(
    "carpenter-kennedy 5/4",
    a=(
        0.0,
        -567301805773 / 1357537059087,
        -2404267990393 / 2016746695238,
        -3550918686646 / 2091501179385,
        -1275806237668 / 842570457699,
    ),
    b=(
        1432997174477 / 9575080441755,
        5161836677717 / 13612068292357,
        1720146321549 / 2090206949498,
        3134564353537 / 4481467310338,
        2277821191437 / 14882151754819,
    ),
    c=(
        0.0,
        1432997174477 / 9575080441755,
        2526269341429 / 6820363962896,
        2006345519317 / 3224310063776,
        2802321613138 / 2924317926251,
    ),
)


@dataclass(frozen=True)
class StepController:
    """CFL-based step size selection."""

    cfl: float = 0.5

    def __post_init__(self):
        if not self.cfl > 0.0:
            raise ConfigurationError("cfl: must be positive, got %r" % (self.cfl,))


def stable_dt(u, mesh, metrics, gas, p, controller):
    """dt = cfl * min over nodes of J^(1/d) / (lambda_max (2p+1)).

    J^(1/d) is the local isotropic mesh scale; the (2p+1) factor is the
    usual degree scaling of the explicit stability limit.
    """
    lam = max_signal_speed(u, gas)
    scale = metrics.jac ** (1.0 / mesh.d)
    return controller.cfl * float(np.min(scale / (lam * (2 * p + 1))))


def rk_step(u, t, dt, rhs_fn, method=RK54):
    """One low-storage step; exactly one RHS evaluation per stage.

    du and v are updated in place through one scratch array, with the same
    products and sums as du <- a_i du + dt k and v <- v + b_i du. Neither u
    nor the array rhs_fn returns is written to, so rhs_fn may return a
    cached array."""
    if not dt > 0.0:
        raise ConfigurationError("dt: must be positive, got %r" % (dt,))
    v = np.array(u, dtype=float, copy=True)
    du = np.zeros_like(v)
    scratch = np.empty_like(v)
    for i in range(method.n_stages):
        k = rhs_fn(v, t + method.c[i] * dt)
        du *= method.a[i]
        du += np.multiply(k, dt, out=scratch)
        v += np.multiply(du, method.b[i], out=scratch)
        if not np.all(np.isfinite(v)):
            raise DivergenceError(
                "non-finite state after stage %d (t=%.6g, dt=%.3e)" % (i, t, dt)
            )
    return v


def integrate(
    u0,
    rhs_fn,
    *,
    n_steps=None,
    t_end=None,
    dt=None,
    dt_fn=None,
    t0=0.0,
    method=RK54,
    callbacks=(),
):
    """March rhs_fn from u0, either a fixed number of steps or to t_end.

    The step size comes from `dt` (fixed) or `dt_fn(u, t)` (recomputed each
    step and clipped so the run lands exactly on t_end). Callbacks fire
    after every accepted step as cb(step, t, dt, u). A DivergenceError from
    a stage is re-raised with the last valid state attached as .last_fields.
    Returns (fields, info) with the step and RHS-evaluation counts.
    """
    if (n_steps is None) == (t_end is None):
        raise ConfigurationError(
            "exactly one of n_steps and t_end must be given"
        )
    if (dt is None) == (dt_fn is None):
        raise ConfigurationError("exactly one of dt and dt_fn must be given")
    u = np.array(u0, dtype=float, copy=True)
    t = t0
    step = 0
    eps = 1e-12 * max(1.0, abs(t_end)) if t_end is not None else 0.0
    while True:
        if n_steps is not None:
            if step >= n_steps:
                break
        elif t >= t_end - eps:
            break
        h = dt if dt is not None else dt_fn(u, t)
        if t_end is not None and t + h > t_end:
            h = t_end - t
        try:
            u_next = rk_step(u, t, h, rhs_fn, method)
        except DivergenceError as err:
            wrapped = DivergenceError(
                "diverged in step %d at t=%.6g: %s" % (step, t, err)
            )
            wrapped.last_fields = u
            wrapped.step = step
            wrapped.t = t
            raise wrapped from err
        u = u_next
        t += h
        step += 1
        for cb in callbacks:
            cb(step, t, h, u)
    return u, {"steps": step, "t": t, "rhs_evals": method.n_stages * step}
