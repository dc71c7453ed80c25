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

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ConfigurationError, DivergenceError
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
    """CFL-based step size selection; cfl must be finite and positive."""

    cfl: float = 0.5

    def __post_init__(self):
        if not (self.cfl > 0.0 and math.isfinite(self.cfl)):
            raise ConfigurationError(
                "cfl: expected a finite value > 0, got %r" % (self.cfl,)
            )


def stable_dt(u, mesh, metrics, gas, p, controller):
    """dt = cfl * min over nodes of J^(1/d) / (lambda_max (2p+1)).

    J^(1/d) is the local isotropic mesh scale; the (2p+1) factor is the
    usual degree scaling of the explicit stability limit.
    """
    lam = max_signal_speed(u, gas)
    scale = metrics.jac ** (1.0 / mesh.d)
    return controller.cfl * float(np.min(scale / (lam * (2 * p + 1))))


def rk_step(u, t, dt, rhs_fn):
    """One RK54 step; exactly one RHS evaluation per stage.

    du and v are updated in place through one scratch array, with the same
    products and sums as du <- a_i du + dt k and v <- v + b_i du. Neither u
    nor the array rhs_fn returns is written to, so rhs_fn may return a
    cached array."""
    if not dt > 0.0:
        raise ConfigurationError("dt: must be positive, got %r" % (dt,))
    v = np.array(u, dtype=float, copy=True)
    du = np.zeros_like(v)
    scratch = np.empty_like(v)
    for i in range(RK54.n_stages):
        k = rhs_fn(v, t + RK54.c[i] * dt)
        du *= RK54.a[i]
        du += np.multiply(k, dt, out=scratch)
        v += np.multiply(du, RK54.b[i], out=scratch)
        if not np.all(np.isfinite(v)):
            raise DivergenceError(
                "non-finite state after stage %d (t=%.6g, dt=%.3e)" % (i, t, dt)
            )
    return v


def check_schedule(n_steps, t_end):
    """Raise ConfigurationError, naming the key, unless exactly one of
    n_steps, a positive integral count, and t_end, a finite positive time,
    is given."""
    if (n_steps is None) == (t_end is None):
        raise ConfigurationError(
            "n_steps/t_end: exactly one of n_steps and t_end must be given"
        )
    if n_steps is not None and not (n_steps >= 1 and float(n_steps).is_integer()):
        raise ConfigurationError(
            "n_steps: expected a positive integral count, got %r" % (n_steps,)
        )
    if t_end is not None and not (t_end > 0.0 and math.isfinite(t_end)):
        raise ConfigurationError(
            "t_end: expected a finite positive time, got %r" % (t_end,)
        )


def integrate(
    u0, rhs_fn, *, n_steps=None, t_end=None, dt=None, dt_fn=None, callbacks=()
):
    """March rhs_fn from u0 at t = 0, either a fixed number of steps or to
    t_end. This is the one time loop: every solve of the library, its
    harness, tests and demos advances through it.

    The step size comes from `dt` (fixed) or `dt_fn(u, t)` (recomputed each
    step), and is clipped so the run lands exactly on t_end. Before every
    step, each callback is called as cb(step, t, h, u): u is the state after
    `step` accepted steps, at time t, and h the step size about to be taken
    from it. Callbacks must not write to u; the final state, which no
    callback sees, is the return value. n_steps and t_end pass
    check_schedule. A DivergenceError or AdmissibilityError from a stage
    is re-raised as its own class with the step and t in the message and
    attached as .step and .t, the last valid state as .last_fields, and
    the stage error's own attributes (such as .index) kept.
    Returns (fields, info) with the step and RHS-evaluation counts.
    """
    check_schedule(n_steps, t_end)
    if (dt is None) == (dt_fn is None):
        raise ConfigurationError("exactly one of dt and dt_fn must be given")
    u = np.array(u0, dtype=float, copy=True)
    t = 0.0
    step = 0
    eps = 1e-12 * max(1.0, abs(t_end)) if t_end is not None else 0.0
    while (step < n_steps) if n_steps is not None else (t < t_end - eps):
        h = dt if dt is not None else dt_fn(u, t)
        if t_end is not None and t + h > t_end:
            h = t_end - t
        for cb in callbacks:
            cb(step, t, h, u)
        try:
            u_next = rk_step(u, t, h, rhs_fn)
        except (DivergenceError, AdmissibilityError) as err:
            what = "diverged" if isinstance(err, DivergenceError) else "inadmissible"
            wrapped = type(err)("%s in step %d at t=%.6g: %s" % (what, step, t, err))
            vars(wrapped).update(vars(err), last_fields=u, step=step, t=t)
            raise wrapped from err
        u = u_next
        t += h
        step += 1
    return u, {"steps": step, "t": t, "rhs_evals": RK54.n_stages * step}
