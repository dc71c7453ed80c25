import inspect
import sys
from itertools import product

import numpy as np
import pytest

from fluxdg import batched, discretization
from fluxdg import (
    FluxCounter,
    RhsConfig,
    build_mesh,
    build_setup,
    count_guard,
    make_operator,
    rhs,
)
from fluxdg.batched import inv_logmean_batched, logmean_batched, mesh_fluxdiff_volume
from fluxdg.discretization import KERNELS, VOLUME_SCHEMES, volume_fluxdiff
from fluxdg.errors import ConfigurationError
from fluxdg.euler import cons2prim
from fluxdg.fluxes import SURFACE_KINDS
from fluxdg.geometry import element_metrics
from fluxdg.means import logmean_optimized, inv_logmean_optimized

from .conftest import random_field
from .test_acceptance import _relative_gap


def make_setup(gas, d=2, p=3, amplitude=0.0, geo_degree=None, family="lgl", dims=None):
    mesh = build_mesh(dims or (2,) * d, amplitude=amplitude, geo_degree=geo_degree)
    return build_setup(mesh, make_operator(p, family), gas)


def test_branchless_logmean_matches_scalar():
    rng = np.random.default_rng(3)
    a = 1.0 + rng.random(64)
    b = a.copy()
    # half the lanes sit deep in the series regime, half far outside it
    b[:32] *= 1.0 + 1e-9 * rng.standard_normal(32)
    b[32:] *= 1.0 + 2.0 * rng.random(32)
    got = logmean_batched(a, b)
    inv = inv_logmean_batched(a, b)
    for i in range(64):
        want = logmean_optimized(a[i], b[i])
        assert abs(got[i] - want) < 5e-16 * want
        assert abs(inv[i] - inv_logmean_optimized(a[i], b[i])) < 5e-16 / want


def _volume_against_oracle(setup, u, vol_flux):
    """mesh_fluxdiff_volume against volume_fluxdiff stacked over the mesh,
    with the (two-point, log-mean) counts of each."""
    want_c = FluxCounter()
    with count_guard(want_c):
        want = np.stack(
            [
                volume_fluxdiff(
                    u[e], setup.dsplit, element_metrics(setup.metrics, e), vol_flux,
                    setup.gas,
                )
                for e in range(setup.n_elements)
            ]
        )
    got_c = FluxCounter()
    with count_guard(got_c):
        got = mesh_fluxdiff_volume(
            u, cons2prim(u, setup.gas), setup, RhsConfig(volume_flux=vol_flux)
        )
    assert np.abs(got - want).max() < 1e-13
    assert (got_c.two_point_evals, got_c.logmean_evals) == (
        want_c.two_point_evals,
        want_c.logmean_evals,
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vol_flux", ["shima", "ranocha", "central"])
@pytest.mark.parametrize("amplitude", [0.0, 0.15])
def test_element_volume_matches_scalar(gas, d, vol_flux, amplitude):
    setup = make_setup(gas, d=d, amplitude=amplitude)
    u = random_field(setup, gas, seed=5, amp=0.5)
    _volume_against_oracle(setup, u, vol_flux)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_element_volume_matches_scalar_across_degrees(gas, p):
    setup = make_setup(gas, d=2, p=p, amplitude=0.12)
    u = random_field(setup, gas, seed=7, amp=0.4)
    _volume_against_oracle(setup, u, "ranocha")


@pytest.mark.parametrize(
    "family,scheme",
    [
        ("lgl", "fluxdiff"),
        ("gauss", "gauss_fluxdiff"),
        ("gauss", "gauss_surface_correction"),
    ],
)
@pytest.mark.parametrize("d", [2, 3])
def test_mesh_rhs_matches_reference_kernel(gas, family, scheme, d):
    geo = None
    amplitude = 0.12 if d == 2 else 0.08
    if family == "gauss":
        geo = 2 if d == 2 else 1
    setup = make_setup(
        gas, d=d, dims=(3,) * d, amplitude=amplitude, geo_degree=geo, family=family
    )
    u = random_field(setup, gas, seed=8, amp=0.3)
    base = RhsConfig(volume_scheme=scheme, volume_flux="ranocha", surface_flux="ranocha")
    want = rhs(u, setup, base)
    got = rhs(
        u,
        setup,
        RhsConfig(
            volume_scheme=scheme,
            volume_flux="ranocha",
            surface_flux="ranocha",
            kernel="batched",
        ),
    )
    assert np.abs(got - want).max() < 1e-13


def test_mesh_rhs_cartesian_matches_reference_kernel(gas):
    setup = make_setup(gas, d=2, dims=(4, 4))
    u = random_field(setup, gas, seed=9, amp=0.5)
    for surface in ("ranocha", "llf", "hll"):
        want = rhs(u, setup, RhsConfig(surface_flux=surface))
        got = rhs(u, setup, RhsConfig(surface_flux=surface, kernel="batched"))
        assert np.abs(got - want).max() < 1e-13, surface


def test_batched_counts_match_scalar_counts(gas):
    setup = make_setup(gas, d=3, amplitude=0.1)
    u = random_field(setup, gas, seed=10, amp=0.3)
    counts = {}
    for kernel in ("reference", "batched"):
        c = FluxCounter()
        with count_guard(c):
            rhs(u, setup, RhsConfig(kernel=kernel))
        counts[kernel] = (c.two_point_evals, c.one_point_evals, c.logmean_evals)
    assert counts["reference"] == counts["batched"]


@pytest.mark.parametrize("elements", [1, 3])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("kind", SURFACE_KINDS)
@pytest.mark.parametrize("scheme", ["strong", "weak", "overintegration"])
@pytest.mark.parametrize("family", ["lgl", "gauss"])
@pytest.mark.parametrize("d", [2, 3])
def test_one_point_schemes_match_reference(gas, d, family, scheme, kind, p, elements):
    overint = None
    amplitude = 0.1
    geo = None if family == "lgl" else (2 if d == 2 else 1)
    if scheme == "overintegration":  # Cartesian meshes only
        overint = p + 1
        amplitude = 0.0
        geo = None
    mesh = build_mesh((elements,) * d, amplitude=amplitude, geo_degree=geo)
    setup = build_setup(mesh, make_operator(p, family), gas, overint_degree=overint)
    u = random_field(setup, gas, seed=11, amp=0.3)
    results = {}
    for kernel in KERNELS:
        config = RhsConfig(
            volume_scheme=scheme,
            surface_flux=kind,
            overint_degree=overint,
            kernel=kernel,
        )
        c = FluxCounter()
        dudt = rhs(u, setup, config, counter=c)
        results[kernel] = dudt, (c.two_point_evals, c.one_point_evals, c.logmean_evals)
    (ref, ref_counts), (bat, bat_counts) = results["reference"], results["batched"]
    assert _relative_gap(ref, bat) < 1e-13
    assert ref_counts == bat_counts
    # the interface flux is these schemes' only two-point work, one
    # evaluation per face point on both families
    assert bat_counts[0] == d * setup.n_elements * (p + 1) ** (d - 1)


@pytest.mark.parametrize(
    "family, scheme",
    [
        ("lgl", "fluxdiff"),
        ("lgl", "strong"),
        ("lgl", "weak"),
        ("gauss", "gauss_fluxdiff"),
        ("gauss", "weak"),
    ],
)
@pytest.mark.parametrize("d", [2, 3])
def test_rhs_converts_nodal_states_once(gas, monkeypatch, d, family, scheme):
    """A batched rhs converts the nodal states to primitives exactly once:
    cons2prim calls on arrays shaped like u, counted in discretization and
    batched (face traces and projected face states have other shapes)."""
    geo = (2 if d == 2 else 1) if family == "gauss" else None
    setup = make_setup(gas, d=d, p=2, amplitude=0.1, geo_degree=geo, family=family)
    u = random_field(setup, gas, seed=13, amp=0.3)
    nodal = []
    for module in (discretization, batched):

        def counted(states, gas_, original=module.cons2prim, name=module.__name__):
            if np.shape(states) == u.shape:
                nodal.append(name)
            return original(states, gas_)

        monkeypatch.setattr(module, "cons2prim", counted)
    config = RhsConfig(volume_scheme=scheme, surface_flux="llf", kernel="batched")
    assert np.isfinite(rhs(u, setup, config)).all()
    assert nodal == ["fluxdg.discretization"]


def test_rhs_reaches_every_lane_function(gas):
    """Sweeping rhs(kernel="batched") over dimension, family, mesh, volume
    scheme and surface flux calls every function defined in fluxdg.batched:
    the lane module holds no code that rhs never reaches."""
    defined = {
        fn.__code__: name
        for name, fn in vars(batched).items()
        if inspect.isfunction(fn) and fn.__module__ == batched.__name__
    }
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    ran = set()
    p = 2
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for d, family, amplitude in product((2, 3), ("lgl", "gauss"), (0.0, 0.1)):
            curved_gauss = family == "gauss" and amplitude > 0.0
            geo = (2 if d == 2 else 1) if curved_gauss else None
            mesh = build_mesh((2,) * d, amplitude=amplitude, geo_degree=geo)
            overint = p + 1 if amplitude == 0.0 else None
            op = make_operator(p, family)
            setup = build_setup(mesh, op, gas, overint_degree=overint)
            u = random_field(setup, gas, seed=12, amp=0.3)
            for scheme, kind in product(VOLUME_SCHEMES, SURFACE_KINDS):
                config = RhsConfig(
                    volume_scheme=scheme,
                    surface_flux=kind,
                    overint_degree=p + 1,
                    kernel="batched",
                )
                try:
                    config.validate(setup)
                except ConfigurationError:
                    continue  # scheme not defined for this family or mesh
                assert np.isfinite(rhs(u, setup, config)).all()
                ran.add(scheme)
    finally:
        sys.setprofile(previous)
    assert ran == set(VOLUME_SCHEMES)
    missing = sorted(name for code, name in defined.items() if code not in called)
    assert not missing, missing
