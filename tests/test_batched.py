import numpy as np
import pytest

from fluxdg import (
    BatchWidth,
    FluxCounter,
    RhsConfig,
    build_mesh,
    build_setup,
    count_guard,
    make_operator,
    rhs,
    soa_to_aos,
    transpose_to_soa,
)
from fluxdg.batched import (
    inv_logmean_batched,
    inv_logmean_from_logs_batched,
    logmean_batched,
    logmean_from_logs_batched,
    volume_fluxdiff_batched,
)
from fluxdg.discretization import KERNELS, volume_fluxdiff
from fluxdg.errors import ConfigurationError
from fluxdg.fluxes import SURFACE_KINDS
from fluxdg.geometry import element_metrics
from fluxdg.means import logmean_optimized, inv_logmean_optimized

from .conftest import random_field
from .test_acceptance import _relative_gap


def make_setup(gas, d=2, p=3, amplitude=0.0, geo_degree=None, family="lgl", dims=None):
    mesh = build_mesh(dims or (2,) * d, amplitude=amplitude, geo_degree=geo_degree)
    return build_setup(mesh, make_operator(p, family), gas)


def test_batch_width_validation():
    assert BatchWidth().lanes == 4
    assert BatchWidth(1).lanes == 1
    BatchWidth(16)
    for bad in (0, 3, 12, -4):
        with pytest.raises(ConfigurationError, match="lanes"):
            BatchWidth(bad)


def test_transposition_round_trip_is_bitwise(gas):
    setup = make_setup(gas, d=3)
    u = random_field(setup, gas, seed=0, amp=0.8)
    for width in (1, 4, 16):
        soa = transpose_to_soa(u[2], gas, width=width)
        assert soa.padded % width == 0
        assert np.array_equal(soa_to_aos(soa), u[2])


def test_transposition_padding_is_neutral(gas):
    setup = make_setup(gas)
    u = random_field(setup, gas, seed=1, amp=0.5)
    soa = transpose_to_soa(u[0], gas, width=BatchWidth(16))
    tail = slice(soa.n_nodes, None)
    assert np.all(soa.rho[tail] == 1.0)
    assert np.all(soa.p[tail] == 1.0)
    assert all(np.all(c[tail] == 0.0) for c in soa.v)


def test_transposition_mode_validation(gas):
    setup = make_setup(gas)
    u = random_field(setup, gas, seed=2, amp=0.5)
    with pytest.raises(ConfigurationError, match="mode"):
        transpose_to_soa(u[0], gas, mode="conserved")
    soa = transpose_to_soa(u[0], gas, mode="primitives_and_logs")
    assert soa.log_rho is not None
    n = soa.n_nodes
    assert np.abs(soa.log_rho[:n] - np.log(soa.rho[:n])).max() < 1e-15


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


def test_logmean_from_logs_variant():
    rng = np.random.default_rng(4)
    a = 0.5 + rng.random(32)
    b = 0.5 + rng.random(32)
    la = np.log(a)
    lb = np.log(b)
    plain = logmean_batched(a, b)
    from_logs = logmean_from_logs_batched(a, b, la, lb)
    # log(b/a) and log(b) - log(a) round differently; the means stay within
    # a few ulps of each other
    assert np.abs(from_logs / plain - 1.0).max() < 1e-13
    inv_plain = inv_logmean_batched(a, b)
    inv_logs = inv_logmean_from_logs_batched(a, b, la, lb)
    assert np.abs(inv_logs / inv_plain - 1.0).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("vol_flux", ["shima", "ranocha", "central"])
@pytest.mark.parametrize("amplitude", [0.0, 0.15])
def test_element_volume_matches_scalar(gas, d, vol_flux, amplitude):
    setup = make_setup(gas, d=d, amplitude=amplitude)
    u = random_field(setup, gas, seed=5, amp=0.5)
    terms = element_metrics(setup.metrics, 1)
    want = volume_fluxdiff(u[1], setup.dsplit, terms, vol_flux, gas)
    soa = transpose_to_soa(u[1], gas)
    got = volume_fluxdiff_batched(soa, setup.dsplit, terms, vol_flux, gas)
    assert np.abs(got - want).max() < 1e-13


def test_element_volume_independent_of_batch_width(gas):
    setup = make_setup(gas, d=3, amplitude=0.1)
    u = random_field(setup, gas, seed=6, amp=0.5)
    terms = element_metrics(setup.metrics, 0)
    results = [
        volume_fluxdiff_batched(
            transpose_to_soa(u[0], gas, width=w), setup.dsplit, terms, "ranocha", gas
        )
        for w in (1, 4, 16)
    ]
    # padding lanes never reach the scatter, so the width is invisible
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_element_volume_matches_scalar_across_degrees(gas, p):
    setup = make_setup(gas, d=2, p=p, amplitude=0.12)
    u = random_field(setup, gas, seed=7, amp=0.4)
    terms = element_metrics(setup.metrics, 3)
    want = volume_fluxdiff(u[3], setup.dsplit, terms, "ranocha", gas)
    soa = transpose_to_soa(u[3], gas)
    got = volume_fluxdiff_batched(soa, setup.dsplit, terms, "ranocha", gas)
    assert np.abs(got - want).max() < 1e-13


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
