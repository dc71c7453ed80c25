import math

import numpy as np
import pytest

from fluxdg.batched import inv_logmean_batched, logmean_batched
from fluxdg.errors import DomainError
from fluxdg.fluxes import SERIES_EPSILON
from fluxdg.reference import (
    inv_logmean_optimized,
    logmean_optimized,
    logmean_reference,
)

from .oracles import (
    arithmetic_mean,
    inv_logmean_mp,
    jump_grid,
    logmean_mp,
    product_mean,
)


def logmean_lanes(a, b):
    """The lane log mean evaluated on a single lane."""
    return float(logmean_batched(np.array([a]), np.array([b]))[0])


def inv_logmean_lanes(a, b):
    """The lane inverse log mean evaluated on a single lane."""
    return float(inv_logmean_batched(np.array([a]), np.array([b]))[0])


# the scalar version the flux kernels call and the lane version of the
# batched kernels
ALL_LOGMEANS = (logmean_optimized, logmean_lanes)
ALL_INV_LOGMEANS = (inv_logmean_optimized, inv_logmean_lanes)


def test_simple_means():
    assert arithmetic_mean(1.0, 3.0) == 2.0
    # product mean: (a+ b- + a- b+)/2
    assert product_mean(2.0, 4.0, 10.0, 30.0) == 0.5 * (4.0 * 10.0 + 2.0 * 30.0)
    # equals 2{a}{b} - {ab}
    a_m, a_p, b_m, b_p = 1.3, 2.1, 0.4, 5.5
    other = 2.0 * arithmetic_mean(a_m, a_p) * arithmetic_mean(b_m, b_p) - arithmetic_mean(
        a_m * b_m, a_p * b_p
    )
    assert abs(product_mean(a_m, a_p, b_m, b_p) - other) < 1e-14


def test_reference_matches_oracle_for_separated_args():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-3, 3))
        b = float(a * 10.0 ** rng.uniform(0.5, 3))
        ref = logmean_reference(a, b)
        assert abs(ref - logmean_mp(a, b)) <= 1e-14 * ref


def test_reference_rejects_bad_input():
    with pytest.raises(DomainError):
        logmean_reference(1.0, 1.0)
    with pytest.raises(DomainError):
        logmean_reference(-1.0, 2.0)
    with pytest.raises(DomainError):
        logmean_optimized(0.0, 1.0)


@pytest.mark.parametrize("fn", ALL_LOGMEANS)
def test_logmean_accuracy_against_oracle(fn):
    # relative jumps from 1e-16 (deep series branch) to 1e2 (log branch),
    # at several magnitudes of the left argument
    for center in (1e-6, 1.0, 3.7, 1e6):
        for a, b in jump_grid(center=center):
            got = fn(a, b)
            want = logmean_mp(a, b)
            assert abs(got - want) <= 1e-14 * want, (center, a, b, got, want)


@pytest.mark.parametrize("fn", ALL_INV_LOGMEANS)
def test_inv_logmean_accuracy_against_oracle(fn):
    for center in (1e-6, 1.0, 3.7, 1e6):
        for a, b in jump_grid(center=center):
            got = fn(a, b)
            want = inv_logmean_mp(a, b)
            assert abs(got - want) <= 1e-14 * want, (center, a, b, got, want)


def test_equal_arguments_exact():
    for fn in ALL_LOGMEANS:
        assert fn(2.5, 2.5) == 2.5
    assert inv_logmean_optimized(2.5, 2.5) == 1.0 / 2.5


def test_symmetry():
    # the optimized u formula is not literally symmetric, so only roundoff-
    # level symmetry is promised
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = float(1.0 + rng.random())
        b = float(1.0 + rng.random())
        assert abs(logmean_optimized(a, b) - logmean_optimized(b, a)) <= 1e-14 * a


def test_mean_ordering():
    # geometric <= logarithmic <= arithmetic, strict for distinct arguments
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-2, 2))
        b = float(10.0 ** rng.uniform(-2, 2))
        if a == b:
            continue
        lm = logmean_optimized(a, b)
        assert math.sqrt(a * b) < lm < arithmetic_mean(a, b)


def _branch_boundary_pairs(n=64):
    """Argument pairs straddling u == SERIES_EPSILON.

    u = ((b-a)/(a+b))^2, so the boundary in the ratio r = b/a sits at
    r = (1+s)/(1-s) with s = sqrt(SERIES_EPSILON). The sweep steps are
    1.6e-14 in the ratio, small enough that the smooth slope contributes
    well under 1e-13 between neighbours; a branch discontinuity above
    1e-12 would dominate the diff.
    """
    s = math.sqrt(SERIES_EPSILON)
    r_star = (1.0 + s) / (1.0 - s)
    out = []
    for bump in np.linspace(-5e-13, 5e-13, n):
        out.append((1.0, r_star * (1.0 + bump)))
    return out


@pytest.mark.parametrize("fn", ALL_LOGMEANS + ALL_INV_LOGMEANS)
def test_branch_continuity(fn):
    pairs = _branch_boundary_pairs()
    vals = np.asarray([fn(a, b) for a, b in pairs])
    # both branches must actually be visited for this to test anything
    u = [((b - a) / (a + b)) ** 2 for a, b in pairs]
    assert min(u) < SERIES_EPSILON < max(u)
    jumps = np.abs(np.diff(vals)) / np.abs(vals[:-1])
    assert float(jumps.max()) < 1e-12


def test_logmean_variants_agree():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = float(10.0 ** rng.uniform(-2, 2))
        b = float(a * (1.0 + 10.0 ** rng.uniform(-10, 1)))
        base = logmean_optimized(a, b)
        assert abs(logmean_lanes(a, b) - base) <= 2e-14 * base
        assert abs(inv_logmean_optimized(a, b) * base - 1.0) <= 2e-14
