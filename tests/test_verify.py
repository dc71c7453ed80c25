"""The case generator and the kernel comparisons of fluxdg.verify."""

from fluxdg import batched
from fluxdg.discretization import VOLUME_SCHEMES
from fluxdg.fluxes import SURFACE_KINDS
from fluxdg.verify import check_batched_kernel, fingerprints, rhs_cases

SMALL = dict(dims=((1, 3), (2, 1, 2)), degrees=(1, 2), volume_fluxes=("ranocha",))


def test_rhs_cases_are_deterministic_valid_and_uniquely_named():
    cases = rhs_cases(**SMALL)
    assert cases == rhs_cases(**SMALL)
    assert len({case.id for case in cases}) == len(cases)
    for case in cases:
        case.config.validate(case.setup())
    # p = 1, a one-element direction on anisotropic meshes, 3D isoparametric
    # Gauss, overintegration and every surface kind
    assert {(case.p, case.dims) for case in cases} >= {(1, (1, 3)), (1, (2, 1, 2))}
    assert ((2, 1, 2), 0.1, None, "gauss") in {
        (case.dims, case.amplitude, case.geo_degree, case.family) for case in cases
    }
    assert {case.config.volume_scheme for case in cases} == set(VOLUME_SCHEMES)
    assert {case.config.surface_flux for case in cases} == set(SURFACE_KINDS)


def test_fingerprints_repeat_within_one_process():
    cases = rhs_cases(((1, 3), (2, 1, 2)), (2,), surface_fluxes=("hll",))
    first = fingerprints(cases, amp=0.3)
    assert first == fingerprints(cases, amp=0.3)
    assert list(first) == [case.id for case in cases]


def test_check_batched_kernel_names_the_perturbed_case(monkeypatch):
    """A batched surface term off by 1e-10 in 3D only, or one that evaluates
    its fluxes twice, fails the check at the 3D case and names it."""
    cases = rhs_cases(
        ((2, 2), (2, 2, 2)), (2,), families=("lgl",), meshes=("cartesian",),
        schemes=("strong",), surface_fluxes=("llf",),
    )
    assert check_batched_kernel(cases, amp=0.3)[0] < 1e-13
    surface = batched.mesh_surface

    def off(faces, setup, n, kind, subtract, out):
        surface(faces, setup, n, kind, subtract, out)
        out += 1e-10 * (setup.d == 3)

    def twice(faces, setup, n, kind, subtract, out):
        if setup.d == 3:
            surface(faces, setup, n, kind, subtract, out.copy())
        surface(faces, setup, n, kind, subtract, out)

    for perturbed, message in ((off, "worst at "), (twice, "counts differ at ")):
        monkeypatch.setattr(batched, "mesh_surface", perturbed)
        gap, where = check_batched_kernel(cases, amp=0.3)
        assert gap > 1e-13
        assert where.startswith(message + cases[1].id), where
