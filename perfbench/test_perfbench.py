"""Tests of the benchmark's own machinery: spans, rebinding and inputs.

They run on 2-element meshes of each workload's kind, so they are quick.
"""

import sys

import numpy as np
import pytest

import fluxdg
import run
from tracing import BOUNDARIES, Span, Tracer, rebound, summarize
from workloads import WORKLOADS, set_up

SMALL = 2


def _traced_solve(name, seed=3):
    problem = set_up(WORKLOADS[name], seed, elements=SMALL)
    tracer = Tracer()
    with rebound(tracer):
        res = run.solve_loop(problem, 0.0, tracer)
    return problem, res, summarize(tracer.spans)


def test_self_time_subtracts_direct_children():
    spans = [Span("root", 0, -1, 0.0, 10.0), Span("a", 1, 0, 1.0, 4.0),
             Span("a.inner", 2, 1, 2.0, 3.0), Span("b", 3, 0, 5.0, 6.0)]
    layers = summarize(spans)
    assert layers["root"]["self_s"] == 6.0
    assert layers["a"]["self_s"] == 2.0
    assert layers["a.inner"]["self_s"] == 1.0
    assert sum(v["self_s"] for v in layers.values()) == spans[0].duration


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_plus_remainder_add_up_to_step_time(name):
    problem, res, layers = _traced_solve(name)
    m = run.layer_metrics(problem, res, res, layers, {"alloc_peak_mb": {}}, {})
    n = len(res.iters)
    step = sum(res.iters) / n
    self_per_step = sum(v["self_s"] for v in layers.values()) / n
    assert self_per_step + m["trace.unattributed_s"] == pytest.approx(step, rel=1e-12)
    assert 0.0 <= m["trace.unattributed_s"] < 0.2 * step
    # the RHS calls of a step are children of its rk_step span
    assert layers["discretization.rhs"]["calls"] == fluxdg.RK54.n_stages * n


def _fluxdg_attributes():
    return {
        (mod_name, attr): value
        for mod_name, module in list(sys.modules.items())
        if mod_name == "fluxdg" or mod_name.startswith("fluxdg.")
        for attr, value in vars(module).items()
    }


def test_rebound_attributes_are_restored():
    before = _fluxdg_attributes()
    _traced_solve("gauss3d_curved")
    with pytest.raises(RuntimeError):
        with rebound(Tracer()):
            assert fluxdg.batched.mesh_gauss_surface is not before[
                ("fluxdg.batched", "mesh_gauss_surface")]
            raise RuntimeError("a failure inside the traced run")
    after = _fluxdg_attributes()
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []


def test_missing_boundary_is_reported_not_raised():
    extra = (
        ("fluxdg.discretization", "no_such_phase", "discretization.no_such_phase"),
        ("fluxdg.no_such_module", "anything", "none.anything"),
        ("fluxdg.batched", "nothing_*", "batched."),
    )
    with rebound(Tracer(), BOUNDARIES + extra) as absent:
        assert callable(fluxdg.discretization.surface_terms)
    assert absent == [
        "fluxdg.discretization.no_such_phase",
        "fluxdg.no_such_module.anything",
        "fluxdg.batched.nothing_*",
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_reproduces_u0_bit_for_bit(name):
    workload = WORKLOADS[name]
    first = set_up(workload, 11).u0
    again = set_up(workload, 11).u0
    other = set_up(workload, 12).u0
    assert first.tobytes() == again.tobytes()
    assert not np.array_equal(first, other)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_across_seeds(name):
    problem, _res, layers = _traced_solve(name)
    ((check, mismatches, bound),) = run.exact_count_check(problem, 3, layers)
    assert mismatches == bound == 0.0
    ratio = run.count_metrics(layers, problem.setup)[
        "batched.mesh_gauss_surface.useful_eval_ratio"]
    assert ratio == (0.5 if name == "gauss3d_curved" else 0.0)


def test_allocation_peaks_nest():
    import tracemalloc

    tracer = Tracer(track_alloc=True)
    tracemalloc.start()
    try:
        with tracer.span("outer"):
            with tracer.span("inner"):
                block = np.ones(250_000)  # 2 MB
                del block
            small = np.ones(1000)
    finally:
        tracemalloc.stop()
    outer, inner = tracer.spans
    assert inner.alloc_peak >= 2_000_000
    assert outer.alloc_peak >= inner.alloc_peak
    assert small.nbytes < inner.alloc_peak
