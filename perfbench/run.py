"""Benchmark of record for fluxdg: PID, time to solution and memory.

    python3 perfbench/run.py --workload lgl3d_curved --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/`. One run:

1. checks the batched kernel against the scalar reference on a small mesh
   of the workload's kind (the correctness gate);
2. times set-up cold in fresh child processes, and measures set-up and
   per-RHS memory with tracemalloc in one more, untimed, child;
3. repeats a CFL-controlled solve (`stable_dt` + `rk_step` over `rhs`) to a
   fixed simulated time for `--seconds`, timing every RK step. The solves
   are identical, so pid_s and solve_s take the best of the repeats (see
   `pid_stats`) and pid_p90_s the tail of every step;
4. checks the final state (finite, conserved, vortex error, entropy rate);
5. prints every metric with its unit, and as its last line one JSON object.

With `--trace 0` the JSON carries the end-to-end metrics. With `--trace 1`
half the time runs untraced and half with spans at the library's module
boundaries, and the JSON carries the per-layer metrics; the spans are
written to `.bench_out/`.

Operations are RK steps and checks; `attempted` and `failed` in the JSON
count them, and the run prints fail_ratio = failed / attempted. A
failed operation makes the run exit 1.

The run stays on one thread: OpenBLAS is pinned to one thread before numpy
loads, and child processes inherit that.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import types

if __name__ == "__main__":
    # before numpy loads: one BLAS thread for this run and its child processes
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

try:
    import fluxdg
except ImportError as err:
    sys.exit("cannot import fluxdg from %s: %s" % (SRC, err))

from checks import final_checks, kernel_gate  # noqa: E402
from tracing import COUNTS, Tracer, rebound, summarize  # noqa: E402
from workloads import WORKLOADS, set_up, vortex_centre, vortex_conserved  # noqa: E402

SETUP_PROBES = 7  # cold set-ups per run; setup_s is their median
PROBE_TIMEOUT = 120.0
OUT_DIR = os.path.join(ROOT, ".bench_out")
MB = 1e6

END_TO_END_UNITS = {
    "pid_s": "s",
    "pid_p90_s": "s",
    "solve_s": "s",
    "setup_s": "s",
    "setup_mb": "MB",
    "rhs_peak_mb": "MB",
}

# Per-layer metrics, per RHS unless noted. A name "<span>.<key>" with a key
# of the span aggregates (see tracing.summarize) is read off that span. A
# layer the workload never crosses reads 0.
LAYER_UNITS = {
    "batched.mesh_fluxdiff_volume.self_s": "s",
    "batched.mesh_fluxdiff_volume.two_point_evals": "count",
    "batched.mesh_fluxdiff_volume.logmean_evals": "count",
    "batched.mesh_fluxdiff_volume.ns_per_two_point": "ns",
    "batched.mesh_fluxdiff_volume.alloc_peak_mb": "MB",
    "batched.mesh_surface.self_s": "s",
    "batched.mesh_surface.two_point_evals": "count",
    "batched.mesh_surface.ns_per_two_point": "ns",
    "batched.mesh_gauss_volume.self_s": "s",
    "batched.mesh_gauss_volume.two_point_evals": "count",
    "batched.mesh_gauss_volume.ns_per_two_point": "ns",
    "batched.mesh_gauss_volume.alloc_peak_mb": "MB",
    "batched.mesh_gauss_surface.self_s": "s",
    "batched.mesh_gauss_surface.two_point_evals": "count",
    "batched.mesh_gauss_surface.useful_eval_ratio": "ratio",
    "euler.cons2prim.calls": "count",
    "euler.cons2prim.s": "s",
    "discretization.rhs.self_s": "s",
    "euler.entropy_vars.s": "s",
    "euler.entropy2cons.s": "s",
    "discretization.surface_terms.s": "s",
    "discretization.surface_terms.one_point_evals": "count",
    "discretization.surface_terms.two_point_evals": "count",
    "discretization.volume_strong.s": "s",
    "discretization.volume_strong.calls": "count",
    "timeint.rk_step.self_s": "s",  # per step
    "timeint.stable_dt.s": "s",  # per step
    "fluxes.two_point_evals": "count",
    "fluxes.one_point_evals": "count",
    "means.logmean_evals": "count",
    "geometry.build_mesh.s": "s",  # per set-up, median of the cold set-ups
    "geometry.compute_metrics.s": "s",
    "operators.make_operator.s": "s",
    "discretization.build_setup.self_s": "s",
    "trace.overhead": "ratio",  # traced pid_s / untraced pid_s - 1
    "trace.unattributed_s": "s",  # per step: step time not inside any span
}
EXACT = tuple(
    k for k in LAYER_UNITS if k.endswith(("_evals", ".calls", "useful_eval_ratio"))
)
SETUP_LAYERS = (
    "geometry.build_mesh.s",
    "geometry.compute_metrics.s",
    "operators.make_operator.s",
    "discretization.build_setup.self_s",
)


# ---------------------------------------------------------------------------
# timed loop

def solve_loop(problem, seconds, tracer=None):
    """Repeat the solve from u0 to t_end until `seconds` are spent (at least
    three solves). Every solve does the same steps on the same states.

    Returns the RK step times per solve, the solve times, the times of every
    loop iteration (stable_dt + rk_step), the state and time the last solve
    ended with, and the steps attempted and failed.
    """
    setup, config = problem.setup, problem.config
    p = problem.workload.p

    def rhs_fn(v, t):
        return fluxdg.rhs(v, setup, config)

    step, dt_fn = fluxdg.rk_step, fluxdg.stable_dt
    if tracer is not None:
        rhs_fn = tracer.wrap("discretization.rhs", rhs_fn)
        step = tracer.wrap("timeint.rk_step", step)
        dt_fn = tracer.wrap("timeint.stable_dt", dt_fn)
    t_end = problem.workload.t_end
    eps = 1e-12 * max(1.0, t_end)
    res = types.SimpleNamespace(steps=[], solves=[], iters=[], attempted=0,
                                failed=0, u=problem.u0, t=0.0)
    start = time.perf_counter()
    while True:
        u, t = problem.u0, 0.0
        steps = []
        res.steps.append(steps)
        s0 = time.perf_counter()
        while t < t_end - eps:
            a = time.perf_counter()
            dt = min(dt_fn(u, problem.mesh, setup.metrics, setup.gas, p,
                           problem.controller), t_end - t)
            b = time.perf_counter()
            res.attempted += 1
            try:
                u = step(u, t, dt, rhs_fn)
            except fluxdg.FluxdgError as err:
                res.failed += 1
                print("step failed at t=%.6g: %s" % (t, err))
                return res
            c = time.perf_counter()
            steps.append(c - b)
            res.iters.append(c - a)
            t += dt
        now = time.perf_counter()
        res.solves.append(now - s0)
        res.u, res.t = u, t
        if now - start + res.solves[-1] > seconds and len(res.solves) >= 3:
            return res


def tail_quantile(n):
    """The 90th percentile, or the highest one with ten samples beyond it."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n))


def pid_stats(res, dofs):
    """PID (seconds per RHS per DOF) from the step times of complete solves.

    pid_s is the median over the steps of a solve of each step's best time
    across the run's repeated solves. The solves are identical, so the best
    of the repeats is the step's cost with the least interference from the
    rest of the machine (on shared hosts, whole stretches of a run can run
    1.5x slower). The tail is taken over every step of every solve.
    """
    solves = res.steps[: len(res.solves)]
    n = min(len(s) for s in solves)
    scale = 1.0 / (fluxdg.RK54.n_stages * dofs)
    best = np.min([s[:n] for s in solves], axis=0) * scale
    every = np.concatenate(solves) * scale
    q = tail_quantile(len(every))
    q1, med, q3 = np.quantile(every, [0.25, 0.5, 0.75])
    return {
        "pid_s": float(np.median(best)),
        "pid_tail_s": float(np.quantile(every, q)),
        "tail_q": q,
        "samples": len(every),
        "repeats": len(solves),
        "iqr_share": float((q3 - q1) / med),
    }


# ---------------------------------------------------------------------------
# child processes: cold set-up timing and the memory pass

def _traced_api(tracer):
    return types.SimpleNamespace(
        build_mesh=tracer.wrap("geometry.build_mesh", fluxdg.build_mesh),
        make_operator=tracer.wrap("operators.make_operator", fluxdg.make_operator),
        build_setup=tracer.wrap("discretization.build_setup", fluxdg.build_setup),
    )


def probe_setup(workload, seed, trace):
    """One cold set-up in this fresh process; with trace, its layer spans."""
    if not trace:
        t0 = time.perf_counter()
        set_up(workload, seed)
        return {"setup_s": time.perf_counter() - t0}
    tracer = Tracer()
    with rebound(tracer):
        t0 = time.perf_counter()
        set_up(workload, seed, api=_traced_api(tracer))
        elapsed = time.perf_counter() - t0
    layers = summarize(tracer.spans)
    return {
        "setup_s": elapsed,
        "layers": {
            name: _get(layers, *name.rsplit(".", 1)) for name in SETUP_LAYERS
        },
    }


def probe_memory(workload, seed):
    """Untimed tracemalloc pass: bytes held after set-up, and the peak
    allocated during one (warm) RHS and during each of its phases."""
    import tracemalloc

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    problem = set_up(workload, seed)
    held = tracemalloc.get_traced_memory()[0] - base
    fluxdg.rhs(problem.u0, problem.setup, problem.config)  # fill operator caches
    tracer = Tracer(track_alloc=True)
    with rebound(tracer):
        with tracer.span("discretization.rhs"):
            fluxdg.rhs(problem.u0, problem.setup, problem.config)
    tracemalloc.stop()
    layers = summarize(tracer.spans)
    return {
        "setup_mb": held / MB,
        "rhs_peak_mb": layers["discretization.rhs"]["alloc_peak"] / MB,
        "alloc_peak_mb": {k: v["alloc_peak"] / MB for k, v in layers.items()},
    }


def run_probe(kind, args):
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError("%s probe failed:\n%s" % (kind, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics

def _get(layers, name, key):
    """A span aggregate, 0 for a span that never opened."""
    return layers.get(name, {}).get(key, 0)


def count_metrics(layers, setup):
    """The exact per-RHS counts: flux/log-mean evaluations, calls, and the
    share of Gauss surface evaluations that are distinct face points."""
    n_rhs = max(_get(layers, "discretization.rhs", "calls"), 1)
    m = {}
    for name in EXACT:
        span, _, key = name.rpartition(".")
        m[name] = _get(layers, span, key) / n_rhs
    for key in COUNTS:
        total = _get(layers, "discretization.rhs", key) / n_rhs
        m[("means." if key == "logmean_evals" else "fluxes.") + key] = total
    # every interface point once per direction (the mesh is periodic)
    face_points = setup.d * setup.n_elements * setup.op.n_nodes ** (setup.d - 1)
    evals = m["batched.mesh_gauss_surface.two_point_evals"]
    m["batched.mesh_gauss_surface.useful_eval_ratio"] = (
        face_points / evals if evals else 0.0
    )
    return m


def layer_metrics(problem, traced, plain, layers, memory, setup_layers):
    """Per-layer metrics of the traced run (see LAYER_UNITS)."""
    setup = problem.setup
    n_rhs = max(_get(layers, "discretization.rhs", "calls"), 1)
    n_steps = len(traced.iters)
    m = {}
    for name in LAYER_UNITS:
        span, _, key = name.rpartition(".")
        m[name] = _get(layers, span, key) / n_rhs
    m.update(count_metrics(layers, setup))
    for name in ("mesh_fluxdiff_volume", "mesh_surface", "mesh_gauss_volume"):
        evals = m["batched.%s.two_point_evals" % name]
        m["batched.%s.ns_per_two_point" % name] = (
            1e9 * m["batched.%s.self_s" % name] / evals if evals else 0.0
        )
    for name in ("mesh_fluxdiff_volume", "mesh_gauss_volume"):
        m["batched.%s.alloc_peak_mb" % name] = memory["alloc_peak_mb"].get(
            "batched." + name, 0.0
        )
    m["timeint.rk_step.self_s"] = _get(layers, "timeint.rk_step", "self_s") / n_steps
    m["timeint.stable_dt.s"] = _get(layers, "timeint.stable_dt", "s") / n_steps
    m.update(setup_layers)
    self_total = sum(v["self_s"] for v in layers.values())
    m["trace.unattributed_s"] = (sum(traced.iters) - self_total) / n_steps
    m["trace.overhead"] = (
        pid_stats(traced, setup.dofs)["pid_s"] / pid_stats(plain, setup.dofs)["pid_s"]
        - 1.0
    )
    return m


def exact_count_check(problem, seed, layers):
    """The loop's per-RHS counts must equal those of one RHS on another
    seed's initial state: counts depend on the workload only."""
    setup = problem.setup
    other = vortex_conserved(setup.coords, 0.0, vortex_centre(seed + 1), setup.gas)
    tracer = Tracer()
    with rebound(tracer):
        tracer.wrap("discretization.rhs", fluxdg.rhs)(other, setup, problem.config)
    want = count_metrics(summarize(tracer.spans), setup)
    got = count_metrics(layers, setup)
    mismatched = [k for k in want if want[k] != got[k]]
    for k in mismatched:
        print("count %s: %r in the loop, %r on seed %d" % (k, got[k], want[k], seed + 1))
    return [("trace.exact_counts", float(len(mismatched)), 0.0)]


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "memory"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def report_checks(checks):
    failed = 0
    for name, value, bound in checks:
        ok = value <= bound
        failed += not ok
        print("check %-32s %-5s %.3e (bound %.1e)"
              % (name, "ok" if ok else "FAIL", value, bound))
    return failed


def main(argv=None):
    if not os.path.abspath(fluxdg.__file__).startswith(SRC + os.sep):
        sys.exit("fluxdg must come from %s, found %s" % (SRC, fluxdg.__file__))
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.probe == "setup":
        print(json.dumps(probe_setup(workload, args.seed, args.trace)))
        return 0
    if args.probe == "memory":
        print(json.dumps(probe_memory(workload, args.seed)))
        return 0

    print("machine: %s" % json.dumps(machine_info()))
    checks = kernel_gate(workload, args.seed)
    setups = [run_probe("setup", args) for _ in range(SETUP_PROBES)]
    memory = run_probe("memory", args)

    problem = set_up(workload, args.seed)
    fluxdg.rhs(problem.u0, problem.setup, problem.config)  # warm caches
    if args.trace:
        plain = solve_loop(problem, 0.5 * args.seconds)
        tracer = Tracer()
        with rebound(tracer) as absent:
            traced = solve_loop(problem, 0.5 * args.seconds, tracer)
        runs = (plain, traced)
        layers = summarize(tracer.spans)
        checks += exact_count_check(problem, args.seed, layers)
    else:
        plain = solve_loop(problem, args.seconds)
        runs = (plain,)
    checks += final_checks(problem, runs[-1].u, runs[-1].t)

    attempted = sum(r.attempted for r in runs) + len(checks)
    failed = sum(r.failed for r in runs) + report_checks(checks)
    print("%-48s %.6g ratio (%d of %d operations failed)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    metrics = {}
    if all(r.solves for r in runs):
        stats = pid_stats(plain, problem.setup.dofs)
        print("steps %d in %d solves; step-time IQR %.1f%% of median; "
              "pid_s: best of %d per step; pid_p90_s: p%.1f of %d samples"
              % (stats["samples"], len(plain.solves), 100 * stats["iqr_share"],
                 stats["repeats"], 100 * stats["tail_q"], stats["samples"]))
        if args.trace:
            if absent:
                print("absent boundaries: %s" % ", ".join(absent))
            setup_layers = {
                k: statistics.median(s["layers"][k] for s in setups)
                for k in SETUP_LAYERS
            }
            values = layer_metrics(problem, traced, plain, layers, memory,
                                   setup_layers)
            units = LAYER_UNITS
            write_spans(args, tracer, absent)
        else:
            values = {
                "pid_s": stats["pid_s"],
                "pid_p90_s": stats["pid_tail_s"],
                "solve_s": min(plain.solves),  # best of the identical solves
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "setup_mb": memory["setup_mb"],
                "rhs_peak_mb": memory["rhs_peak_mb"],
            }
            units = END_TO_END_UNITS
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, v in metrics.items():
        print("%-48s %.6g %s" % (k, v["value"], v["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def write_spans(args, tracer, absent):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "absent": absent, "spans": tracer.dump()}, f)
    print("spans: %d written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)))


if __name__ == "__main__":
    sys.exit(main())
