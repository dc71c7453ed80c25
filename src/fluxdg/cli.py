"""Command line front end.

Subcommands map one to one onto the harness entry points; every run is
described by a flat key=value config file plus repeatable `-o key=value`
overrides (overrides win). Exit codes: 0 success, 1 runtime failure,
2 configuration error (the message names the offending field).
"""

import argparse
import sys

from .errors import ConfigurationError, FluxdgError
from .harness import (
    CONVERGENCE_HEADER,
    ENTROPY_HEADER,
    MICROBENCH_FORMS,
    MICROBENCH_HEADER,
    PID_HEADER,
    build_run,
    convergence_study,
    entropy_sampler,
    load_config,
    measure_pid,
    microbench_flux,
    output_path,
    pid_row,
    run_simulation,
    write_csv,
)


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigurationError(
                "override: expected key=value, got %r" % (pair,)
            )
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _config_from_args(args):
    return load_config(args.config, _parse_overrides(args.override))


def _add_config_options(sub):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument(
        "-o",
        "--override",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable, wins over the file)",
    )


def cmd_run(args):
    config = _config_from_args(args)
    if config.ic == "sinusoidal":
        print("# note: the sinusoidal profile uses a fluid at rest (v = 0)")
    run = build_run(config)
    rows = []
    samplers = (entropy_sampler(run, rows),) if args.entropy_csv else ()
    result = run_simulation(run, samplers)
    print(
        "completed %d steps to t = %.6g (%d RHS evaluations)"
        % (result.steps, result.t, result.rhs_evals)
    )
    print("conservation drift (normalized): %.3e" % result.conservation_drift)
    if result.error_l2 is not None:
        print("L2 error, density: %.6e" % result.error_l2[0])
        print("L2 error, total energy: %.6e" % result.error_l2[-1])
    if args.entropy_csv:
        worst = max(abs(r[3]) for r in rows)
        path = write_csv(
            output_path(args.entropy_csv, config.output), ENTROPY_HEADER, rows
        )
        print("entropy monitor: max |dS/dt| (normalized) %.3e -> %s" % (worst, path))
    return 0


def cmd_convergence(args):
    try:
        levels = tuple(int(x) for x in args.levels.split(","))
    except ValueError:
        raise ConfigurationError(
            "levels: expected comma-separated integers, got %r" % (args.levels,)
        ) from None
    if min(levels) < 1:
        raise ConfigurationError(
            "levels: expected positive element counts, got %r" % (args.levels,)
        )
    config = _config_from_args(args)
    rows = convergence_study(config, levels)
    path = write_csv(
        output_path("convergence.csv", config.output), CONVERGENCE_HEADER, rows
    )
    for level, h, e_rho, e_rhoe, o_rho, o_rhoe in rows:
        order = "      -" if o_rho is None else "%7.3f" % o_rho
        print("level %4d  h %.4f  l2_rho %.6e  order %s" % (level, h, e_rho, order))
    print("wrote %s" % path)
    return 0


def cmd_pid(args):
    config = _config_from_args(args)
    result = measure_pid(config, n_rhs=args.n_rhs, repeats=args.repeats)
    path = write_csv(
        output_path("pid.csv", config.output), PID_HEADER, [pid_row(config, result)]
    )
    print(
        "PID %.4e s/RHS/DOF (std %.2e over %d repeats, %d RHS, %d DOFs)"
        % (result.mean_pid, result.std_pid, args.repeats, result.n_rhs, result.dofs)
    )
    print("wrote %s" % path)
    return 0


def cmd_microbench(args):
    kinds = tuple(k.strip() for k in args.kinds.split(","))
    forms = MICROBENCH_FORMS if args.forms == "all" else tuple(args.forms.split(","))
    rows = []
    for kind in kinds:
        for form in forms:
            ns_mean, ns_std, n = microbench_flux(
                kind, form, args.d, n_samples=args.n_samples, repeats=args.repeats
            )
            rows.append((kind, form, args.d, ns_mean, ns_std, n))
            print("%-8s %-12s %6.1f ns/eval (std %.1f)" % (kind, form, ns_mean, ns_std))
    path = write_csv(output_path("microbench.csv", None), MICROBENCH_HEADER, rows)
    print("wrote %s" % path)
    return 0


def cmd_verify(args):
    from .verify import verify_all

    results = verify_all()
    failed = 0
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        print("%s %s: %s" % (mark, r.name, r.detail))
        failed += 0 if r.ok else 1
    if failed:
        print("%d of %d checks failed" % (failed, len(results)))
        return 1
    print("all %d checks passed" % len(results))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fluxdg", description="flux-differencing DG solver harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured problem")
    _add_config_options(p_run)
    p_run.add_argument(
        "--entropy-csv",
        metavar="NAME",
        help="sample the entropy production of this run and write this CSV",
    )
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", help="mesh refinement study")
    _add_config_options(p_conv)
    p_conv.add_argument("--levels", default="4,8,16", help="elements per direction")
    p_conv.set_defaults(func=cmd_convergence)

    p_pid = sub.add_parser("pid", help="runtime per RHS per degree of freedom")
    _add_config_options(p_pid)
    p_pid.add_argument("--n-rhs", type=int, default=500)
    p_pid.add_argument("--repeats", type=int, default=5)
    p_pid.set_defaults(func=cmd_pid)

    p_mb = sub.add_parser("microbench", help="lane flux kernel timings (ns/lane)")
    p_mb.add_argument("--kinds", default="shima,ranocha")
    p_mb.add_argument("--forms", default="all")
    p_mb.add_argument("--d", type=int, default=3, choices=(2, 3))
    p_mb.add_argument("--n-samples", type=int, default=20000)
    p_mb.add_argument("--repeats", type=int, default=5)
    p_mb.set_defaults(func=cmd_microbench)

    p_verify = sub.add_parser("verify", help="run the property checklist")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return 2
    except FluxdgError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
