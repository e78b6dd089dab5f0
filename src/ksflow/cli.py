"""Command-line interface.

Subcommands:
  simulate        run the radial flow from a config file with monitors
  verify-lifted   dispatch the R^6 identity suites
  probe           run the convolution/interpolation inequality probes
  compare-blowup  semilinear-heat twin versus the gamma = -3 flow
  plot            render CSV columns to a deterministic SVG line chart

Exit status: 0 when every enabled assertion passes, 1 on assertion failure
(with the verdict table printed), 2 on usage/config errors and on a
`simulate` run that aborts (`simulate aborted: ...`, the last good state
checkpointed, no report written).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import math
import os
import sys

from .report import all_passed, fmt, verdict_block, write_csv, write_run_report


def _print(quiet, *args):
    if not quiet:
        print(*args)


def _first_bad_number(checks) -> bool:
    """Print one line for the first (flag, value, ok, requirement) that fails."""
    for flag, value, ok, requirement in checks:
        if not ok:
            print(f"{flag} must be {requirement}, got {value!r}", file=sys.stderr)
            return True
    return False


def _distinct(flag, values):
    """Checks for `_first_bad_number` that a repeatable flag names no value
    twice: a repeat would run, print and write the same rows twice."""
    values = values or []
    return [(flag, value, value not in values[:i], "given once per value")
            for i, value in enumerate(values)]


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0


def cmd_simulate(args) -> int:
    from .config import ConfigError, load_config
    from .grids import FieldError
    from .harness import simulate
    from .solver import SolverError

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.out
    try:
        ok, verdicts = simulate(cfg, out_dir)
    except (FieldError, SolverError) as exc:
        # e.g. a positivity violation; the last good state is checkpointed
        print(f"simulate aborted: {exc}", file=sys.stderr)
        return 2
    for line in verdict_block(verdicts):
        _print(args.quiet, line)
    _print(args.quiet, f"report written to {out_dir}")
    return 0 if ok else 1


def cmd_verify_lifted(args) -> int:
    from .kernels import KernelError
    from .lifted.functionals import MAX_SAMPLES
    from .lifted.suites import SUITES

    names = args.suite or list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if _first_bad_number([("--samples", args.samples, 1 <= args.samples <= MAX_SAMPLES,
                           f"in [1, {MAX_SAMPLES}]"),
                          ("--seed", args.seed, args.seed >= 0, "at least 0"),
                          # the range of kernels.PowerLaw
                          *(("--gamma", g, -3.0 <= g <= 1.0, "in [-3, 1]")
                            for g in args.gamma or ()),
                          *_distinct("--suite", args.suite),
                          *_distinct("--gamma", args.gamma)]):
        return 2
    rows = []
    for name in names:
        # --samples and --gamma reach the suites that declare the parameter
        accepted = inspect.signature(SUITES[name]).parameters
        kwargs = {"seed": args.seed}
        if "n_samples" in accepted:
            kwargs["n_samples"] = args.samples
        if args.gamma and "gammas" in accepted:
            kwargs["gammas"] = tuple(args.gamma)
        try:
            rows += SUITES[name](**kwargs)
        except KernelError as exc:
            # a gamma outside a suite's narrower range, e.g. marginal's h[f]
            print(f"verify-lifted rejected: {exc}", file=sys.stderr)
            return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_csv(os.path.join(args.out, "lifted.csv"),
                  ("suite", "identity", "lhs", "rhs", "stderr", "verdict"), rows)
    n_fail = sum(r["verdict"] == "fail" for r in rows)
    for r in rows:
        _print(args.quiet,
               f"{r['suite']:12s} {r['identity']:55s} "
               f"lhs={fmt(r['lhs'])} rhs={fmt(r['rhs'])} "
               f"stderr={fmt(r['stderr'])} {r['verdict']}")
    _print(args.quiet, f"{len(rows)} checks, {n_fail} failures")
    return 0 if n_fail == 0 else 1


def cmd_probe(args) -> int:
    from .probes import MAX_MEMBERS, PROBE_LEMMAS, ProbeError, probe_inequality

    lemmas = args.lemma or PROBE_LEMMAS
    if _first_bad_number([("--members", args.members, 1 <= args.members <= MAX_MEMBERS,
                           f"in [1, {MAX_MEMBERS}]"),
                          ("--seed", args.seed, args.seed >= 0, "at least 0"),
                          *_distinct("--lemma", args.lemma)]):
        return 2
    try:
        result = probe_inequality(lemmas, family_seed=args.seed, n_members=args.members)
    except ProbeError as exc:
        print(f"probe rejected: {exc}", file=sys.stderr)
        return 2
    verdicts = []
    for stats in result.stats:
        verdict = {
            "monitor": f"probe_{stats.lemma}",
            "passed": stats.passed,
            "max_ratio": stats.max_ratio,
            "scaling_deviation": stats.scaling_deviation,
        }
        # echo the validated hypothesis exponents into the report
        verdict.update({f"param_{k}": v for k, v in stats.params.items()})
        verdicts.append(verdict)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_csv(os.path.join(args.out, "probes.csv"),
                  ("lemma", "seed", "lambda", "lhs", "rhs", "ratio"), result.rows)
    for line in verdict_block(verdicts):
        _print(args.quiet, line)
    return 0 if all_passed(verdicts) else 1


def cmd_compare_blowup(args) -> int:
    from .config import SIGMA_RULE, gaussian_vanishes, sigma_ok
    from .grids import FieldError
    from .harness import BLOWUP_GRID, blowup_verdicts, compare_blowup
    from .solver import SolverError

    if _first_bad_number([
        ("--amplitude", args.amplitude,
         math.isfinite(args.amplitude) and args.amplitude >= 0, "finite and >= 0"),
        # the [initial] sigma rule of simulate's config
        ("--sigma", args.sigma, sigma_ok(args.sigma), SIGMA_RULE),
        ("--horizon", args.horizon, _positive(args.horizon), "finite and > 0"),
        *(("--dt", dt, _positive(dt), "finite and > 0") for dt in args.dt),
        *_distinct("--dt", args.dt),
    ]) or _first_bad_number([
        # the [initial] zero-field rule of simulate's config, on the twins'
        # grid; it needs the finite sigma and amplitude checked above
        ("--sigma", args.sigma,
         not gaussian_vanishes(BLOWUP_GRID, args.sigma, amplitude=args.amplitude),
         f"large enough that amplitude {args.amplitude!r} is not zero in every "
         f"cell of the grid"),
    ]):
        return 2
    try:
        result = compare_blowup(args.amplitude, sigma=args.sigma,
                                horizon=args.horizon, dt_list=tuple(args.dt))
    except (FieldError, SolverError) as exc:
        # e.g. a horizon that is not a whole number of steps
        print(f"compare-blowup rejected: {exc}", file=sys.stderr)
        return 2
    verdicts = blowup_verdicts(result)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        rows = []
        for dt, curve in zip(args.dt, result["heat_curves"]):
            for t, m in curve:
                rows.append({"model": f"semilinear_dt={dt:g}", "t": t, "max": m})
        for t, m in result["ks_curve"]:
            rows.append({"model": "landau_gamma-3", "t": t, "max": m})
        write_csv(os.path.join(args.out, "blowup.csv"), ("model", "t", "max"), rows)
        write_run_report(os.path.join(args.out, "blowup-report.txt"),
                         [f"amplitude = {args.amplitude!r}",
                          f"sigma = {args.sigma!r}",
                          f"horizon = {args.horizon!r}",
                          "dt = " + ", ".join(fmt(d) for d in args.dt)],
                         verdicts, ["blowup.csv"])
    for line in verdict_block(verdicts):
        _print(args.quiet, line)
    _print(args.quiet, f"detector times: {result['detector_times']}")
    return 0 if all_passed(verdicts) else 1


def cmd_plot(args) -> int:
    from .svgplot import write_svg

    try:
        with open(args.csv, "r", encoding="ascii", newline="") as fh:
            reader = csv.reader(fh, strict=True)
            # (last line number, cells) of every row that is not blank
            lines = [(reader.line_num, cells) for cells in reader
                     if any(cell.strip() for cell in cells)]
    except UnicodeDecodeError as exc:
        print(f"CSV is not ASCII: {exc}", file=sys.stderr)
        return 2
    except csv.Error as exc:
        print(f"CSV line {reader.line_num}: {exc}", file=sys.stderr)
        return 2
    if not lines:
        write_svg(args.out_file, [], title=os.path.basename(args.csv))
        return 0
    header = lines[0][1]
    wanted = args.columns.split(",")
    missing = [c for c in wanted if c not in header]
    if missing:
        print(f"column(s) not in CSV: {', '.join(missing)}", file=sys.stderr)
        return 2
    x_name = args.x
    if x_name not in header:
        print(f"x column {x_name!r} not in CSV", file=sys.stderr)
        return 2
    data = {name: [] for name in (x_name, *wanted)}
    for number, cells in lines[1:]:
        if len(cells) != len(header):
            print(f"CSV line {number} has {len(cells)} cells, the header "
                  f"{len(header)}", file=sys.stderr)
            return 2
        for name, cell in zip(header, cells):
            if name in data:
                try:
                    value = float(cell)
                except ValueError:
                    print(f"CSV line {number}: {name} = {cell!r} is not a number",
                          file=sys.stderr)
                    return 2
                if not math.isfinite(value):
                    print(f"CSV line {number}: {name} = {cell!r} is not finite",
                          file=sys.stderr)
                    return 2
                data[name].append(value)

    # one axis spans x, the other every y column together (log y: log10 y,
    # which cannot overflow); a span beyond the float range has no ticks
    for axis in ([x_name], [] if args.log_y else wanted):
        seen = []
        for name in axis:
            seen += data[name]
            if seen and not math.isfinite(max(seen) - min(seen)):
                print(f"CSV column {name}: values from {min(seen)!r} to "
                      f"{max(seen)!r} span more than the float range", file=sys.stderr)
                return 2
    xs = data[x_name]
    series = [(c, xs, data[c]) for c in wanted]
    write_svg(args.out_file, series, title=os.path.basename(args.csv),
              log_y=args.log_y)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ksflow",
                                description="isotropic Landau flow laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured radial flow")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None)
    sim.add_argument("--quiet", action="store_true")
    sim.set_defaults(fn=cmd_simulate)

    ver = sub.add_parser("verify-lifted", help="run R^6 identity suites")
    ver.add_argument("--suite", action="append",
                     help="suite name, repeatable, each name once (default: all)")
    ver.add_argument("--gamma", type=float, action="append",
                     help="power-law exponent in [-3, 1] ([-3, -2] for marginal), "
                          "repeatable, each value once; used by the commutators, qks, "
                          "derivatives, dissipation and marginal suites, ignored by "
                          "frames, flows and maxwell")
    ver.add_argument("--samples", type=int, default=1 << 20)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None)
    ver.add_argument("--quiet", action="store_true")
    ver.set_defaults(fn=cmd_verify_lifted)

    prb = sub.add_parser("probe", help="convolution/interpolation inequality probes")
    prb.add_argument("--lemma", action="append",
                     help="A1|A3|A4|A5|A7, repeatable, each lemma once (default: all)")
    prb.add_argument("--members", type=int, default=64)
    prb.add_argument("--seed", type=int, default=0)
    prb.add_argument("--out", default=None)
    prb.add_argument("--quiet", action="store_true")
    prb.set_defaults(fn=cmd_probe)

    cmp = sub.add_parser("compare-blowup", help="semilinear twin experiment")
    cmp.add_argument("--amplitude", type=float, default=50.0)
    cmp.add_argument("--sigma", type=float, default=1.0)
    cmp.add_argument("--horizon", type=float, default=0.1)
    cmp.add_argument("--dt", type=float, action="append", default=None)
    cmp.add_argument("--out", default=None)
    cmp.add_argument("--quiet", action="store_true")
    cmp.set_defaults(fn=cmd_compare_blowup)

    plt = sub.add_parser("plot", help="CSV columns to SVG")
    plt.add_argument("--csv", required=True)
    plt.add_argument("--columns", required=True,
                     help="comma-separated y columns")
    plt.add_argument("--x", default="t")
    plt.add_argument("--out-file", required=True)
    plt.add_argument("--log-y", action="store_true")
    plt.set_defaults(fn=cmd_plot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "compare-blowup" and args.dt is None:
        args.dt = [1e-4, 1e-5]
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
