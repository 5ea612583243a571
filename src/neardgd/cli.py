"""Experiment runner: run / sweep / check subcommands.

Exit codes: 0 success, 1 validation error, 2 runtime divergence,
3 check-suite failure.
"""

import argparse
import functools
import multiprocessing
import os
import sys

from . import checks
from .config import ConfigError, RunConfig, load_run_config_file
from .diagnostics import TRACE_COLUMNS
from .optimizer import initial_point, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_CHECK_FAILURE = 3


def _load(args, default=RunConfig) -> RunConfig:
    cfg = load_run_config_file(args.config) if args.config else default()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _out_path(args, cfg, default_name=None):
    name = default_name or cfg.output_path
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        return os.path.join(args.out, os.path.basename(name))
    return name


def _run_cell(cfg, problem, cm, x0s, cell):
    """Run one (MethodSpec, seed) cell of cfg from that seed's x0s entry."""
    method, seed = cell
    return run(problem, cm, method, cfg.alpha, cfg.budget, seed=seed,
               cost_model=cfg.cost_model, grad_tol=cfg.grad_tol,
               allow_large_alpha=cfg.allow_large_alpha,
               box_radius=cfg.box_radius, x0=x0s[seed])


def cmd_run(args) -> int:
    cfg = _load(args)
    problem, cm = cfg.build_problem(), cfg.build_consensus()
    path = _out_path(args, cfg)
    x0s = {cfg.seed: initial_point(problem.n, problem.p, cfg.seed)}
    result = _run_cell(cfg, problem, cm, x0s, (cfg.method, cfg.seed))
    result.trace.write_csv(path)
    final = result.trace.final
    print("method=%s seed=%d iters=%d f_err=%.6g grad_avg_norm=%.6g cost=%.6g "
          "eq7=%.3g cons_gap=%.3g trace=%s"
          % (result.trace.method, cfg.seed, final.k, final.f_err,
             final.grad_avg_norm, final.cost, result.max_eq7_inf,
             result.max_cons_gap, path))
    if result.diverged:
        print("divergence: %s" % result.trace.divergence_note, file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ValueError("--parallel must be at least 1, got %d" % args.parallel)
    cfg = _load(args)
    if not cfg.sweep_methods:
        raise ConfigError("sweep requires a nonempty sweep.methods list")
    seeds = [args.seed] if args.seed is not None else cfg.sweep_seeds or [cfg.seed]
    problem, cm = cfg.build_problem(), cfg.build_consensus()
    path = _out_path(args, cfg, default_name="sweep.csv")
    # one draw per seed: every method of a seed starts from the same point
    x0s = {s: initial_point(problem.n, problem.p, s) for s in seeds}
    cell = functools.partial(_run_cell, cfg, problem, cm, x0s)
    cells = [(m, s) for s in seeds for m in cfg.sweep_methods]
    workers = min(args.parallel, len(cells))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(cell, cells)
    else:
        results = list(map(cell, cells))

    any_divergence = False
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["method", "seed"] + list(TRACE_COLUMNS)) + "\n")
        for result in results:
            trace = result.trace
            trace.write_csv_to(fh, header=False, extra_key_columns=True)
            final = trace.final
            print("method=%s seed=%d f_err=%.6g cost=%.6g"
                  % (trace.method, trace.seed, final.f_err, final.cost))
            if trace.diverged:
                print("divergence (%s, seed %d): %s"
                      % (trace.method, trace.seed, trace.divergence_note), file=sys.stderr)
                any_divergence = True
    print("sweep written to %s" % path)
    return EXIT_DIVERGENCE if any_divergence else EXIT_OK


def cmd_check(args) -> int:
    results = checks.run_check_suite(_load(args, checks.default_check_config))
    failed = 0
    for name, ok, detail in results:
        print("%s %s%s" % ("PASS" if ok else "FAIL", name,
                           "" if ok else " (%s)" % detail))
        failed += 0 if ok else 1
    print("%d/%d checks passed" % (len(results) - failed, len(results)))
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neardgd",
        description="Decentralized nonconvex optimization simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("sweep", cmd_sweep), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "sweep":
            p.add_argument("--parallel", type=int, default=1, help="worker processes")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    """Parse argv and run the subcommand. A rejected input (every input
    error here is a ValueError) or a file that cannot be read or written
    ends in one line and EXIT_VALIDATION."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
