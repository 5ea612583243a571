"""Experiment runner: run / sweep / check subcommands.

Exit codes: 0 success, 1 validation error, 2 runtime divergence,
3 check-suite failure.
"""

import argparse
import functools
import os
import sys

from . import checks
from .config import ConfigError, load_run_config, load_run_config_file, seed
from .optimizer import run, run_batch

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_CHECK_FAILURE = 3


def _load(args, default_text=""):
    """(config, problem, consensus matrix) that args name, --seed applied; the
    --config file or default_text, loaded alike, hands over what it built."""
    cfg = load_run_config_file(args.config) if args.config else load_run_config(default_text)
    if args.seed is not None:
        cfg.seed = args.seed
    problem, graph = cfg.built
    return cfg, problem, cfg.build_consensus(graph)


def _out_path(args, cfg, default_name=None):
    name = default_name or cfg.output_path
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        return os.path.join(args.out, os.path.basename(name))
    return name


def _run_options(cfg):
    """The one map from a RunConfig onto the keyword arguments that run()
    and run_batch() share."""
    return dict(cost_model=cfg.cost_model, grad_tol=cfg.grad_tol,
                allow_large_alpha=cfg.allow_large_alpha, box_radius=cfg.box_radius)


def _summary(result, method) -> str:
    """Where a finished run of method ended, and its worst Eq.-7 and
    consensus-bound values: n/a where the method evaluates no such
    certificate or no iteration ran."""
    trace, final = result.trace, result.trace.final
    judged = method.certificates if len(trace.column("k")) > 1 else ()
    return ("method=%s seed=%d iters=%d f_err=%.6g grad_avg_norm=%.6g cost=%.6g "
            "eq7=%s cons_gap=%s"
            % (trace.method, trace.seed, final.k, final.f_err, final.grad_avg_norm, final.cost,
               "%.3g" % result.max_eq7_inf if "eq7-identity" in judged else "n/a",
               "%.3g" % result.max_cons_gap if "consensus-bound" in judged else "n/a"))


def cmd_run(args) -> int:
    cfg, problem, cm = _load(args)
    path = _out_path(args, cfg)
    result = run(problem, cm, cfg.method, cfg.alpha, cfg.budget, seed=cfg.seed,
                 **_run_options(cfg))
    result.trace.write_csv(path)
    print("%s trace=%s" % (_summary(result, cfg.method), path))
    if result.diverged:
        print("divergence: %s" % result.trace.divergence_note, file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, problem, cm = _load(args)
    if not cfg.sweep_methods:
        raise ConfigError("sweep requires a nonempty sweep.methods list")
    seeds = [args.seed] if args.seed is not None else cfg.sweep_seeds or [cfg.seed]
    path = _out_path(args, cfg, default_name="sweep.csv")
    cells = [(m, s) for s in seeds for m in cfg.sweep_methods]
    results = run_batch(problem, cm, cells, cfg.alpha, cfg.budget, **_run_options(cfg))

    any_divergence = False
    with open(path, "w", newline="") as fh:
        for i, ((method, _), result) in enumerate(zip(cells, results)):
            trace = result.trace
            trace.write_csv_to(fh, header=(i == 0), extra_key_columns=True)
            print(_summary(result, method))
            if trace.diverged:
                print("divergence (%s, seed %d): %s"
                      % (trace.method, trace.seed, trace.divergence_note), file=sys.stderr)
                any_divergence = True
    print("sweep written to %s" % path)
    return EXIT_DIVERGENCE if any_divergence else EXIT_OK


def cmd_check(args) -> int:
    cfg, problem, cm = _load(args, checks.DEFAULT_CONFIG)
    result = run(problem, cm, cfg.method, cfg.alpha, cfg.budget, seed=cfg.seed,
                 **_run_options(cfg))
    results = [*checks.run_check_suite(problem, cm, cfg.alpha),
               *checks.certificate_verdicts(result, cfg.method)]
    for name, ok, detail in results:
        tag = "PASS" if ok else "N/A" if ok is None else "FAIL"  # N/A: neither passed nor failed
        print("%s %s%s" % (tag, name, "" if ok else " (%s)" % detail))
    applied = [bool(ok) for _, ok, _ in results if ok is not None]
    skipped = len(results) - len(applied)
    print("%d/%d checks passed%s" % (sum(applied), len(applied),
                                     ", %d not applicable" % skipped if skipped else ""))
    return EXIT_OK if all(applied) else EXIT_CHECK_FAILURE


class _Parser(argparse.ArgumentParser):
    # a rejected command line ends as main ends any rejected input, in one line
    # and EXIT_VALIDATION, not in argparse's usage and exit 2 (EXIT_DIVERGENCE)
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neardgd",
                     description="Decentralized nonconvex optimization simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        if name != "check":  # check writes no file
            p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=seed, default=None, help="override config seed")
        if name == "sweep":
            p.add_argument("--parallel", type=int, choices=(1,), default=1,
                           help="accepted for older callers: a sweep runs in one process")
    return parser


# one parser per process; building it costs about as much as a short command
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Parse argv and run the subcommand, cmd_<command>, looked up at call
    time so that a patched one runs. A rejected command line or input
    (every input error here is a ValueError) or a file that cannot be read
    or written ends in one line and EXIT_VALIDATION."""
    try:
        args = _parser().parse_args(argv)
        return globals()["cmd_" + args.command](args)
    except (ValueError, OSError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
