"""Command-line front end.

    gladssn run --problem quad --solver gladssn --p 0.5 --m 1 --seed 7 --tol 1e-10
    gladssn verify TRACE [--L ...] [--fstar ...]
    gladssn estimate-order TRACE [--tail 6]
    gladssn compare --config runs.json

run builds one RunConfig: a SolverConfig's fields (p, m, Lambda0, grad_tol,
max_outer) plus the run's own (problem, solver, seed, out_path,
problem_kwargs).  Each but problem_kwargs has a flag; --config FILE.json may
set any of them, and explicit flags override the file.  Nothing is read from
the environment.

Exit codes: 0 converged (or check passed), 1 usage or config error, or a
non-finite objective or gradient, 2 iteration budget exhausted, 3 stalled.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .harness import (SOLVERS, ConfigError, NotEstimableError, RunConfig, compare,
                      estimate_order, format_compare_table, run, verify)
from .problems import KINDS
from .ssn import NonFiniteError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gladssn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="solve a built-in problem and write a trace")
    run_p.add_argument("--problem", help=" | ".join(KINDS))
    run_p.add_argument("--solver", help=" | ".join(SOLVERS) + " (default gladssn)")
    run_p.add_argument("--p", type=float, help="regularizer exponent in [0, 1]")
    run_p.add_argument("--m", type=int, help="hessian refresh period")
    run_p.add_argument("--lambda0", dest="Lambda0", type=float,
                       help="initial adaptive coefficient")
    run_p.add_argument("--tol", dest="grad_tol", type=float,
                       help="dual-norm gradient tolerance")
    run_p.add_argument("--max-outer", dest="max_outer", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", dest="out_path",
                       help="CSV trace path (default gladssn-trace.csv)")
    run_p.add_argument("--config", help="JSON file with RunConfig fields; "
                                        "explicit flags override it")

    ver_p = sub.add_parser("verify", help="recheck the inequalities of a trace")
    ver_p.add_argument("trace")
    ver_p.add_argument("--L", type=float, help="gradient Lipschitz parameter "
                                               "(enables the lambda cap check)")
    ver_p.add_argument("--fstar", type=float, help="reference optimal value "
                                                   "(enables the envelope check)")

    ord_p = sub.add_parser("estimate-order", help="convergence order from a trace tail")
    ord_p.add_argument("trace")
    ord_p.add_argument("--tail", type=int, default=6)

    cmp_p = sub.add_parser("compare", help="run several configs and tabulate them")
    cmp_p.add_argument("--config", required=True,
                       help="JSON file holding a list of RunConfig objects")
    return parser


def _read_config(path: str):
    """The JSON document in the --config file path; ConfigError naming path
    when its text is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path}: not JSON: {exc}") from exc


def _run_command(args) -> int:
    values: dict = {}
    if args.config:
        loaded = _read_config(args.config)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config} must hold a single JSON object")
        values.update(loaded)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)  # problem_kwargs has no flag
        if value is not None:
            values[f.name] = value
    config = RunConfig.from_dict(values)
    code, result, out_path = run(config)
    print(f"{config.problem}/{config.solver}: {result.status} after {result.iters} "
          f"iterations, g_final={result.g_final:.4e}, trace -> {out_path}")
    print("inner: " + (", ".join(_inner_totals(path, *totals)
                                 for path, totals in result.inner.items()) or "none"))
    return code


def _inner_totals(path: str, solves: int, iters: int, corrections: int) -> str:
    """'minres 59 solves, 395 iterations, 1 correction': the counts that are not 0."""
    counts = ((solves, "solve"), (iters, "iteration"), (corrections, "correction"))
    return path + " " + ", ".join(f"{count} {noun}{'s' * (count != 1)}"
                                  for count, noun in counts if count)


def _verify_command(args) -> int:
    report = verify(args.trace, L=args.L, fstar=args.fstar)
    print(report.summary())
    return 0 if report.passed else 1


def _order_command(args) -> int:
    est = estimate_order(args.trace, tail=args.tail)
    print(f"q={est.q:.4f} fit_residual={est.fit_residual:.4f} "
          f"(last {args.tail} transitions)")
    return 0


def _compare_command(args) -> int:
    loaded = _read_config(args.config)
    if not (isinstance(loaded, list) and all(isinstance(d, dict) for d in loaded)):
        raise ConfigError(f"{args.config} must hold a JSON list of run configs")
    print(format_compare_table(compare([RunConfig.from_dict(d) for d in loaded])))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage())
        if args.command == "run":
            return _run_command(args)
        if args.command == "verify":
            return _verify_command(args)
        if args.command == "estimate-order":
            return _order_command(args)
        return _compare_command(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConfigError, NotEstimableError, NonFiniteError, OSError, ValueError) as exc:
        print(f"gladssn: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
