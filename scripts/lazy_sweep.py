"""Does a lazy Hessian pay here?  Times each bench workload at several m.

    python3 scripts/lazy_sweep.py [--workload NAME ...] [--seeds K]

Solves the instances of three workloads of perfbench/bench.py at its
configs and sizes, changing only m, the number of iterations a Hessian
serves, at 1 BLAS thread (bench.py pins it):

    nmf-dense-lazy  seeds 1-12  m = 1, 5
    nmf-matfree     seeds 1-8   m = 1, 2, 3, 5
    svm             seeds 1-8   m = 1, 2, 3, 5, 8

--workload keeps only the named workloads and --seeds only the first K
seeds of each.  Each instance is built once and solved twice per m.
Prints one markdown row per workload and m: the mean seconds per solve of
each repeat to 0.1 ms (the solve only, not the set-up), over the seeds the total
iterations and trials, the accepted iterations split by the trial that was
accepted (each trace's j_k column: j_k = 0 / 1 / >= 2), Hessian evaluations
and solves that did not converge, the rest of the solve per iteration, and
the cost ratio.  Each part of a solve is timed by wrapping the calls that
make it up: a refresh is one eval_hess call and the ssn.Regularized built
from it, and a trial is one ssn.trial_step call and the eval_f and
eval_grad calls made after it (those at the starting point are not a
trial's).  The rest is the solve's time outside both, over its iterations:
the acceptance tests, a certified decrease, the trace.  The cost ratio is
the mean time of one refresh over the mean time of one trial, with both
times in ms after it.  Takes about a minute.
"""

import argparse
import contextlib
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench  # noqa: E402  (pins BLAS to 1 thread before numpy loads)
from gladssn import ssn  # noqa: E402

GRID = {
    "nmf-dense-lazy": (range(1, 13), (1, 5)),
    "nmf-matfree": (range(1, 9), (1, 2, 3, 5)),
    "svm": (range(1, 9), (1, 2, 3, 5, 8)),
}
REPEATS = 2


def timed(fn, spent: dict, part: str, gate=None):
    """fn wrapped to add each call's seconds to spent[part]; with a gate, only
    the calls made while gate[0] is true."""
    def wrapper(*args, **kwargs):
        if gate is not None and not gate[0]:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[part] += time.perf_counter() - start
    return wrapper


def timed_problem(problem, spent: dict, trials_begun: list):
    """problem with eval_hess timed as a refresh, and eval_f and eval_grad as
    a trial once trials_begun[0] is set."""
    smooth = problem.smooth
    return dataclasses.replace(problem, smooth=dataclasses.replace(
        smooth, eval_hess=timed(smooth.eval_hess, spent, "refresh"),
        eval_f=timed(smooth.eval_f, spent, "trial", trials_begun),
        eval_grad=timed(smooth.eval_grad, spent, "trial", trials_begun)))


@contextlib.contextmanager
def timed_solver(spent: dict, trials_begun: list):
    """ssn.Regularized timed as a refresh and ssn.trial_step as a trial, which
    also sets trials_begun[0], while the context lasts."""
    regularized, trial_step = ssn.Regularized, ssn.trial_step

    def marking_trials(*args, **kwargs):
        trials_begun[0] = True
        return trial_step(*args, **kwargs)

    ssn.Regularized = timed(regularized, spent, "refresh")
    ssn.trial_step = timed(marking_trials, spent, "trial")
    try:
        yield
    finally:
        ssn.Regularized, ssn.trial_step = regularized, trial_step


def sweep(name: str, seeds: range, ms: tuple) -> list[str]:
    """One table row per m for workload name, solving each seed REPEATS times per m."""
    workload = bench.WORKLOADS[name]
    seconds = {(m, rep): 0.0 for m in ms for rep in range(REPEATS)}
    totals = {m: [0, 0, 0, 0] for m in ms}  # iterations, trials, Hessians, failed
    accepted = {m: [0, 0, 0] for m in ms}  # iterations accepted at j_k = 0, 1, >= 2
    spent = {m: {"refresh": 0.0, "trial": 0.0} for m in ms}  # seconds, over the repeats
    trials_begun = [False]
    for seed in seeds:
        problem = workload.make(seed)
        for m in ms:
            config = dataclasses.replace(workload.config, m=m)
            timed_seed = timed_problem(problem, spent[m], trials_begun)
            for rep in range(REPEATS):
                trials_begun[0] = False
                with timed_solver(spent[m], trials_begun):
                    start = time.perf_counter()
                    res = ssn.solve(timed_seed, config)
                    seconds[m, rep] += time.perf_counter() - start
            totals[m][0] += res.iters
            totals[m][1] += res.trials
            totals[m][2] += res.hess_evals
            totals[m][3] += res.status != ssn.CONVERGED
            for rec in res.trace:
                accepted[m][min(rec.j_k, 2)] += 1
    label = f"`{name}` ({seeds.start}-{seeds.stop - 1})"
    rows = []
    for m in ms:
        # every repeat takes the same steps, so the counts over them are REPEATS times totals
        iters, trials, hessians = (REPEATS * t for t in totals[m][:3])
        refresh = spent[m]["refresh"] / hessians
        trial = spent[m]["trial"] / trials
        rest = (sum(seconds[m, rep] for rep in range(REPEATS))
                - spent[m]["refresh"] - spent[m]["trial"]) / iters
        rows.append(f"| {label} | {m} | "
                    + " / ".join(f"{seconds[m, rep] / len(seeds):.4f}" for rep in range(REPEATS))
                    + " | " + " | ".join(str(t) for t in totals[m][:2])
                    + " | " + " / ".join(str(a) for a in accepted[m])
                    + " | " + " | ".join(str(t) for t in totals[m][2:])
                    + f" | {1e3 * rest:#.3g}"
                    + f" | {refresh / trial:#.3g} ({1e3 * refresh:#.3g} / {1e3 * trial:#.3g}) |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(GRID),
                        help="sweep only this workload (repeatable; default all)")
    parser.add_argument("--seeds", type=int, help="sweep only the first K seeds of each")
    args = parser.parse_args(argv)
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be at least 1")
    print("| workload (seeds) | m | s per solve, each repeat | iterations | trials "
          "| j_k = 0 / 1 / >= 2 | Hessians | failed | rest, ms per iteration "
          "| cost ratio (ms per refresh / per trial) |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name in args.workload or GRID:
        seeds, ms = GRID[name]
        if args.seeds is not None:
            seeds = seeds[:args.seeds]
        for row in sweep(name, seeds, ms):
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
