"""Does a lazy Hessian pay here?  Times each bench workload at several m.

    python3 scripts/lazy_sweep.py

Solves the instances of three workloads of perfbench/bench.py at its
configs and sizes, changing only m, the number of iterations a Hessian
serves, at 1 BLAS thread (bench.py pins it):

    nmf-dense-lazy  seeds 1-12  m = 1, 5
    nmf-matfree     seeds 1-8   m = 1, 2, 3, 5
    svm             seeds 1-8   m = 1, 2, 3, 5, 8

Each instance is built once and solved twice per m.  Prints one markdown
row per workload and m: the mean seconds per solve of each repeat (the
solve only, not the set-up), and over the seeds the total iterations,
Hessian evaluations and solves that did not converge.  Takes about a
minute.
"""

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


def sweep(name: str, seeds: range, ms: tuple) -> list[str]:
    """One table row per m for workload name, solving each seed REPEATS times per m."""
    workload = bench.WORKLOADS[name]
    seconds = {(m, rep): 0.0 for m in ms for rep in range(REPEATS)}
    totals = {m: [0, 0, 0] for m in ms}  # iterations, Hessians, failed
    for seed in seeds:
        problem = workload.make(seed)
        for m in ms:
            config = dataclasses.replace(workload.config, m=m)
            for rep in range(REPEATS):
                start = time.perf_counter()
                res = ssn.solve(problem, config)
                seconds[m, rep] += time.perf_counter() - start
            totals[m][0] += res.iters
            totals[m][1] += res.hess_evals
            totals[m][2] += res.status != ssn.CONVERGED
    label = f"`{name}` ({seeds.start}-{seeds.stop - 1})"
    return [f"| {label} | {m} | "
            + " / ".join(f"{seconds[m, rep] / len(seeds):.3f}" for rep in range(REPEATS))
            + " | " + " | ".join(str(t) for t in totals[m]) + " |"
            for m in ms]


def main() -> int:
    print("| workload (seeds) | m | s per solve, each repeat | iterations | Hessians | failed |")
    print("|---|---|---|---|---|---|")
    for name, (seeds, ms) in GRID.items():
        for row in sweep(name, seeds, ms):
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
