"""Benchmark of gladssn.solve on four workloads.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/bench.py --workload all [--seed N --seconds S --trace 0|1]

The load is a closed loop with one caller in one process: each solve starts
when the previous one returns.  A run solves a batch of instances whose seeds
run consecutively from --seed; the batch size follows from --seconds and the
workload's nominal cost only, so both sides of a comparison solve the same
instances.  A fixed reference kernel is timed before and after every solve,
and solve_rel divides the mean solve time by the mean reference time of the
same run, which cancels most of the host's drift in speed.

--trace 0 reports the end-to-end metrics (solve_rel, setup_s, peak_rss_mb)
with tracing off, and prints solve_s as measured.  --trace 1 solves the first
third of the batch traced through the wrappers in spans.py, restores the
originals, solves the same instances again untraced, and reports the
per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object; reports, spans and
traces go to perfbench/out/.  `--workload all` runs every workload in its
own process and writes perfbench/out/summary.json.
"""

import os

# BLAS is pinned before numpy is imported: at 2 threads the iteration counts
# of nmf-dense-lazy and of some svm seeds change.
PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gladssn  # noqa: E402

if Path(gladssn.__file__).resolve().parent != SRC / "gladssn":
    raise ImportError(f"gladssn was imported from {gladssn.__file__}, not from {SRC}")

from gladssn import harness, problems, ssn  # noqa: E402
from gladssn.oracle import CompositeProblem, SeparableProx  # noqa: E402

from spans import Tracer  # noqa: E402

L1_WEIGHT = 5.0
MIN_BATCH = 3
# The verify() slack model, reused for the transition out of the last row.
REL_SLACK = 1e-9
ABS_SLACK = 1e-12


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - L1_WEIGHT * t, 0.0)


def l1_value(x: np.ndarray) -> float:
    return L1_WEIGHT * float(np.sum(np.abs(x)))


def huber_l1(seed: int, m: int = 2000, n: int = 400) -> CompositeProblem:
    """Huber regression plus 5 ||x||_1, the composite (psi != 0) case."""
    base = problems.make_huber(seed, m=m, n=n, delta=0.3)
    return dataclasses.replace(base, psi=SeparableProx(soft_threshold, l1_value),
                               name="huber-l1")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], CompositeProblem]
    config: ssn.SolverConfig
    nominal_s: float  # set-up plus one solve at 1 BLAS thread; sizes the batch


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("nmf-dense-lazy", lambda s: problems.make_nmf(s, d=40, n=20, r=4),
             ssn.SolverConfig(p=0.5, m=5, grad_tol=1e-2), 0.7),
    Workload("nmf-matfree", lambda s: problems.make_nmf(s),
             ssn.SolverConfig(p=0.5, m=1, grad_tol=1.0), 1.45),
    Workload("svm", lambda s: problems.make_svm(s),
             ssn.SolverConfig(p=0.5, m=1, grad_tol=1e-6), 0.5),
    Workload("huber-l1", huber_l1,
             ssn.SolverConfig(p=0.5, m=1, grad_tol=1e-8), 0.5),
]}


def batch_seeds(workload: Workload, seed: int, seconds: float) -> list[int]:
    """Instance seeds of one run: consecutive from seed; the count ignores seed."""
    count = max(MIN_BATCH, round(seconds / workload.nominal_s))
    return list(range(seed, seed + count))


# ------------------------------------------------------------- output checks

def digest(trace: list[ssn.TraceRecord]) -> str:
    """sha256 over every trace column except wall_ns."""
    h = hashlib.sha256()
    for rec in trace:
        row = dataclasses.asdict(rec)
        del row["wall_ns"]
        h.update((",".join(repr(v) for v in row.values()) + "\n").encode())
    return h.hexdigest()


def _holds(lhs: float, rhs: float) -> bool:
    return rhs - lhs <= REL_SLACK * max(abs(lhs), abs(rhs)) + ABS_SLACK


def final_transition_violations(result: ssn.SolveResult) -> list[str]:
    """verify()'s transition inequalities from the last row to (g_final, F_final)."""
    if not result.trace:
        return []
    last = result.trace[-1]
    lam, r, g = last.lambda_k, last.r_k, result.g_final
    dec = last.F_val - result.F_final
    checks = {
        "pairing": (last.inner_prod, g * g / (2.0 * lam)),
        "decrease": (dec, 0.25 * lam * r * r),
        "step_grad": (2.0 * lam * r, g),
        "no_overshoot": (2.0 * last.g_k, g),
        "value_gain": (dec, g * g / (16.0 * lam)),
    }
    return [name for name, (lhs, rhs) in checks.items() if not _holds(lhs, rhs)]


@dataclasses.dataclass
class SolveRecord:
    """Outcome and wall time of one solve."""

    seed: int
    status: str
    iters: int
    trials: int
    hess_evals: int
    g_final: float
    F_final: float
    digest: str
    solve_s: float
    errors: list[str]  # output checks that failed: the program's output is wrong

    @property
    def failed(self) -> bool:
        return self.status != ssn.CONVERGED or bool(self.errors)


def record(seed: int, result: ssn.SolveResult, config: ssn.SolverConfig,
           report: harness.VerifyReport, seconds: float) -> SolveRecord:
    errors = [f"verify {c.name}" for c in report.checks.values() if not c.passed]
    errors += [f"final {name}" for name in final_transition_violations(result)]
    if result.status == ssn.CONVERGED and not result.g_final <= config.grad_tol:
        errors.append(f"converged with g_final {result.g_final:.3e} > grad_tol")
    return SolveRecord(seed, result.status, result.iters, result.trials,
                       result.hess_evals, result.g_final, result.F_final,
                       digest(result.trace), seconds, errors)


# ---------------------------------------------------------------- measuring

class Reference:
    """A fixed kernel timed around every solve, in the solvers' mix of work.

    It runs interpreted Python, a 240x240 Cholesky and matvec, thin matrix
    products like those of the NMF matvec Hessian, ufuncs on short vectors
    like the prox-gradient loop, and matvecs over 6.4 MB and 16 MB that
    stream from memory like the Huber and SVM oracles.  On a shared host its
    time rises and falls with the solves around it (the speed drifts by up
    to 2x over tens of seconds), so their ratio holds still.
    """

    def __init__(self):
        g = np.arange(240.0 * 240.0).reshape(240, 240) % 7.0
        self.spd = g @ g.T + 240.0 * np.eye(240)
        self.vec = np.ones(240)
        self.thin, self.thin_t = np.ones((200, 12)), np.ones((12, 100))
        self.wide = [(np.ones((2000, 400)), np.ones(400)),
                     (np.ones((2000, 1000)), np.ones(1000))]

    def time(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(12000):
            total += i
        for _ in range(4):
            np.linalg.cholesky(self.spd)
            self.spd @ self.vec
        for _ in range(200):
            self.thin @ self.thin_t
        for _ in range(300):
            step = np.sign(self.vec) * np.maximum(np.abs(self.vec) - 0.5, 0.0)
            np.linalg.norm(self.spd @ step - self.vec)
        for a, v in self.wide:
            for _ in range(6):
                a @ v
        return time.perf_counter() - t0


def measure(workload: Workload, seeds: list[int]):
    """Untraced closed loop over the batch: (records, set-up times, reference times)."""
    reference = Reference()
    records, setups, refs = [], [], []
    for seed in seeds:
        t0 = time.perf_counter()
        problem = workload.make(seed)
        setups.append(time.perf_counter() - t0)
        refs.append(reference.time())
        t0 = time.perf_counter()
        result = ssn.solve(problem, workload.config)
        elapsed = time.perf_counter() - t0
        refs.append(reference.time())
        records.append(record(seed, result, workload.config,
                              harness.verify(result.trace), elapsed))
        del problem, result
    return records, setups, refs


def end_to_end(workload: Workload, seed: int, seconds: float):
    records, setups, refs = measure(workload, batch_seeds(workload, seed, seconds))
    solve_s = statistics.fmean(r.solve_s for r in records)
    metrics = {
        "solve_rel": (solve_s / statistics.fmean(refs), "1"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    printed = {"solve_s": (solve_s, "s"), "reference_s": (statistics.fmean(refs), "s")}
    return metrics, printed, records, None


def traced(workload: Workload, seed: int, seconds: float, out: Path):
    """Traced solves of the batch's first third, then the same solves untraced."""
    seeds = batch_seeds(workload, seed, seconds)
    seeds = seeds[:max(1, len(seeds) // 3)]
    traces_dir = out / f"{workload.name}-seed{seed}-traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    records, trace_bytes = [], 0
    with tracer.installed():
        for i, s in enumerate(seeds):
            tracer.solve = i
            problem = tracer.traced_problem(tracer.call("problems.make", workload.make, s))
            t0 = time.perf_counter()
            result = tracer.call("ssn.solve", ssn.solve, problem, workload.config)
            elapsed = time.perf_counter() - t0
            report = tracer.call("harness.verify", harness.verify, result.trace)
            path = traces_dir / f"seed{s}.csv"
            tracer.call("harness.write_trace", harness.write_trace, path, result.trace)
            trace_bytes += path.stat().st_size
            records.append(record(s, result, workload.config, report, elapsed))
            del problem, result
    tracer.write(out / f"{workload.name}-seed{seed}-spans.jsonl")

    untraced, _, _ = measure(workload, seeds)
    for t, u in zip(records, untraced):
        if t.digest != u.digest:
            t.errors.append("tracing changed the trajectory")
    metrics = layer_metrics(tracer, records, trace_bytes)
    overhead = (statistics.fmean(r.solve_s for r in records)
                - statistics.fmean(r.solve_s for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {}, records, untraced


def layer_metrics(tracer: Tracer, records: list[SolveRecord], trace_bytes: int) -> dict:
    """Per-layer metrics, each a mean per solve (per instance for rng/problems)."""
    calls, dur, self_s = tracer.totals()
    counts = tracer.counts
    n = len(records)
    iters = sum(r.iters for r in records)
    trials = sum(r.trials for r in records)
    m = {
        "problems.make.s": (dur["problems.make"] / n, "s"),
        "rng.draw.s": (dur["rng.draw"] / n, "s"),
        "rng.values": (counts["rng.values"] / n, "count"),
    }
    for op in ("eval_f", "eval_grad", "eval_hess"):
        m[f"oracle.{op}.calls"] = (calls[f"oracle.{op}"] / n, "count")
        m[f"oracle.{op}.s"] = (dur[f"oracle.{op}"] / n, "s")
    m.update({
        "linalg.solve_regularized.calls": (calls["linalg.solve_regularized"] / n, "count"),
        "linalg.solve_regularized.s": (dur["linalg.solve_regularized"] / n, "s"),
        "linalg.cholesky.calls": (calls["linalg.cholesky"] / n, "count"),
        "linalg.minres.calls": (calls["linalg.minres"] / n, "count"),
        "linalg.minres.iters": (counts["linalg.minres.iters"] / n, "count"),
        "linalg.minres.s": (dur["linalg.minres"] / n, "s"),
        "linalg.dense_fallback_ratio": (
            counts["linalg.dense_fallbacks"] / max(counts["linalg.dense_solves"], 1), "1"),
        "ssn.iters": (iters / n, "count"),
        "ssn.trials": (trials / n, "count"),
        "ssn.hess_evals": (sum(r.hess_evals for r in records) / n, "count"),
        "ssn.accept_ratio": (iters / max(trials, 1), "1"),
        "ssn.inner_failures": (counts["ssn.inner_failures"] / n, "count"),
        "ssn.trial_step.self_s": (self_s["ssn.trial_step"] / n, "s"),
        "ssn.prox.sweeps": (counts["ssn.prox.sweeps"] / n, "count"),
        "ssn.acceptance_test.s": (dur["ssn.acceptance_test"] / n, "s"),
        "ssn.solve.self_s": (self_s["ssn.solve"] / n, "s"),
        "harness.verify.s": (dur["harness.verify"] / n, "s"),
        "harness.write_trace.s": (dur["harness.write_trace"] / n, "s"),
        "harness.trace_bytes": (trace_bytes / n, "B"),
    })
    return m


# --------------------------------------------------------------- reporting

def environment() -> dict:
    """Fingerprint of the interpreter, libraries, BLAS and machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_id,
        "nproc": os.cpu_count(),
        "blas_threads": PINNED_THREADS,
        "src_gladssn_lines": sum(len(p.read_text().splitlines())
                                 for p in sorted((SRC / "gladssn").glob("*.py"))),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, write its report, and return the result object."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    if trace:
        metrics, printed, records, untraced = traced(workload, seed, seconds, OUT)
    else:
        metrics, printed, records, untraced = end_to_end(workload, seed, seconds)
    checked = records + (untraced or [])
    failed = sum(r.failed for r in checked)
    result = {
        "correct": not any(r.errors for r in checked),
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "fail_frac": failed / len(checked),
              "printed": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
              "result": result, "solves": [dataclasses.asdict(r) for r in records],
              "untraced_solves": [dataclasses.asdict(r) for r in untraced or []]}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}  "
          + "  ".join(f"{k}={v}" for k, v in env.items()))
    for r in report["solves"]:
        note = f"  FAILED CHECKS: {', '.join(r['errors'])}" if r["errors"] else ""
        print(f"  seed {r['seed']:>5} {r['status']:<9} iters {r['iters']:>4} "
              f"trials {r['trials']:>5} hess {r['hess_evals']:>4} "
              f"g {r['g_final']:.3e} F {r['F_final']:.10e} solve_s {r['solve_s']:.4f}{note}")
    result = report["result"]
    for name, m in {**report["printed"], **result["metrics"]}.items():
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_frac':<32} {report['fail_frac']:>14.6g} 1  "
          f"({result['failed']} of {result['attempted']} solves)")
    print(json.dumps(result))


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    summary = {"environment": environment(), "workloads": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=True)
        sys.stdout.write(proc.stdout)
        summary["workloads"][name] = json.loads(proc.stdout.splitlines()[-1])
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {OUT / 'summary.json'}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        print_report(run(args.workload, args.seed, args.seconds, bool(args.trace)))


if __name__ == "__main__":
    main()
