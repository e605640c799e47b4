"""Run, persist, and audit solver traces.

A trace is one record per accepted outer iteration, whose columns are the
fields of ssn.TraceRecord, serialized as CSV with full round-trip
precision.  Row k stores the pre-step state (F_val, g_k) plus the
accepted trial's lambda_k, step length r_k and duality pairing inner_prod,
so consecutive rows carry everything the progress inequalities mention.
The transition out of the final row also needs the terminal state
(g_final, F_final), which only a SolveResult carries: given one, verify()
checks every accepted step, the last one included; given a path or a list
of records, it checks every transition but the last.

verify() rechecks, with relative slack 1e-9 and absolute slack 1e-12, the
solver's own ssn.step_inequalities on every transition (pairing, decrease,
step_grad, no_overshoot, value_gain), and over the whole trace:

    finite      every value of every row is finite   [a baseline trace's only check]
    lambda_cap  lambda_k  <=  max(4 L, Lambda_0 g_0^p)     [needs L]
    newton_count sum_{i<=k} j_i  ==  (k+1) + log4(Lambda_{k+1} / Lambda_0)
    envelope    min_{i<=k} g_i  <=  4 sqrt(lambda_bar (F_0 - fstar) / k)   [needs fstar]
    hessian_schedule  refreshes at k = 0, m, 2m, ... and the eval counter
                      ends at floor(k_last / m) + 1

Lambda_0 g_0^p is recovered from row 0 as lambda_0 / 4^{j_0}; without L the
envelope uses the largest observed lambda_k as a stand-in for lambda_bar
(valid because only accepted regularizers enter the telescoped decrease).
A check fails wherever one side of its inequality is not finite.
"""

from __future__ import annotations

import json
import numbers
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines, problems, ssn
from .ssn import SolveResult, TraceRecord

__all__ = [
    "COLUMNS",
    "EXIT_CODES",
    "ConfigError",
    "NotEstimableError",
    "RunConfig",
    "CheckResult",
    "VerifyReport",
    "OrderEstimate",
    "write_trace",
    "read_trace",
    "run",
    "verify",
    "estimate_order",
    "compare",
    "format_compare_table",
]

COLUMNS = [f.name for f in fields(TraceRecord)]
_INT_COLUMNS = {name for name, t in typing.get_type_hints(TraceRecord).items() if t is int}

EXIT_CODES = {ssn.CONVERGED: 0, ssn.MAXITER: 2, ssn.STALLED: 3}

_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12

SOLVERS = {"gladssn": ssn.solve, "armijo": baselines.armijo_gd}


class ConfigError(ValueError):
    """Bad run configuration (maps to CLI exit code 1)."""


class NotEstimableError(RuntimeError):
    """The trace tail is too short or not decreasing for an order fit."""


@dataclass(kw_only=True)
class RunConfig(ssn.SolverConfig):
    """A SolverConfig plus the problem, solver and output of one run."""

    problem: str
    solver: str = "gladssn"
    seed: int = 1
    out_path: str | None = None
    problem_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.problem not in problems.KINDS:
            raise ConfigError(f"unknown problem {self.problem!r}; "
                              f"choose from {sorted(problems.KINDS)}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; "
                              f"choose from {sorted(SOLVERS)}")
        if not (isinstance(self.seed, numbers.Real) and float(self.seed).is_integer()):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        self.seed = int(self.seed)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """cls(**d); an unknown or missing key is a ConfigError naming it."""
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


# ------------------------------------------------------------------ trace IO

def write_trace(path, records: list[TraceRecord]) -> None:
    """Write records as CSV; repr() keeps every float round-trip exact."""
    rows = [[int(getattr(r, c)) if c in _INT_COLUMNS else float(getattr(r, c))
             for c in COLUMNS] for r in records]
    text = "\n".join([",".join(COLUMNS)] + [",".join(map(repr, row)) for row in rows])
    Path(path).write_text(text + "\n")


def read_trace(path) -> list[TraceRecord]:
    """Read a CSV trace back into records: each row is parsed as JSON numbers
    and typed by problems.dataclass_from_json, the rule of instance files."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    if header != COLUMNS:
        raise ValueError(f"unexpected trace header {header}")
    out = []
    for row, ln in enumerate(lines[1:]):
        try:  # a token that is not JSON, or a wrong field count
            values = dict(zip(COLUMNS, json.loads(f"[{ln}]"), strict=True))
        except ValueError as exc:
            raise ValueError(f"trace row {row} is not {len(COLUMNS)} JSON numbers: "
                             f"{exc}") from exc
        out.append(problems.dataclass_from_json(TraceRecord, values, f"trace row {row}"))
    return out


def _as_records(trace) -> list[TraceRecord]:
    if isinstance(trace, (str, Path)):
        return read_trace(trace)
    return list(trace)


# ----------------------------------------------------------------------- run

def _execute(config: RunConfig) -> SolveResult:
    """Build the problem and run the requested solver."""
    try:
        problem = problems.KINDS[config.problem].make(config.seed, **config.problem_kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad problem_kwargs for {config.problem}: {exc}") from exc
    return SOLVERS[config.solver](problem, config)


def run(config: RunConfig):
    """Run one solve and write its trace.

    Returns (exit_code, result, out_path); the trace lands at
    config.out_path or gladssn-trace.csv in the working directory.
    """
    result = _execute(config)
    out_path = config.out_path or "gladssn-trace.csv"
    write_trace(out_path, result.trace)
    return EXIT_CODES[result.status], result, out_path


# -------------------------------------------------------------------- verify

@dataclass
class CheckResult:
    name: str
    checked: int
    violations: int
    worst_slack: float  # most positive violation (negative = margin everywhere)
    worst_row: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class VerifyReport:
    rows: int
    checks: dict[str, CheckResult]
    lambda_bar: float | None
    notes: list[str]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def summary(self) -> str:
        lines = [f"rows: {self.rows}"]
        if self.lambda_bar is not None:
            lines.append(f"lambda_bar: {self.lambda_bar:.6e}")
        width = max((len(n) for n in self.checks), default=4)
        for name, c in self.checks.items():
            state = "pass" if c.passed else "FAIL"
            detail = f"checked {c.checked:5d}  violations {c.violations:3d}"
            if c.checked:
                detail += f"  worst slack {c.worst_slack:+.3e} at row {c.worst_row}"
            lines.append(f"  {name:<{width}}  {state}  {detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append("verify: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _check_ineq(name: str, lhs: np.ndarray, rhs: np.ndarray,
                rows: np.ndarray) -> CheckResult:
    """lhs >= rhs with relative + absolute slack; slack = rhs - lhs, or NaN
    (a violation) where a side is not finite."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if lhs.size == 0:
        return CheckResult(name, 0, 0, 0.0, -1)
    slack = np.where(np.isfinite(lhs) & np.isfinite(rhs), rhs - lhs, np.nan)
    tol = _REL_SLACK * np.maximum(np.abs(lhs), np.abs(rhs)) + _ABS_SLACK
    bad = ~(slack <= tol)
    worst = int(np.argmax(slack))  # the first NaN, if any
    return CheckResult(name, int(lhs.size), int(np.count_nonzero(bad)),
                       float(slack[worst]), int(rows[worst]))


@np.errstate(all="ignore")  # non-finite values are counted as violations instead
def verify(trace, L: float | None = None, fstar: float | None = None) -> VerifyReport:
    """Recheck every inequality a trace is supposed to satisfy.

    trace may be a path, a list of records or a SolveResult.  A SolveResult
    also ends the last transition at its terminal state: g_final and F_final
    stand in for the row after the last one, and Lambda_final closes the
    last prefix of the trial-count identity.  L enables the lambda cap
    check and fstar the gradient-envelope check.
    """
    terminal = trace if isinstance(trace, SolveResult) else None
    records = trace.trace if terminal is not None else _as_records(trace)
    n_rows = len(records)
    checks: dict[str, CheckResult] = {}
    notes: list[str] = []
    if n_rows == 0:
        notes.append("empty trace: nothing to check")
        return VerifyReport(rows=0, checks=checks, lambda_bar=None, notes=notes)

    ks = np.array([r.k for r in records])
    # |value| >= |value| fails only where a value is not finite, also in the
    # columns no later check reads and in a baseline trace
    mag = np.abs([[getattr(r, c) for c in COLUMNS] for r in records]).max(axis=1)
    checks["finite"] = _check_ineq("finite", mag, mag, ks)
    js = np.array([r.j_k for r in records])
    lams = np.array([r.lambda_k for r in records])
    caps = np.array([r.Lambda_k for r in records])
    f_F = np.array([r.F_val for r in records])
    gs = np.array([r.g_k for r in records])
    rs = np.array([r.r_k for r in records])
    pair = np.array([r.inner_prod for r in records])
    hevals = np.array([r.hess_evals for r in records])

    if np.any(caps <= 0.0):
        notes.append("Lambda_k <= 0: baseline trace, adaptive checks skipped")
        return VerifyReport(rows=n_rows, checks=checks, lambda_bar=None, notes=notes)

    # transition k runs from row k to the next row, or for the last row of a
    # SolveResult to its terminal state
    g_next = gs[1:]
    F_next = f_F[1:]
    if terminal is not None:
        g_next = np.append(g_next, terminal.g_final)
        F_next = np.append(F_next, terminal.F_final)
    n_tr = g_next.size
    row_ids = ks[:n_tr]
    ineqs = ssn.step_inequalities(pair[:n_tr], g_next, rs[:n_tr], lams[:n_tr],
                                  f_F[:n_tr] - F_next, gs[:n_tr])
    for name, (lhs, rhs) in ineqs.items():
        checks[name] = _check_ineq(name, lhs, rhs, row_ids)

    lam0_seed = lams[0] / 4.0**js[0]  # Lambda_0 * g_0^p, recovered exactly
    lambda_bar = None
    if L is not None:
        lambda_bar = max(4.0 * L, lam0_seed)
        checks["lambda_cap"] = _check_ineq("lambda_cap",
                                           np.full(n_rows, lambda_bar), lams, ks)
    else:
        notes.append("no L given: lambda_cap skipped")

    # counting identity at every prefix; Lambda_{k+1} for the last row is
    # Lambda_final of a SolveResult, else it comes from the update rule
    if terminal is not None:
        lam_next = np.append(caps[1:], terminal.Lambda_final)
    else:
        lam_next = np.append(caps[1:], 4.0**js[-1] * caps[-1] / 4.0)
    expected = (ks - ks[0] + 1) + np.log(lam_next / caps[0]) / np.log(4.0)
    sum_j = np.cumsum(js)
    resid = np.abs(sum_j - expected)
    tol = _REL_SLACK * np.maximum(1.0, np.abs(sum_j))
    bad = ~(resid <= tol)  # a NaN residual is a violation
    worst = int(np.argmax(resid - tol))
    checks["newton_count"] = CheckResult("newton_count", n_rows,
                                         int(np.count_nonzero(bad)),
                                         float(resid[worst]), int(ks[worst]))

    if fstar is not None:
        env_bar = lambda_bar if lambda_bar is not None else max(lam0_seed, float(np.max(lams)))
        if lambda_bar is None:
            notes.append("envelope uses max observed lambda_k as lambda_bar")
        gap0 = f_F[0] - fstar
        if gap0 < 0.0:
            notes.append("F_0 < fstar: envelope skipped")
        elif n_tr >= 1:
            steps = np.arange(1, n_tr + 1)
            best_g = np.minimum.accumulate(g_next)
            bound = 4.0 * np.sqrt(env_bar * gap0 / steps)
            checks["envelope"] = _check_ineq("envelope", bound, best_g, row_ids + 1)
    else:
        notes.append("no fstar given: envelope skipped")

    # Hessian refresh schedule: increments of the cumulative counter must sit
    # at k = 0, m, 2m, ... for a single inferred m
    incr = np.diff(np.concatenate([[0], hevals]))
    refresh_rows = ks[incr > 0]
    sched_bad = 0
    if np.any((incr != 0) & (incr != 1)) or len(refresh_rows) == 0 or refresh_rows[0] != ks[0]:
        sched_bad = 1
    elif len(refresh_rows) >= 2:
        m_hat = int(refresh_rows[1] - refresh_rows[0])
        want = (ks - ks[0]) % m_hat == 0
        if (not np.array_equal(want, incr == 1)
                or hevals[-1] != (ks[-1] - ks[0]) // m_hat + 1):
            sched_bad = 1
        else:
            notes.append(f"hessian schedule consistent with m={m_hat}")
    else:
        notes.append("single hessian refresh: any m > k_last fits")
    checks["hessian_schedule"] = CheckResult("hessian_schedule", n_rows, sched_bad,
                                             float(sched_bad), int(ks[0]))

    return VerifyReport(rows=n_rows, checks=checks, lambda_bar=lambda_bar, notes=notes)


# -------------------------------------------------------------- estimate_order

@dataclass
class OrderEstimate:
    q: float
    fit_residual: float
    used: int


def estimate_order(trace, tail: int = 6) -> OrderEstimate:
    """Least-squares convergence order from the trace tail.

    Fits log10 g_{k+1} = a + q log10 g_k over the last `tail`
    consecutive-row transitions, after dropping rows with g_k below
    100 eps g_0 (floor noise).  The slope q is base-invariant;
    fit_residual is the RMS residual of the fit in base-10 logs.
    Raises NotEstimableError when fewer than `tail` clean transitions
    remain or the tail is not strictly decreasing.
    """
    records = _as_records(trace)
    if tail < 2:
        raise ValueError(f"tail must be at least 2, got {tail}")
    gs = np.array([r.g_k for r in records])
    if gs.size < tail + 1:
        raise NotEstimableError(f"need {tail + 1} rows, trace has {gs.size}")
    floor = 100.0 * np.finfo(np.float64).eps * gs[0]
    ok = gs > floor
    pairs = [i for i in range(gs.size - 1) if ok[i] and ok[i + 1]]
    if len(pairs) < tail:
        raise NotEstimableError(
            f"only {len(pairs)} transitions above the noise floor, need {tail}")
    pairs = pairs[-tail:]
    x = np.log10(gs[pairs])
    y = np.log10(gs[[i + 1 for i in pairs]])
    if np.any(y >= x):
        raise NotEstimableError("gradient norms not strictly decreasing at the tail")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    return OrderEstimate(q=float(slope),
                         fit_residual=float(np.sqrt(np.mean(resid**2))),
                         used=tail)


# ------------------------------------------------------------------- compare

def compare(configs: list[RunConfig]) -> list[dict]:
    """Run each config and return one summary per run (see format_compare_table)."""
    summaries = []
    for cfg in configs:
        result = _execute(cfg)
        if cfg.out_path:
            write_trace(cfg.out_path, result.trace)
        wall_ns = result.trace[-1].wall_ns if result.trace else 0
        summaries.append({
            "problem": cfg.problem, "solver": cfg.solver, "p": cfg.p, "m": cfg.m,
            "seed": cfg.seed, "status": result.status, "iters": result.iters,
            "trials": result.trials, "hess_evals": result.hess_evals,
            "g_final": result.g_final, "wall_s": wall_ns / 1e9,
        })
    return summaries


def format_compare_table(summaries: list[dict]) -> str:
    head = (f"{'problem':<8} {'solver':<8} {'p':>4} {'m':>3} {'seed':>5} "
            f"{'status':<10} {'iters':>6} {'trials':>7} {'hess':>6} "
            f"{'g_final':>12} {'wall_s':>9}")
    lines = [head, "-" * len(head)]
    for s in summaries:
        lines.append(
            f"{s['problem']:<8} {s['solver']:<8} {s['p']:>4.2f} {s['m']:>3d} "
            f"{s['seed']:>5d} {s['status']:<10} {s['iters']:>6d} {s['trials']:>7d} "
            f"{s['hess_evals']:>6d} {s['g_final']:>12.4e} {s['wall_s']:>9.3f}")
    return "\n".join(lines)
