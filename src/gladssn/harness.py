"""Run, persist, and audit solver traces.

A trace is one record per accepted outer iteration, whose columns are the
fields of ssn.TraceRecord, serialized as CSV (default) or JSON with full
round-trip precision.  Row k stores the pre-step state (F_val, g_k) plus the
accepted trial's lambda_k, step length r_k and duality pairing inner_prod,
so consecutive rows carry everything the progress inequalities mention.
The transition out of the final row also needs the terminal state
(g_final, F_final), which only a SolveResult carries: given one, verify()
checks every accepted step, the last one included; given a path or a list
of records, it checks every transition but the last.

verify() rechecks, with relative slack 1e-9 and absolute slack 1e-12:

    pairing     <F'(x_{k+1}), x_k - x_{k+1}>  >=  g_{k+1}^2 / (2 lambda_k)
    decrease    F_k - F_{k+1}  >=  lambda_k / 4 * r_k^2
    step_grad   g_{k+1}  <=  2 lambda_k r_k
    no_overshoot g_{k+1} <=  2 g_k
    value_gain  F_k - F_{k+1}  >=  g_{k+1}^2 / (16 lambda_k)
    lambda_cap  lambda_k  <=  max(4 L, Lambda_0 g_0^p)     [needs L]
    newton_count sum_{i<=k} j_i  ==  (k+1) + log4(Lambda_{k+1} / Lambda_0)
    envelope    min_{i<=k} g_i  <=  4 sqrt(lambda_bar (F_0 - fstar) / k)   [needs fstar]
    hessian_schedule  refreshes at k = 0, m, 2m, ... and the eval counter
                      ends at floor(k_last / m) + 1

Lambda_0 g_0^p is recovered from row 0 as lambda_0 / 4^{j_0}; without L the
envelope uses the largest observed lambda_k as a stand-in for lambda_bar
(valid because only accepted regularizers enter the telescoped decrease).
"""

from __future__ import annotations

import json
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

PROBLEMS = {"nmf": problems.make_nmf, "svm": problems.make_svm,
            "huber": problems.make_huber, "quad": problems.make_quadratic}
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
    emit: str = "csv"
    problem_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; "
                              f"choose from {sorted(PROBLEMS)}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; "
                              f"choose from {sorted(SOLVERS)}")
        if self.emit not in ("csv", "json"):
            raise ConfigError(f"emit must be 'csv' or 'json', got {self.emit!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in d:
            raise ConfigError("config needs a 'problem' entry")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


# ------------------------------------------------------------------ trace IO

def _format_value(col: str, value) -> str:
    if col in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


def write_trace(path, records: list[TraceRecord], emit: str = "csv") -> None:
    """Serialize records; repr() keeps every float round-trip exact."""
    path = Path(path)
    if emit == "json":
        rows = [{c: (int(getattr(r, c)) if c in _INT_COLUMNS else float(getattr(r, c)))
                 for c in COLUMNS} for r in records]
        path.write_text(json.dumps(rows, indent=1) + "\n")
        return
    if emit != "csv":
        raise ConfigError(f"emit must be 'csv' or 'json', got {emit!r}")
    lines = [",".join(COLUMNS)]
    for r in records:
        lines.append(",".join(_format_value(c, getattr(r, c)) for c in COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def _record_from_dict(d: dict) -> TraceRecord:
    missing = [c for c in COLUMNS if c not in d]
    if missing:
        raise ValueError(f"trace row is missing columns {missing}")
    vals = {c: (int(d[c]) if c in _INT_COLUMNS else float(d[c])) for c in COLUMNS}
    return TraceRecord(**vals)


def read_trace(path) -> list[TraceRecord]:
    """Read a CSV or JSON trace back into records (format sniffed)."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return [_record_from_dict(d) for d in json.loads(text)]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    if header != COLUMNS:
        raise ValueError(f"unexpected trace header {header}")
    out = []
    for ln in lines[1:]:
        toks = ln.split(",")
        out.append(_record_from_dict(dict(zip(header, toks))))
    return out


def _as_records(trace) -> list[TraceRecord]:
    if isinstance(trace, (str, Path)):
        return read_trace(trace)
    return list(trace)


# ----------------------------------------------------------------------- run

def _execute(config: RunConfig) -> SolveResult:
    """Build the problem and run the requested solver."""
    try:
        problem = PROBLEMS[config.problem](config.seed, **config.problem_kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad problem_kwargs for {config.problem}: {exc}") from exc
    return SOLVERS[config.solver](problem, config)


def run(config: RunConfig):
    """Run one solve and write its trace.

    Returns (exit_code, result, out_path); the trace lands at
    config.out_path or gladssn-trace.<emit> in the working directory.
    """
    result = _execute(config)
    out_path = config.out_path or f"gladssn-trace.{config.emit}"
    write_trace(out_path, result.trace, emit=config.emit)
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
    """lhs >= rhs with relative + absolute slack; slack = rhs - lhs."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if lhs.size == 0:
        return CheckResult(name, 0, 0, 0.0, -1)
    slack = rhs - lhs
    tol = _REL_SLACK * np.maximum(np.abs(lhs), np.abs(rhs)) + _ABS_SLACK
    bad = slack > tol
    worst = int(np.argmax(slack))
    return CheckResult(name, int(lhs.size), int(np.count_nonzero(bad)),
                       float(slack[worst]), int(rows[worst]))


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
    lam_tr = lams[:n_tr]
    r_tr = rs[:n_tr]
    row_ids = ks[:n_tr]
    checks["pairing"] = _check_ineq("pairing", pair[:n_tr],
                                    g_next**2 / (2.0 * lam_tr), row_ids)
    decrease = f_F[:n_tr] - F_next
    checks["decrease"] = _check_ineq("decrease", decrease,
                                     0.25 * lam_tr * r_tr**2, row_ids)
    checks["step_grad"] = _check_ineq("step_grad", 2.0 * lam_tr * r_tr,
                                      g_next, row_ids)
    checks["no_overshoot"] = _check_ineq("no_overshoot", 2.0 * gs[:n_tr],
                                         g_next, row_ids)
    checks["value_gain"] = _check_ineq("value_gain", decrease,
                                       g_next**2 / (16.0 * lam_tr), row_ids)

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
    with np.errstate(divide="ignore"):
        expected = (ks - ks[0] + 1) + np.log(lam_next / caps[0]) / np.log(4.0)
    sum_j = np.cumsum(js)
    resid = np.abs(sum_j - expected)
    tol = _REL_SLACK * np.maximum(1.0, np.abs(sum_j))
    bad = resid > tol
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
        if not np.array_equal(want, incr == 1):
            sched_bad = 1
        elif hevals[-1] != (ks[-1] - ks[0]) // m_hat + 1:
            sched_bad = 1
        else:
            notes.append(f"hessian schedule consistent with m={m_hat}")
    else:
        notes.append("single hessian refresh: any m > k_last fits")
    checks["hessian_schedule"] = CheckResult("hessian_schedule", n_rows, sched_bad,
                                             0.0 if not sched_bad else 1.0,
                                             int(ks[0]))

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
            write_trace(cfg.out_path, result.trace, emit=cfg.emit)
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
