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
    lambda_cap  lambda_k  <=  max(4 L, Lambda_0 g_0^p)     [needs L; 8 L under keep]
    newton_count Lambda_{k+1}  ==  ssn.next_Lambda(Lambda_k, j_k, keep)  and
                 k_{next row} == k + 1  at every row, exactly, with one
                 rule throughout (the paper's, keep = False, or keep; the
                 notes name it): powers of 4 scale without rounding, and
                 the rows telescope to the paper's trial count
                 sum_{i<=k} j_i  ==  (k+1) + log4(Lambda_{k+1} / Lambda_0)
                 or, under keep, to
                 sum_{i<=k} j_i  ==  #{i<=k : j_i = 0} + log4(Lambda_{k+1} / Lambda_0)
    envelope    min_{i<=k} g_i  <=  4 sqrt(lambda_bar (F_0 - fstar) / k)   [needs fstar]
    hessian_schedule  row k refreshes iff m divides k - k_0, and hess_evals ==
                      (k - k_0) // m + 1  [m off the first two refreshes, inf
                      for one; a row's slack counts its failed identities]

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
from .ssn import ConfigError, SolveResult, TraceRecord

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


class NotEstimableError(RuntimeError):
    """The trace tail is too short or not decreasing for an order fit."""


@dataclass(kw_only=True)
class RunConfig(ssn.SolverConfig):
    """A SolverConfig plus the problem, solver and output of one run; problem
    and solver must also be keys of problems.KINDS and SOLVERS."""

    problem: str
    solver: str = "gladssn"
    seed: int = 1
    out_path: str | None = None
    problem_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.problem not in problems.KINDS:
            raise ConfigError(f"unknown problem {self.problem!r}; "
                              f"choose from {sorted(problems.KINDS)}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; "
                              f"choose from {sorted(SOLVERS)}")

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


def _records(trace) -> tuple[list[TraceRecord], SolveResult | None]:
    """A trace's rows and terminal state: a SolveResult's own, else None."""
    if isinstance(trace, SolveResult):
        return trace.trace, trace
    return (read_trace(trace) if isinstance(trace, (str, Path)) else list(trace)), None


# ----------------------------------------------------------------------- run

def _make_problem(config: RunConfig):
    """The seeded problem config names; bad problem_kwargs are a ConfigError.

    A generator rejects an unknown keyword with TypeError and a bad value,
    such as a size below 1, with ValueError, and fails with MemoryError on
    a size too large to allocate.
    """
    try:
        return problems.KINDS[config.problem].make(config.seed, **config.problem_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem_kwargs for {config.problem}: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"problem_kwargs {config.problem_kwargs} too large for "
                          f"{config.problem}: {exc}") from exc


def run(config: RunConfig):
    """Run one solve and write its trace.

    Returns (exit_code, result, out_path); the trace lands at
    config.out_path or gladssn-trace.csv in the working directory.
    """
    result = SOLVERS[config.solver](_make_problem(config), config)
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
    stand in for the row after the last one, and Lambda_final is the last
    row's Lambda_{k+1} for the update-rule check.  L enables the lambda cap
    check and fstar the gradient-envelope check; an L or fstar that is not a
    real number (a bool is not), an L that is negative or not finite, or an
    fstar that is not finite, raises ValueError.
    """
    for name, value in (("L", L), ("fstar", fstar)):
        if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    if L is not None and not 0.0 <= L < np.inf:
        raise ValueError(f"L must be nonnegative and finite, got {L}")
    if fstar is not None and not np.isfinite(fstar):
        raise ValueError(f"fstar must be finite, got {fstar}")
    records, terminal = _records(trace)
    n_rows = len(records)
    checks: dict[str, CheckResult] = {}
    notes: list[str] = []
    if n_rows == 0:
        notes.append("empty trace: nothing to check")
        return VerifyReport(rows=0, checks=checks, lambda_bar=None, notes=notes)

    col = {c: np.array([getattr(r, c) for r in records]) for c in COLUMNS}
    ks, js, lams, caps, f_F, gs = (col[c] for c in ("k", "j_k", "lambda_k", "Lambda_k",
                                                    "F_val", "g_k"))
    # |value| >= |value| fails only where a value is not finite, also in the
    # columns no later check reads and in a baseline trace
    mag = np.abs(np.array(list(col.values()), dtype=np.float64)).max(axis=0)
    checks["finite"] = _check_ineq("finite", mag, mag, ks)

    if np.any(caps <= 0.0):
        notes.append("Lambda_k <= 0: baseline trace, adaptive checks skipped")
        return VerifyReport(rows=n_rows, checks=checks, lambda_bar=None, notes=notes)

    # the state after the last row is a SolveResult's terminal state; else the
    # last transition goes unchecked
    last = ([], []) if terminal is None else ([terminal.g_final], [terminal.F_final])
    g_next, F_next = (np.append(c[1:], t) for c, t in zip((gs, f_F), last))
    n_tr = g_next.size
    row_ids = ks[:n_tr]
    ineqs = ssn.step_inequalities(col["inner_prod"][:n_tr], g_next, col["r_k"][:n_tr],
                                  lams[:n_tr], f_F[:n_tr] - F_next, gs[:n_tr])
    for name, (lhs, rhs) in ineqs.items():
        checks[name] = _check_ineq(name, lhs, rhs, row_ids)

    # the update rule at every row, with no slack, under one of next_Lambda's
    # rules throughout: the one that fits more rows, the paper's on a tie.  A
    # row's slack is |Lambda_{k+1} - rule|, NaN (a violation) where either is
    # not finite or the next row's k is not this one's plus one, so that the
    # rows telescope; after the last row Lambda_{k+1} is a SolveResult's
    # Lambda_final, else the rule's own value.  np.vectorize applies a rule
    # written for scalars, with a branch on j, row by row.
    steps = np.append(np.diff(ks), 1)  # a last row has no next k
    slacks = {}
    for name, keep in (("paper", False), ("keep", True)):
        rule = np.vectorize(ssn.next_Lambda, otypes=[float])(caps, js, keep)
        lam_next = np.append(caps[1:], rule[-1] if terminal is None else terminal.Lambda_final)
        slacks[name] = np.where(np.isfinite(lam_next) & np.isfinite(rule) & (steps == 1),
                                np.abs(lam_next - rule), np.nan)
    bad = {name: int(np.count_nonzero(~(slack == 0.0))) for name, slack in slacks.items()}
    keep = bad["keep"] < bad["paper"]
    slack = slacks["keep" if keep else "paper"]
    lam0_seed = lams[0] / 4.0**js[0]  # Lambda_0 * g_0^p, recovered exactly
    lambda_bar = None
    if L is not None:
        # under keep a first trial after a j >= 1 acceptance sits at up to
        # 2^p lambda_k, and 2^p <= 2
        lambda_bar = max((8.0 if keep else 4.0) * L, lam0_seed)
        checks["lambda_cap"] = _check_ineq("lambda_cap", np.full(n_rows, lambda_bar), lams, ks)
    else:
        notes.append("no L given: lambda_cap skipped")
    worst = int(np.argmax(slack))  # the first NaN, if any
    checks["newton_count"] = CheckResult("newton_count", n_rows, min(bad.values()),
                                         float(slack[worst]), int(ks[worst]))
    notes.append("update rule: paper or keep (no row tells them apart)"
                 if bad["keep"] == bad["paper"] == 0 else
                 f"update rule: {'keep' if keep else 'paper'}")

    if fstar is not None:
        env_bar = lambda_bar if lambda_bar is not None else max(lam0_seed, float(np.max(lams)))
        if lambda_bar is None:
            notes.append("envelope uses max observed lambda_k as lambda_bar")
        gap0 = f_F[0] - fstar
        if gap0 < 0.0:
            notes.append("F_0 < fstar: envelope skipped")
        elif n_tr >= 1:
            bound = 4.0 * np.sqrt(env_bar * gap0 / np.arange(1, n_tr + 1))
            checks["envelope"] = _check_ineq("envelope", bound, np.minimum.accumulate(g_next),
                                             row_ids + 1)
    else:
        notes.append("no fstar given: envelope skipped")

    # Hessian refresh schedule, with m read off the first two refreshes (inf
    # for one): row k refreshes exactly when m divides k - k_0, and its
    # counter reads (k - k_0) // m + 1; a row's slack is its mismatch count
    hevals = col["hess_evals"]
    refreshed = np.diff(hevals, prepend=0) > 0
    dk = ks - ks[0]
    starts = dk[refreshed]
    m_hat = float(starts[1] - starts[0]) if starts.size >= 2 else np.inf
    mismatch = ((dk % m_hat == 0) != refreshed).astype(int) + (hevals != dk // m_hat + 1)
    checks["hessian_schedule"] = _check_ineq("hessian_schedule", np.zeros(n_rows), mismatch, ks)
    if checks["hessian_schedule"].passed:
        notes.append(f"hessian schedule consistent with m={int(m_hat)}" if starts.size >= 2
                     else "single hessian refresh: any m > k_last fits")

    return VerifyReport(rows=n_rows, checks=checks, lambda_bar=lambda_bar, notes=notes)


# -------------------------------------------------------------- estimate_order

@dataclass
class OrderEstimate:
    q: float
    fit_residual: float


def estimate_order(trace, tail: int = 6) -> OrderEstimate:
    """Least-squares convergence order from the trace tail.

    trace may be a path, a list of records or a SolveResult, whose rows
    alone are fitted: log10 g_{k+1} = a + q log10 g_k over the last `tail`
    consecutive-row transitions, after dropping rows with g_k below
    100 eps g_0 (floor noise).  The slope q is base-invariant;
    fit_residual is the RMS residual of the fit in base-10 logs.
    Raises NotEstimableError when fewer than `tail` clean transitions
    remain or the tail is not strictly decreasing, and ValueError when tail
    is not an integer of at least 2.
    """
    records, _ = _records(trace)
    if isinstance(tail, bool) or not isinstance(tail, numbers.Integral) or tail < 2:
        raise ValueError(f"tail must be an integer of at least 2, got {tail!r}")
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
    return OrderEstimate(q=float(slope), fit_residual=float(np.sqrt(np.mean(resid**2))))


# ------------------------------------------------------------------- compare

def compare(configs: list[RunConfig]) -> list[dict]:
    """Run each config and return one summary per run (see format_compare_table).

    wall_s is the solver's own seconds["total"]: the whole solver call,
    rejected trials included, but not building the problem.
    """
    summaries = []
    for cfg in configs:
        result = SOLVERS[cfg.solver](_make_problem(cfg), cfg)
        if cfg.out_path:
            write_trace(cfg.out_path, result.trace)
        summaries.append({
            "problem": cfg.problem, "solver": cfg.solver, "p": cfg.p, "m": cfg.m,
            "seed": cfg.seed, "status": result.status, "iters": result.iters,
            "trials": result.trials, "hess_evals": result.hess_evals,
            "g_final": result.g_final, "wall_s": result.seconds["total"],
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
