"""Globalized lazy adaptive semismooth Newton for F = f + psi.

Outer iteration k keeps a lazily refreshed curvature operator H (recomputed
every m iterations, at indices k - k % m).  Inner trials j = 0, 1, ... probe
regularizers lambda = 4^j * Lambda_k * g_k^p, where g_k is the dual norm of
the certified composite gradient, and solve the regularized model

    min_y  <f'(x_k), y - x_k> + 1/2 <H (y - x_k), y - x_k>
           + lambda/2 ||y - x_k||_B^2 + psi(y).

Each trial certifies a subgradient v of psi at its point x_+ = x_k + s,
hence a composite gradient F'(x_+) = f'(x_+) + v in dF(x_+) (trial_step),
even where the model is solved inexactly; the trial is accepted when

    <F'(x_+), x_k - x_+>  >=  ||F'(x_+)||_*^2 / (2 lambda)
    F(x_k) - F(x_+)       >=  lambda/4 * ||x_+ - x_k||_B^2

both hold (acceptance_test, through step_inequalities), after which
Lambda_{k+1} = Lambda_k / 4 if j_k = 0 and otherwise, on a problem with
eval_f_diff, 4^{j_k} Lambda_k, or else the paper's 4^{j_k} Lambda_k / 4
(next_Lambda; see below for why eval_f_diff decides).  A trial is scored
value first: F(x_+), then the decrease inequality, and only for a trial
that passes it the gradient f'(x_+), F'(x_+) and the pairing.  A trial rejected on the
decrease never evaluates its gradient, so it cannot raise NonFiniteError
on that gradient.  Rejected trials quadruple lambda; a failed inner solve
counts as a rejected trial.  An outer iteration ends the run as stalled at
the first trial whose point rounds to x_k (psi zero), at the first trial
whose lambda is not in (0, inf), which is then not run, or after 60
rejected trials (_MAX_TRIALS).  A point x_+ == x_k has pairing 0 against a
positive ||F'(x_+)||^2 / (2 lambda), since F'(x_+) is then f'(x_k), so it
is rejected; every later trial has a larger lambda and a step no longer in
the B-norm.  With psi nonzero a null prox step can pass both tests with
F'(x_+) = 0, so there the exit is not taken.

Each trial's model is solved by linalg.Regularized (below), on every
route inexactly under the forcing rule documented at linalg.THETA, and with
an exact subgradient: v = 0 when psi is zero.  Across the trials of one
iteration the model changes only in lambda, so FISTA's trial j + 1 starts
from the step of the last trial that solved its model; the first trial of
each iteration starts from x_k.

Near the optimum the decrease F(x_k) - F(x_+) falls under the rounding
error of evaluating F, and its difference of two rounded values would
decide the second test on noise.  When the problem supplies eval_f_diff
and the test lies within the rounding band
|(F_k - F_+) - lambda r^2/4| <= 8 eps (|F_k| + |F_+|) (_ROUNDING_BAND),
the decrease is taken from the step s = x_+ - x_k instead, as the lower
bound eval_f_diff(x_k, s) - <v, s> on F(x_k) - F(x_+), with v the trial's
subgradient of psi at x_+; for a zero psi v is exactly 0 and the bound is
eval_f_diff(x_k, s) itself.  Outside the band, or without
eval_f_diff, the rounded values decide, and a run whose trials all fail on
noise stops as stalled.  There a rejection on noise would raise Lambda for
good if its level were kept, while the paper's rule forgets it one level per
iteration, so only a problem with eval_f_diff keeps Lambda's level.

Each Hessian refresh builds one linalg.Regularized, which owns H + lambda B
for every trial and lazy iteration until the next refresh.  It is built
with the previous refresh's as prev, so an ActiveGram H whose mask did not
change keeps the previous array, one whose mask changed a little is updated
by the rows that changed, and FISTA starts from the last step it accepted.
That state lives in this call, not in the oracle.  A refreshed dense H that
is not finite raises NonFiniteError; a matrix-free one fails its trials'
inner solves.

SolveResult.seconds splits the call's time by phase (PHASES), from
perf_counter_ns differences summed over the run: eval_hess; refresh, the
Regularized built from it with its is_finite check; trial_step, a call that
raises SolverStallError included; eval_f with eval_psi; and eval_grad, the
calls at the starting point included.  total is the whole call, so total
less the phases is the rest: the acceptance tests, a certified decrease,
the trace.  No clock is read inside an inner solve.
"""

from __future__ import annotations

import math
import numbers
import time
import typing
from dataclasses import dataclass

import numpy as np

from .linalg import InnerSolve, Regularized, SolverStallError
from .oracle import CompositeProblem

__all__ = [
    "CONVERGED",
    "MAXITER",
    "PHASES",
    "STALLED",
    "ConfigError",
    "NonFiniteError",
    "SolverConfig",
    "TraceRecord",
    "SolveResult",
    "trial_lambda",
    "next_Lambda",
    "step_inequalities",
    "acceptance_test",
    "trial_step",
    "solve",
]

CONVERGED = "converged"
MAXITER = "maxiter"
STALLED = "stalled"

# The phases SolveResult.seconds times; its total is the whole call.
PHASES = ("eval_hess", "refresh", "trial_step", "eval_f", "eval_grad")

# Inner trials per outer iteration; the last trial's regularizer is 4^59
# times the first.  With psi zero an iteration stops earlier, at the first
# trial whose point rounds to x_k; this budget bounds runs whose inner solves
# fail or whose points never round to x_k.
_MAX_TRIALS = 60

# Rounding band of the decrease test, in units of eps * |F| per evaluation.
# F_k - F_+ carries the evaluation errors of both values, and outside this
# band they cannot flip its comparison with lambda r^2 / 4.  Each evaluation
# of a sum of rounded squares lands within a few eps |F| of the exact value:
# near the reduced-NMF optimum two evaluations stray from eval_f_diff by at
# most 3 eps |F| at 1 and 2 BLAS threads.  8 leaves a margin over that.
_ROUNDING_BAND = 8.0
_EPS = float(np.finfo(np.float64).eps)


class NonFiniteError(RuntimeError):
    """A function value, gradient or dense Hessian came back non-finite.

    k and j locate the outer iteration and inner trial (j is None for a
    Hessian, and both are None when the starting point itself is bad).
    """

    def __init__(self, message: str, k: int | None = None, j: int | None = None):
        super().__init__(message)
        self.k = k
        self.j = j


class ConfigError(ValueError):
    """A config field of the wrong type or outside its domain (CLI exit code 1)."""


_NOUNS = {float: "a real number, not a bool", int: "an integer, not a bool",
          str: "a string", str | None: "a string or None", dict: "a dict"}


@dataclass
class SolverConfig:
    """The solver's parameters.  One rule checks every field, a subclass's too,
    against its declared type: a number is a real, not a bool, that fits a float,
    an int is also whole and stored as an int, and any other field holds its type."""

    p: float = 0.5
    m: int = 1
    Lambda0: float = 1.0
    grad_tol: float = 1e-8
    max_outer: int = 1000

    def __post_init__(self):
        for name, typ in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            try:  # float() of an integer beyond float range overflows (and its repr may)
                ok = (isinstance(value, typ) if typ not in (float, int) else
                      isinstance(value, numbers.Real) and not isinstance(value, bool)
                      and (float(value).is_integer() or typ is float))
            except OverflowError:
                raise ConfigError(f"{name} must fit a float") from None
            if not ok:
                raise ConfigError(f"{name} must be {_NOUNS[typ]}, got {value!r}")
            if typ is int:
                setattr(self, name, int(value))
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must lie in [0, 1], got {self.p}")
        if not self.m >= 1:
            raise ConfigError(f"m must be a positive integer, got {self.m}")
        if not (self.Lambda0 > 0.0 and np.isfinite(self.Lambda0)):
            raise ConfigError(f"Lambda0 must be positive, got {self.Lambda0}")
        if not self.grad_tol >= 0.0:
            raise ConfigError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if not self.max_outer >= 0:
            raise ConfigError(f"max_outer must be a nonnegative integer, got {self.max_outer}")


@dataclass
class TraceRecord:
    """One accepted outer iteration."""

    k: int
    j_k: int
    lambda_k: float
    Lambda_k: float
    f_val: float
    F_val: float
    g_k: float
    r_k: float
    inner_prod: float
    hess_evals: int
    trials: int
    wall_ns: int


@dataclass
class SolveResult:
    status: str
    x: np.ndarray
    trace: list[TraceRecord]
    iters: int
    g_final: float
    F_final: float
    psi_sub: np.ndarray
    Lambda_final: float
    hess_evals: int
    trials: int
    inner: dict[str, tuple[int, int, int]]  # path -> (solves, iters, corrections)
    seconds: dict[str, float]  # "total", then each of PHASES -> seconds


def trial_lambda(Lambda_k: float, g_k: float, p: float, j: int) -> float:
    """Regularizer for inner trial j: 4^j * Lambda_k * g_k^p."""
    return (4.0**j) * Lambda_k * g_k**p


def next_Lambda(Lambda_k, j, keep):
    """Lambda_{k+1} after a trial accepted at j_k = j.

    Lambda_k / 4 after a first-trial acceptance (j = 0).  After j >= 1 the
    paper's rule gives 4^j Lambda_k / 4, so the next first trial retries the
    level just rejected; keep gives 4^j Lambda_k, the level just accepted
    (the "very successful" rule of adaptive cubic regularization: shrink only
    when the first trial passed).  The one statement of the update;
    harness.verify checks every row of a trace against it.  Scaling by a
    power of 4 does not round, so the check needs no slack.
    """
    if keep and j:
        return (4.0**j) * Lambda_k
    return (4.0**j) * Lambda_k / 4.0


def step_inequalities(pairing, g_next, r, lam, decrease, g) -> dict:
    """The five inequalities of a step x_k -> x_+, each as (lhs, rhs), lhs >= rhs.

    g and g_next are the gradient norms at x_k and x_+, r = ||x_k - x_+||,
    pairing = <F'(x_+), x_k - x_+> and decrease = F(x_k) - F(x_+); floats
    or arrays.  The first two are the acceptance test.  They imply step_grad
    (the pairing is at most g_next r) and value_gain.  no_overshoot also
    needs lam r <= g, which the model step gives only where H is positive
    semidefinite, and then only up to a factor 1 / (1 - THETA) under the
    forcing rule (linalg.THETA); where H is indefinite it can fail.
    """
    return {
        "pairing": (pairing, g_next * g_next / (2.0 * lam)),
        "decrease": (decrease, 0.25 * lam * r * r),
        "step_grad": (2.0 * lam * r, g_next),
        "no_overshoot": (2.0 * g, g_next),
        "value_gain": (decrease, g_next * g_next / (16.0 * lam)),
    }


def acceptance_test(pairing: float, g_plus: float, r: float, lam: float,
                    decrease: float, g: float) -> bool:
    """Whether a trial passes the pairing and decrease inequalities."""
    ineq = step_inequalities(pairing, g_plus, r, lam, decrease, g)
    return all(lhs >= rhs for lhs, rhs in (ineq["pairing"], ineq["decrease"]))


def _certified_decrease(problem: CompositeProblem, x: np.ndarray, s: np.ndarray,
                        v_plus: np.ndarray, floor: float, F_val: float,
                        F_plus: float) -> float:
    """F(x) - F(x + s) for the decrease test, whose right side is floor.

    When the problem has eval_f_diff and the test lies within the rounding
    band |(F_val - F_plus) - floor| <= _ROUNDING_BAND * eps * (|F_val| +
    |F_plus|), the result is eval_f_diff(x, s) - <v_plus, s>, one formula
    for every psi.  v_plus is a subgradient of psi at x + s, so convexity
    gives psi(x) - psi(x + s) >= -<v_plus, s>, and the result is a lower
    bound on the decrease: no step passes that the exact test rejects.  With
    psi zero v_plus is exactly 0, so the result is eval_f_diff(x, s) itself.
    Else F_val - F_plus.
    """
    diff = problem.eval_f_diff
    if diff is not None:
        band = _ROUNDING_BAND * _EPS * (abs(F_val) + abs(F_plus))
        if abs((F_val - F_plus) - floor) <= band:
            return float(diff(x, s)) - float(v_plus @ s)
    return F_val - F_plus


def _check_finite(F_val: float, F_sub: np.ndarray, k=None, j=None) -> None:
    """Raise NonFiniteError unless F_val and F_sub, F and a subgradient at the start (k
    None) or at trial j of outer iteration k, are finite: every solver's one check."""
    if not (math.isfinite(F_val) and np.isfinite(F_sub).all()):
        where = "the starting point" if k is None else f"outer iteration {k}, trial {j}"
        raise NonFiniteError(f"objective or gradient non-finite at {where}", k=k, j=j)


def _start_point(problem: CompositeProblem, x0: np.ndarray | None) -> np.ndarray:
    """A float copy of x0, by default the problem's x0 or else zero, checked
    to have the problem's shape; every solver starts from it."""
    n = problem.dim
    if x0 is None:
        x0 = problem.x0 if problem.x0 is not None else np.zeros(n)
    x = np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x.shape}")
    return x


def _timed(ns: dict[str, int], phase: str, fn, *args):
    """fn(*args), with its nanoseconds added to ns[phase], also when it raises."""
    start = time.perf_counter_ns()
    try:
        return fn(*args)
    finally:
        ns[phase] += time.perf_counter_ns() - start


def _seconds(ns: dict[str, int], start_ns: int) -> dict[str, float]:
    """SolveResult.seconds: the call begun at start_ns, then each phase of ns."""
    return {"total": (time.perf_counter_ns() - start_ns) / 1e9} | {
        phase: t / 1e9 for phase, t in ns.items()}


# The per-trial linear solve, a module-level name a tracer can wrap.
solve_regularized = Regularized.solve


def trial_step(x: np.ndarray, f_grad: np.ndarray, reg: Regularized, lam: float,
               problem: CompositeProblem,
               s0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, InnerSolve]:
    """Solve the regularized model at x; return x_+, a psi subgradient v at x_+, its InnerSolve.

    f_grad is f'(x) and reg holds the lazy H + lam B.  s0, when given,
    warm-starts the inner FISTA loop of a nonzero psi at x + s0; the linear
    solve of a zero psi ignores it.  v makes f'(x_+) + v an element of
    dF(x_+): reg.prox_solve's for a nonzero psi, and 0, the only subgradient
    of a zero psi, on every route of its linear solve.  No oracle of f is
    called: the caller evaluates f'(x_+) only once the trial passes the
    decrease test.  Raises SolverStallError when the inner solve misses the
    forcing rule.
    """
    if problem.psi.is_zero:
        s, done = solve_regularized(reg, lam, -f_grad)
        return x + s, np.zeros_like(x), done
    return reg.prox_solve(lam, x, f_grad, problem.psi, s0)


def solve(problem: CompositeProblem, config: SolverConfig,
          x0: np.ndarray | None = None,
          psi_sub0: np.ndarray | None = None) -> SolveResult:
    """Run the solver from x0 (default: the problem's canonical start).

    psi_sub0 must be a subgradient of psi at x0, and None stands for 0:
    for a nonzero psi it raises ValueError unless prox_psi(x0, 1) = x0,
    which holds exactly when 0 is one, and a zero psi, whose only
    subgradient is 0, takes no other (ValueError).  One TraceRecord is
    appended per accepted iteration, carrying the pre-step state (F_val,
    g_k, ...) together with the accepted trial's lambda, step length and
    duality pairing; cumulative counters include the accepted trial itself.
    SolveResult.inner totals per path the InnerSolve of each trial whose inner solve returned.
    """
    call_ns = time.perf_counter_ns()
    ns = dict.fromkeys(PHASES, 0)
    metric = problem.metric
    n = problem.dim
    x = _start_point(problem, x0)
    psi_sub = np.zeros(n) if psi_sub0 is None else np.array(psi_sub0, dtype=np.float64)
    if psi_sub.shape != (n,):
        raise ValueError(f"psi_sub0 must have shape ({n},), got {psi_sub.shape}")
    if problem.psi.is_zero and psi_sub.any():
        raise ValueError("psi_sub0 must be zero when psi is zero, its only subgradient")
    # a NaN in x0 is left to the NonFiniteError below
    if (psi_sub0 is None and not problem.psi.is_zero
            and not np.array_equal(problem.psi.prox(x, 1.0), x, equal_nan=True)):
        raise ValueError("psi_sub0 must be given: 0 is not a subgradient of psi at x0")

    f_grad = np.asarray(_timed(ns, "eval_grad", problem.smooth.eval_grad, x), dtype=np.float64)
    F_sub = f_grad + psi_sub
    f_val = float(_timed(ns, "eval_f", problem.smooth.eval_f, x))
    F_val = f_val + _timed(ns, "eval_f", problem.psi.eval_psi, x)
    _check_finite(F_val, F_sub)
    g = metric.dual_norm(F_sub)

    Lambda_k = float(config.Lambda0)
    keep = problem.eval_f_diff is not None  # next_Lambda's rule; see above
    reg: Regularized | None = None
    hess_evals = 0
    trials = 0
    inner: dict[str, tuple[int, int, int]] = {}
    trace: list[TraceRecord] = []
    start_ns = time.perf_counter_ns()
    k = 0
    while True:
        if g <= config.grad_tol:
            status = CONVERGED
            break
        if k >= config.max_outer:
            status = MAXITER
            break
        if k % config.m == 0:
            h = _timed(ns, "eval_hess", problem.smooth.eval_hess, x)
            start = time.perf_counter_ns()
            reg = Regularized(h, metric, prev=reg)
            finite = reg.is_finite
            ns["refresh"] += time.perf_counter_ns() - start
            hess_evals += 1
            if not finite:
                raise NonFiniteError(f"non-finite Hessian at outer iteration {k}", k=k)

        s_prev = None
        accepted = False
        for j in range(_MAX_TRIALS):
            lam = trial_lambda(Lambda_k, g, config.p, j)
            if not 0.0 < lam < math.inf:
                break  # so is 4^i lam at every later trial i: the run stalls
            trials += 1
            try:
                x_plus, psi_sub_plus, done = _timed(ns, "trial_step", trial_step,
                                                    x, f_grad, reg, lam, problem, s_prev)
            except SolverStallError:
                continue
            solves, iters, corrections = inner.get(done.path, (0, 0, 0))
            inner[done.path] = (solves + 1, iters + done.iters, corrections + done.corrections)
            if problem.psi.is_zero and (x_plus == x).all():
                break  # x + s rounds to x, now and at every larger lam
            s_prev = x_plus - x
            f_plus = float(_timed(ns, "eval_f", problem.smooth.eval_f, x_plus))
            F_plus = f_plus + _timed(ns, "eval_f", problem.psi.eval_psi, x_plus)
            if not math.isfinite(F_plus):
                raise NonFiniteError(
                    f"non-finite trial value at outer iteration {k}, trial {j}",
                    k=k, j=j)
            r = metric.norm(s_prev)
            # Only the right side of the decrease test is known before the gradient.
            _, floor = step_inequalities(np.nan, np.nan, r, lam, np.nan, g)["decrease"]
            decrease = _certified_decrease(problem, x, s_prev, psi_sub_plus, floor,
                                           F_val, F_plus)
            if not decrease >= floor:
                continue
            f_grad_plus = np.asarray(_timed(ns, "eval_grad", problem.smooth.eval_grad, x_plus),
                                     dtype=np.float64)
            F_sub_plus = f_grad_plus + psi_sub_plus
            _check_finite(F_plus, F_sub_plus, k, j)
            pairing = -float(F_sub_plus @ s_prev)  # <F'(x_+), x_k - x_+>
            g_plus = metric.dual_norm(F_sub_plus)
            accepted = acceptance_test(pairing, g_plus, r, lam, decrease, g)
            if accepted:
                break
        if not accepted:
            status = STALLED
            break

        trace.append(TraceRecord(
            k=k, j_k=j, lambda_k=lam, Lambda_k=Lambda_k,
            f_val=f_val, F_val=F_val, g_k=g, r_k=r, inner_prod=pairing,
            hess_evals=hess_evals, trials=trials,
            wall_ns=time.perf_counter_ns() - start_ns))
        Lambda_k = next_Lambda(Lambda_k, j, keep)
        x = x_plus
        psi_sub = psi_sub_plus
        f_grad = f_grad_plus
        f_val = f_plus
        F_val = F_plus
        g = g_plus
        k += 1

    return SolveResult(status=status, x=x, trace=trace, iters=k,
                       g_final=g, F_final=F_val, psi_sub=psi_sub, Lambda_final=Lambda_k,
                       hess_evals=hess_evals, trials=trials, inner=inner,
                       seconds=_seconds(ns, call_ns))
