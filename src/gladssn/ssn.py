"""Globalized lazy adaptive semismooth Newton for F = f + psi.

Outer iteration k keeps a lazily refreshed curvature operator H (recomputed
every m iterations, at indices k - k % m).  Inner trials j = 0, 1, ... probe
regularizers lambda = 4^j * Lambda_k * g_k^p, where g_k is the dual norm of
the certified composite gradient, and solve the regularized model

    min_y  <f'(x_k), y - x_k> + 1/2 <H (y - x_k), y - x_k>
           + lambda/2 ||y - x_k||_B^2 + psi(y).

The model's optimality condition certifies a subgradient of psi at the
trial point, hence a composite gradient F'(x_+) there; the trial is
accepted when

    <F'(x_+), x_k - x_+>  >=  ||F'(x_+)||_*^2 / (2 lambda)
    F(x_k) - F(x_+)       >=  lambda/4 * ||x_+ - x_k||_B^2

both hold, after which Lambda_{k+1} = 4^{j_k} Lambda_k / 4.  Rejected
trials quadruple lambda; a failed inner solve counts as a rejected trial.
An outer iteration whose 60 trials (_MAX_TRIALS) are all rejected ends the
run as stalled.

Near the optimum the decrease F(x_k) - F(x_+) falls under the rounding
error of evaluating F, and its difference of two rounded values would
decide the second test on noise.  When psi is zero, the oracle supplies
eval_f_diff and the test lies within the rounding band
|(F_k - F_+) - lambda r^2/4| <= 8 eps (|F_k| + |F_+|) (_ROUNDING_BAND),
the decrease is taken from eval_f_diff(x_k, x_+ - x_k) instead.  Outside
the band, or without eval_f_diff, the rounded values decide, and a run
whose trials all fail on noise stops as stalled.

A dense H is replaced by its symmetric part (H + H^T) / 2 and solved
against directly.  By default each trial factors H + lambda B by Cholesky.
When a refresh can expect many solves, that is when k >= 1, m >= 2 and
m * (trials so far / k) >= 6 (_EIGH_MIN_SOLVES), the refreshed H is instead
decomposed once, on its first solve (eigh(H), or eigh(H, B) for a general
metric), and every later trial and lazy iteration solves in that eigenbasis
in O(n^2) for any lambda (see LinOp.solve).  A matrix-free H goes to MINRES.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import LinOp, MetricB, SolverStallError, solve_regularized, sym_part
from .oracle import CompositeProblem

__all__ = [
    "CONVERGED",
    "MAXITER",
    "STALLED",
    "NonFiniteError",
    "SolverConfig",
    "TraceRecord",
    "TrialResult",
    "SolveResult",
    "trial_lambda",
    "acceptance_test",
    "trial_step",
    "solve",
]

CONVERGED = "converged"
MAXITER = "maxiter"
STALLED = "stalled"

# Inner trials per outer iteration; the last trial's regularizer is 4^59
# times the first.
_MAX_TRIALS = 60

# Inner prox-gradient budget for models with a nonzero psi.
_PROX_MAX_SWEEPS = 500

# Solves per Hessian refresh from which one eigendecomposition of a dense H
# beats a Cholesky factorization per solve: at n = 240 on one OpenBLAS thread
# of a Xeon core, eigh costs 6-8 ms and one Cholesky solve with refinement
# about 1.1 ms.
_EIGH_MIN_SOLVES = 6.0

# Rounding band of the decrease test, in units of eps * |F| per evaluation.
# F_k - F_+ carries the evaluation errors of both values, and outside this
# band they cannot flip its comparison with lambda r^2 / 4.  Each evaluation
# of a sum of rounded squares lands within a few eps |F| of the exact value:
# near the reduced-NMF optimum two evaluations stray from eval_f_diff by at
# most 3 eps |F| at 1 and 2 BLAS threads.  8 leaves a margin over that.
_ROUNDING_BAND = 8.0
_EPS = float(np.finfo(np.float64).eps)


class NonFiniteError(RuntimeError):
    """A function value or gradient came back non-finite.

    k and j locate the outer iteration and inner trial (j is None when the
    starting point itself is bad).
    """

    def __init__(self, message: str, k: int | None = None, j: int | None = None):
        super().__init__(message)
        self.k = k
        self.j = j


@dataclass
class SolverConfig:
    p: float = 0.5
    m: int = 1
    Lambda0: float = 1.0
    grad_tol: float = 1e-8
    max_outer: int = 1000

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not float(self.m).is_integer() or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        self.m = int(self.m)
        if not (self.Lambda0 > 0.0 and np.isfinite(self.Lambda0)):
            raise ValueError(f"Lambda0 must be positive, got {self.Lambda0}")
        if not self.grad_tol >= 0.0:
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if not float(self.max_outer).is_integer() or self.max_outer < 0:
            raise ValueError(
                f"max_outer must be a nonnegative integer, got {self.max_outer}")
        self.max_outer = int(self.max_outer)


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


class TrialResult(NamedTuple):
    x_plus: np.ndarray
    psi_sub_plus: np.ndarray
    F_sub_plus: np.ndarray
    f_grad_plus: np.ndarray


@dataclass
class SolveResult:
    status: str
    x: np.ndarray
    trace: list[TraceRecord]
    iters: int
    g_final: float
    f_final: float
    F_final: float
    f_grad: np.ndarray
    psi_sub: np.ndarray
    F_sub: np.ndarray
    Lambda_final: float
    hess_evals: int
    trials: int


def trial_lambda(Lambda_k: float, g_k: float, p: float, j: int) -> float:
    """Regularizer for inner trial j: 4^j * Lambda_k * g_k^p."""
    return (4.0**j) * Lambda_k * g_k**p


def acceptance_test(F_sub_plus: np.ndarray, x_k: np.ndarray, x_plus: np.ndarray,
                    lam: float, F_k_val: float, F_plus_val: float,
                    metric: MetricB, decrease: float | None = None) -> bool:
    """Both progress inequalities at the trial point.

    decrease, when given, is an accurate F(x_k) - F(x_+) that replaces the
    difference of the two rounded values F_k_val - F_plus_val.
    """
    step = x_k - x_plus
    g_plus = metric.dual_norm(F_sub_plus)
    if float(F_sub_plus @ step) < g_plus * g_plus / (2.0 * lam):
        return False
    r = metric.norm(step)
    if decrease is None:
        decrease = F_k_val - F_plus_val
    return decrease >= 0.25 * lam * r * r


def _certified_decrease(problem: CompositeProblem, x: np.ndarray, x_plus: np.ndarray,
                        lam: float, F_val: float, F_plus: float) -> float | None:
    """F(x) - F(x_+) from the oracle's eval_f_diff, where rounding needs it.

    Returns None, so that the rounded values decide, unless psi is zero, the
    oracle has eval_f_diff and the decrease test lies within the rounding
    band: |(F_val - F_plus) - lam r^2 / 4| <= _ROUNDING_BAND * eps *
    (|F_val| + |F_plus|).
    """
    diff = problem.smooth.eval_f_diff
    if diff is None or not problem.psi.is_zero:
        return None
    s = x_plus - x
    r = problem.metric.norm(s)
    band = _ROUNDING_BAND * _EPS * (abs(F_val) + abs(F_plus))
    if abs((F_val - F_plus) - 0.25 * lam * r * r) > band:
        return None
    return float(diff(x, s))


def _prox_model_solve(h: LinOp, metric: MetricB, lam: float, x: np.ndarray,
                      f_grad: np.ndarray, psi) -> np.ndarray:
    """Minimize the regularized model with nonzero psi by proximal gradient.

    Runs until the prox-gradient mapping norm drops below
    min(1e-10, 1e-4 * lam * ||x_+ - x_k||); exhausting the sweep budget
    raises SolverStallError, which the outer loop treats as a failed trial.
    """
    lip = h.opnorm() + lam * metric.opnorm()
    t = 1.0 / (1.05 * lip)
    y = x.copy()
    s = np.zeros_like(x)
    resid = np.inf
    for _ in range(_PROX_MAX_SWEEPS):
        grad_m = f_grad + h.apply(s) + lam * metric.apply(s)
        y_new = psi.prox(y - t * grad_m, t)
        resid = float(np.linalg.norm(y - y_new)) / t
        y = y_new
        s = y - x
        if resid <= min(1e-10, 1e-4 * lam * float(np.linalg.norm(s))):
            return y
    raise SolverStallError(
        f"model prox-gradient stalled at mapping norm {resid:.3e}",
        best_residual=resid,
    )


def trial_step(x: np.ndarray, f_grad: np.ndarray, h: LinOp, lam: float,
               problem: CompositeProblem) -> TrialResult:
    """Solve the regularized model at x and certify the new gradient.

    f_grad is f'(x) and h the lazy curvature operator H.  The psi
    subgradient at the trial point always comes from the model optimality
    identity

        psi_sub_plus = -f_grad - H (x_+ - x) - lam * B (x_+ - x),

    never from a separate subgradient oracle.  Raises SolverStallError when
    the inner solve misses its residual target.
    """
    metric = problem.metric
    if problem.psi.is_zero:
        s = solve_regularized(h, metric, lam, -f_grad)
        x_plus = x + s
    else:
        x_plus = _prox_model_solve(h, metric, lam, x, f_grad, problem.psi)
        s = x_plus - x
    psi_sub_plus = -f_grad - h.apply(s) - lam * metric.apply(s)
    f_grad_plus = np.asarray(problem.smooth.eval_grad(x_plus), dtype=np.float64)
    F_sub_plus = f_grad_plus + psi_sub_plus
    return TrialResult(x_plus, psi_sub_plus, F_sub_plus, f_grad_plus)


def _reuse_pays(k: int, m: int, trials: int) -> bool:
    """Whether the H refreshed at iteration k should be decomposed once.

    The expected number of solves against it is m times the trials per
    iteration so far.  A single iteration's trial count is not predictable,
    so m = 1 never decomposes; neither does the first refresh, which has no
    history yet.
    """
    return k >= 1 and m >= 2 and m * trials / k >= _EIGH_MIN_SOLVES


def _prepare_hessian(problem: CompositeProblem, x: np.ndarray, reuse: bool) -> LinOp:
    """H(x) from the oracle, a dense H replaced by its symmetric part."""
    h = problem.smooth.eval_hess(x)
    if not isinstance(h, LinOp):
        raise TypeError("eval_hess must return a LinOp")
    if h.is_dense:
        h = LinOp.from_dense(sym_part(h.dense), reuse=reuse)
    return h


def solve(problem: CompositeProblem, config: SolverConfig,
          x0: np.ndarray | None = None,
          psi_sub0: np.ndarray | None = None) -> SolveResult:
    """Run the solver from x0 (default: the problem's canonical start).

    psi_sub0 must be a subgradient of psi at x0; the default zero vector is
    correct whenever psi is zero (or x0 happens to have 0 in its
    subdifferential).  One TraceRecord is appended per accepted iteration,
    carrying the pre-step state (F_val, g_k, ...) together with the accepted
    trial's lambda, step length and duality pairing; cumulative counters
    include the accepted trial itself.
    """
    metric = problem.metric
    n = problem.dim
    if x0 is None:
        x0 = problem.x0 if problem.x0 is not None else np.zeros(n)
    x = np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x.shape}")
    psi_sub = np.zeros(n) if psi_sub0 is None else np.array(psi_sub0, dtype=np.float64)
    if psi_sub.shape != (n,):
        raise ValueError(f"psi_sub0 must have shape ({n},), got {psi_sub.shape}")

    f_grad = np.asarray(problem.smooth.eval_grad(x), dtype=np.float64)
    F_sub = f_grad + psi_sub
    f_val = float(problem.smooth.eval_f(x))
    F_val = f_val + problem.psi.eval_psi(x)
    if not (np.isfinite(F_val) and np.all(np.isfinite(F_sub))):
        raise NonFiniteError("objective or gradient non-finite at the starting point")

    Lambda_k = float(config.Lambda0)
    h: LinOp | None = None
    hess_evals = 0
    trials = 0
    trace: list[TraceRecord] = []
    start_ns = time.perf_counter_ns()
    k = 0
    status = MAXITER

    while True:
        g = metric.dual_norm(F_sub)
        if g <= config.grad_tol:
            status = CONVERGED
            break
        if k >= config.max_outer:
            status = MAXITER
            break
        if k % config.m == 0:
            h = _prepare_hessian(problem, x, _reuse_pays(k, config.m, trials))
            hess_evals += 1

        accepted = None
        for j in range(_MAX_TRIALS):
            lam = trial_lambda(Lambda_k, g, config.p, j)
            trials += 1
            try:
                trial = trial_step(x, f_grad, h, lam, problem)
            except SolverStallError:
                continue
            f_plus = float(problem.smooth.eval_f(trial.x_plus))
            F_plus = f_plus + problem.psi.eval_psi(trial.x_plus)
            if not (np.isfinite(F_plus) and np.all(np.isfinite(trial.F_sub_plus))):
                raise NonFiniteError(
                    f"non-finite trial value at outer iteration {k}, trial {j}",
                    k=k, j=j)
            decrease = _certified_decrease(problem, x, trial.x_plus, lam, F_val, F_plus)
            if acceptance_test(trial.F_sub_plus, x, trial.x_plus, lam, F_val, F_plus,
                               metric, decrease=decrease):
                accepted = (j, lam, trial, f_plus, F_plus)
                break
        if accepted is None:
            status = STALLED
            break

        j, lam, trial, f_plus, F_plus = accepted
        step = x - trial.x_plus
        trace.append(TraceRecord(
            k=k, j_k=j, lambda_k=lam, Lambda_k=Lambda_k,
            f_val=f_val, F_val=F_val, g_k=g, r_k=metric.norm(step),
            inner_prod=float(trial.F_sub_plus @ step),
            hess_evals=hess_evals, trials=trials,
            wall_ns=time.perf_counter_ns() - start_ns))
        Lambda_k = (4.0**j) * Lambda_k / 4.0
        x = trial.x_plus
        psi_sub = trial.psi_sub_plus
        F_sub = trial.F_sub_plus
        f_grad = trial.f_grad_plus
        f_val = f_plus
        F_val = F_plus
        k += 1

    return SolveResult(status=status, x=x, trace=trace, iters=k,
                       g_final=metric.dual_norm(F_sub), f_final=f_val, F_final=F_val,
                       f_grad=f_grad, psi_sub=psi_sub, F_sub=F_sub,
                       Lambda_final=Lambda_k, hess_evals=hess_evals, trials=trials)
