"""Armijo backtracking gradient descent, the comparison baseline.

Smooth problems with the identity metric only (psi must be zero).  Each
iteration starts from t = 1 (_T0) and halves t (_BACKTRACK) until the
sufficient-decrease test

    f(x - t g) <= f(x) - 1e-4 * t * ||g||^2        (_C1 = 1e-4)

passes; after 60 failed tries (_MAX_BACKTRACKS) the run stops as stalled.
The step size resets to _T0 every iteration.  armijo_gd takes the solver's
SolverConfig and reads only its stopping rule, grad_tol and max_outer.

Traces reuse the solver's record layout so the same harness tooling
applies: j_k holds the backtrack count, lambda_k the accepted inverse step
size 1/t, Lambda_k is fixed at 0.0 (which also marks the trace as a
baseline run), and hess_evals stays 0.
"""

from __future__ import annotations

import time

import numpy as np

from .oracle import CompositeProblem
from .ssn import CONVERGED, MAXITER, STALLED, SolveResult, SolverConfig, TraceRecord

__all__ = ["armijo_gd"]

_C1 = 1e-4
_BACKTRACK = 0.5
_T0 = 1.0
_MAX_BACKTRACKS = 60


def armijo_gd(problem: CompositeProblem, config: SolverConfig,
              x0: np.ndarray | None = None) -> SolveResult:
    if not problem.psi.is_zero:
        raise ValueError("armijo_gd handles smooth problems only (psi must be zero)")
    if not problem.metric.is_identity:
        raise ValueError("armijo_gd works in the Euclidean metric only")
    n = problem.dim
    if x0 is None:
        x0 = problem.x0 if problem.x0 is not None else np.zeros(n)
    x = np.array(x0, dtype=np.float64)
    grad = np.asarray(problem.smooth.eval_grad(x), dtype=np.float64)
    f_val = float(problem.smooth.eval_f(x))
    trials = 0
    trace: list[TraceRecord] = []
    start_ns = time.perf_counter_ns()
    k = 0
    status = MAXITER

    while True:
        g_norm = float(np.linalg.norm(grad))
        if g_norm <= config.grad_tol:
            status = CONVERGED
            break
        if k >= config.max_outer:
            status = MAXITER
            break
        accepted = None
        t = _T0
        for i in range(_MAX_BACKTRACKS):
            trials += 1
            x_new = x - t * grad
            f_new = float(problem.smooth.eval_f(x_new))
            if f_new <= f_val - _C1 * t * g_norm * g_norm:
                accepted = (i, t, x_new, f_new)
                break
            t *= _BACKTRACK
        if accepted is None:
            status = STALLED
            break
        i, t, x_new, f_new = accepted
        grad_new = np.asarray(problem.smooth.eval_grad(x_new), dtype=np.float64)
        trace.append(TraceRecord(
            k=k, j_k=i, lambda_k=1.0 / t, Lambda_k=0.0,
            f_val=f_val, F_val=f_val, g_k=g_norm, r_k=t * g_norm,
            inner_prod=float(grad_new @ (x - x_new)),
            hess_evals=0, trials=trials,
            wall_ns=time.perf_counter_ns() - start_ns))
        x, f_val, grad = x_new, f_new, grad_new
        k += 1

    return SolveResult(status=status, x=x, trace=trace, iters=k,
                       g_final=float(np.linalg.norm(grad)), f_final=f_val,
                       F_final=f_val, f_grad=grad, psi_sub=np.zeros(n),
                       F_sub=grad, Lambda_final=0.0, hess_evals=0, trials=trials)
