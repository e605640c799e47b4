"""Armijo backtracking gradient descent, the comparison baseline.

Smooth problems with the identity metric only (psi must be zero).  Each
iteration starts from t = 1 (_T0) and halves t (_BACKTRACK) until the
sufficient-decrease test

    f(x - t g) <= f(x) - 1e-4 * t * ||g||^2        (_C1 = 1e-4)

passes; after 60 failed tries (_MAX_BACKTRACKS) the run stops as stalled.
A NaN or inf trial value fails the test; a non-finite value or gradient at the
start or an accepted point raises NonFiniteError.  armijo_gd takes the solver's
SolverConfig and reads only its stopping rule, grad_tol and max_outer.

Traces reuse the solver's record layout so the same harness tooling
applies: j_k holds the backtrack count, lambda_k the accepted inverse step
size 1/t, Lambda_k is fixed at 0.0 (which also marks the trace as a
baseline run), hess_evals stays 0 and inner stays empty.  seconds times
the eval_f and eval_grad phases; the solver's other phases read 0.
"""

from __future__ import annotations

import time

import numpy as np

from .oracle import CompositeProblem
from .ssn import (CONVERGED, MAXITER, PHASES, STALLED, SolveResult, SolverConfig,
                  TraceRecord, _check_finite, _seconds, _start_point, _timed)

__all__ = ["armijo_gd"]

_C1 = 1e-4
_BACKTRACK = 0.5
_T0 = 1.0
_MAX_BACKTRACKS = 60


def armijo_gd(problem: CompositeProblem, config: SolverConfig,
              x0: np.ndarray | None = None) -> SolveResult:
    call_ns = time.perf_counter_ns()
    ns = dict.fromkeys(PHASES, 0)
    if not problem.psi.is_zero:
        raise ValueError("armijo_gd handles smooth problems only (psi must be zero)")
    if not problem.metric.is_identity:
        raise ValueError("armijo_gd works in the Euclidean metric only")
    x = _start_point(problem, x0)
    grad = np.asarray(_timed(ns, "eval_grad", problem.smooth.eval_grad, x), dtype=np.float64)
    f_val = float(_timed(ns, "eval_f", problem.smooth.eval_f, x))
    _check_finite(f_val, grad)
    trials = 0
    trace: list[TraceRecord] = []
    start_ns = time.perf_counter_ns()
    k = 0

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
            f_new = float(_timed(ns, "eval_f", problem.smooth.eval_f, x_new))
            if f_new <= f_val - _C1 * t * g_norm * g_norm:
                accepted = (i, t, x_new, f_new)
                break
            t *= _BACKTRACK
        if accepted is None:
            status = STALLED
            break
        i, t, x_new, f_new = accepted
        grad_new = np.asarray(_timed(ns, "eval_grad", problem.smooth.eval_grad, x_new),
                              dtype=np.float64)
        _check_finite(f_new, grad_new, k, i)
        trace.append(TraceRecord(
            k=k, j_k=i, lambda_k=1.0 / t, Lambda_k=0.0,
            f_val=f_val, F_val=f_val, g_k=g_norm, r_k=t * g_norm,
            inner_prod=float(grad_new @ (x - x_new)),
            hess_evals=0, trials=trials,
            wall_ns=time.perf_counter_ns() - start_ns))
        x, f_val, grad = x_new, f_new, grad_new
        k += 1

    return SolveResult(status=status, x=x, trace=trace, iters=k,
                       g_final=float(np.linalg.norm(grad)), F_final=f_val,
                       psi_sub=np.zeros_like(x), Lambda_final=0.0,
                       hess_evals=0, trials=trials, inner={},
                       seconds=_seconds(ns, call_ns))
