"""Globalized lazy adaptive semismooth Newton solver and diagnostics."""

from .baselines import armijo_gd
from .harness import (NotEstimableError, RunConfig, VerifyReport, compare,
                      estimate_order, read_trace, run, verify, write_trace)
from .linalg import ActiveGram, BorderedBlocks, MetricB, Regularized, SolverStallError
from .oracle import CompositeProblem, SeparableProx, SmoothOracle, ZeroPart
from .problems import (load_instance, make_huber, make_nmf, make_quadratic,
                       make_svm, problem_from_instance, save_instance)
from .ssn import (CONVERGED, MAXITER, STALLED, NonFiniteError, SolveResult,
                  SolverConfig, TraceRecord, acceptance_test, solve, trial_step)

__all__ = [
    "armijo_gd",
    "NotEstimableError", "RunConfig", "VerifyReport", "compare",
    "estimate_order", "read_trace", "run", "verify", "write_trace",
    "ActiveGram", "BorderedBlocks", "MetricB", "Regularized", "SolverStallError",
    "CompositeProblem", "SeparableProx", "SmoothOracle", "ZeroPart",
    "load_instance", "make_huber", "make_nmf", "make_quadratic", "make_svm",
    "problem_from_instance", "save_instance",
    "CONVERGED", "MAXITER", "STALLED", "NonFiniteError",
    "SolveResult", "SolverConfig", "TraceRecord", "acceptance_test",
    "solve", "trial_step",
]

__version__ = "0.1.0"
