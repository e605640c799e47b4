"""Globalized lazy adaptive semismooth Newton solver and diagnostics."""

from .baselines import armijo_gd
from .harness import (NotEstimableError, RunConfig, VerifyReport, compare,
                      estimate_order, read_trace, run, verify, write_trace)
from .linalg import LinOp, MetricB, SolverStallError, sym_part
from .oracle import (CompositeProblem, SeparableProx, SmoothOracle, ZeroPart,
                     check_gradient_fd, check_hvp_fd)
from .problems import (load_instance, make_huber, make_nmf, make_quadratic,
                       make_svm, penalty_violation, problem_from_instance,
                       save_instance)
from .ssn import (CONVERGED, MAXITER, STALLED, NonFiniteError, SolveResult,
                  SolverConfig, TraceRecord, acceptance_test, solve,
                  trial_lambda, trial_step)

__all__ = [
    "armijo_gd",
    "NotEstimableError", "RunConfig", "VerifyReport", "compare",
    "estimate_order", "read_trace", "run", "verify", "write_trace",
    "LinOp", "MetricB", "SolverStallError", "sym_part",
    "CompositeProblem", "SeparableProx", "SmoothOracle", "ZeroPart",
    "check_gradient_fd", "check_hvp_fd",
    "load_instance", "make_huber", "make_nmf", "make_quadratic", "make_svm",
    "penalty_violation", "problem_from_instance", "save_instance",
    "CONVERGED", "MAXITER", "STALLED", "NonFiniteError",
    "SolveResult", "SolverConfig", "TraceRecord", "acceptance_test",
    "solve", "trial_lambda", "trial_step",
]

__version__ = "0.1.0"
