"""The benchmark's span tracer still fits the package.

perfbench/spans.py traces a solve from outside the package: it swaps
wrappers into ssn.trial_step, ssn.solve_regularized and ssn.acceptance_test,
reads Regularized.is_dense, and rebuilds the SmoothOracle (lipschitz_L
included) with wrapped callables.  A refactor that renames or reshapes any
of these breaks `bench.py --trace 1`, whose own tests are not part of this
suite.  The tracer also counts MINRES calls and iterations by patching
scipy.sparse.linalg.minres, so linalg must resolve that name at call time.
This test loads spans.py as it is and runs seven solves under it.  The
tracer's oracle copy keeps only SmoothOracle's fields, while the problem's
eval_f_diff, which certifies decreases at the rounding floor, lives on
CompositeProblem, which the tracer copies whole.  Five solves converge off
the floor, two of them an SVM run from a far start (helpers.svm_far_start)
at Lambda0 and one part in 2^40 above it.  Two end at the floor.  One is an
SVM run that stalls there, deciding
on rounded values (SVM has no eval_f_diff); its last iteration ends at the
trial whose step rounds to x_k, which evaluates nothing.  The other is the
benchmark's huber-l1 instance at seed 2, a composite run whose trials
inside the rounding band are decided by eval_f_diff(x, s) - <v, s>; a
tracer copy that dropped the certificate would make its traced run differ
from the plain one.
The SVM solves also show that the residual cache, reached through the
tracer's wrapped callables, leaves the trajectory alone, and that trials
rejected on the decrease evaluate no gradient: the far start's first trial
fails the decrease by far more than rounding.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from gladssn import problems, ssn
from gladssn.oracle import SeparableProx
from gladssn.problems import make_huber, make_nmf, make_svm
from gladssn.ssn import CONVERGED, STALLED, SolverConfig

from helpers import FAR_START_LAMBDA0, LAMBDA0_NUDGES, svm_far_start

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def l1(weight):
    return SeparableProx(lambda v, t: np.sign(v) * np.maximum(np.abs(v) - weight * t, 0.0),
                         lambda x: weight * float(np.sum(np.abs(x))))


def trajectory(result):
    rows = [dataclasses.astuple(dataclasses.replace(r, wall_ns=0)) for r in result.trace]
    return result.status, result.g_final, result.F_final, rows


def solve_plain_and_traced(spans, problem, config):
    """The plain solve of problem, its solve under a Tracer, and the Tracer."""
    plain = ssn.solve(problem, config)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = ssn.solve(tracer.traced_problem(problem), config)
    return plain, traced, tracer


def test_tracer_wraps_the_solver_without_changing_it(monkeypatch):
    spans = load_spans()
    dense_dim_max = problems.DENSE_DIM_MAX
    patched = {name: vars(ssn)[name]
               for name in ("trial_step", "solve_regularized", "acceptance_test")}
    cases = {
        "nmf": (make_nmf(1, d=12, n=8, r=3), SolverConfig(m=2, grad_tol=1e-4),
                {"ssn.acceptance_test", "ssn.trial_step", "linalg.solve_regularized"}),
        "nmf-matfree": (make_nmf(2, d=20, n=10, r=3), SolverConfig(m=1, grad_tol=1e-4),
                        {"ssn.acceptance_test", "ssn.trial_step", "linalg.solve_regularized",
                         "linalg.minres"}),
        "huber-l1": (dataclasses.replace(make_huber(1, m=80, n=10), psi=l1(0.5)),
                     SolverConfig(m=1, grad_tol=1e-8),
                     {"ssn.acceptance_test", "ssn.trial_step"}),
        **{"svm" if nudge == 1.0 else "svm nudged": (
            svm_far_start(), SolverConfig(m=1, Lambda0=FAR_START_LAMBDA0 * nudge, grad_tol=1e-6),
            {"ssn.acceptance_test", "ssn.trial_step", "linalg.solve_regularized"})
           for nudge in LAMBDA0_NUDGES},
        "svm-stalled": (make_svm(3, n=50, ell=2000), SolverConfig(m=1, grad_tol=1e-12),
                        {"ssn.acceptance_test", "ssn.trial_step",
                         "linalg.solve_regularized"}),
    }
    for name, (problem, config, expected_spans) in cases.items():
        monkeypatch.setattr(problems, "DENSE_DIM_MAX",
                            0 if name == "nmf-matfree" else dense_dim_max)
        plain, traced, tracer = solve_plain_and_traced(spans, problem, config)
        assert plain.status == (STALLED if name == "svm-stalled" else CONVERGED), name
        assert {n: vars(ssn)[n] for n in patched} == patched  # restored on exit
        calls, _, _ = tracer.totals()
        assert expected_spans <= set(calls), name
        assert calls["ssn.trial_step"] == plain.trials, name
        assert calls["ssn.acceptance_test"] > 0, name
        assert calls["oracle.eval_hess"] == plain.hess_evals, name
        if name == "huber-l1":
            assert tracer.counts["ssn.prox.sweeps"] > 0
        elif name == "nmf-matfree":
            assert tracer.counts["linalg.minres.iters"] > tracer.counts["linalg.minres.calls"] > 0
        else:
            assert tracer.counts["linalg.dense_solves"] > 0
        if name in ("svm", "svm nudged"):
            assert calls["oracle.eval_grad"] < calls["oracle.eval_f"] == 1 + plain.trials
        elif name == "svm-stalled":
            assert calls["oracle.eval_grad"] < calls["oracle.eval_f"] == plain.trials
        assert trajectory(traced) == trajectory(plain), name


def test_tracer_leaves_a_composite_run_at_the_rounding_floor_alone():
    # the benchmark's huber-l1 instance at seed 2 converges at the floor
    spans = load_spans()
    problem = dataclasses.replace(make_huber(2, m=2000, n=400, delta=0.3), psi=l1(5.0))
    plain, traced, tracer = solve_plain_and_traced(spans, problem,
                                                   SolverConfig(m=1, grad_tol=1e-8))
    assert plain.status == CONVERGED
    calls, _, _ = tracer.totals()
    assert calls["ssn.trial_step"] == plain.trials
    assert tracer.counts["ssn.prox.sweeps"] > 0
    assert trajectory(traced) == trajectory(plain)
