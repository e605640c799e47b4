"""The benchmark's span tracer still fits the package, and agrees with it.

perfbench/spans.py traces a solve from outside the package: it swaps
wrappers into ssn.trial_step, ssn.solve_regularized and ssn.acceptance_test,
reads Regularized.is_dense, and rebuilds the SmoothOracle (lipschitz_L
included) with wrapped callables.  A refactor that renames or reshapes any
of these breaks `bench.py --trace 1`, whose own tests are not part of this
suite.  The tracer also counts MINRES calls and iterations by patching
scipy.sparse.linalg.minres, so linalg must resolve that name at call time.
This module loads spans.py as it is and solves seven cases once each, plain
and under a Tracer; every test reads those solves.

The tracer's oracle copy keeps only SmoothOracle's fields, while the
problem's eval_f_diff, which certifies decreases at the rounding floor,
lives on CompositeProblem, which the tracer copies whole.  Five solves
converge off the floor, two of them an SVM run from a far start
(helpers.svm_far_start) at Lambda0 and one part in 2^40 above it.  Two end
at the floor.  One is an SVM run that stalls there, deciding on rounded
values (SVM has no eval_f_diff); its last iteration ends at the trial whose
step rounds to x_k, which evaluates nothing.  The other is the benchmark's
huber-l1 instance at seed 2, a composite run whose trials inside the
rounding band are decided by eval_f_diff(x, s) - <v, s>; a tracer copy that
dropped the certificate would make its traced run differ from the plain one.
The SVM solves also show that the residual cache, reached through the
tracer's wrapped callables, leaves the trajectory alone, and that trials
rejected on the decrease evaluate no gradient: the far start's first trial
fails the decrease by far more than rounding.

SolveResult.inner totals the InnerSolve record of every trial whose inner
solve returned; the tracer counts the same work from outside, by wrapping
np.linalg.cholesky, scipy.sparse.linalg.minres (whose callback it chains to
the library's) and the problem's prox.  With no failed inner solve the two
must agree: each Cholesky or LU solve factors once after one Cholesky call,
each MINRES solve and each of its corrections is one MINRES call, and each
prox sweep is one prox call.  The tracer's prox count also holds the one
prox call with which ssn.solve checks that 0 is a subgradient of psi at
x0, when no psi_sub0 is given, as the benchmark gives none.

SolveResult.seconds times a solve's phases from inside it.  Its clock reads
enclose the tracer's wrappers, so in a traced solve each phase is at least
the summed spans of the calls it times, and every case checks that, with
every key present, none negative and the phases within total.  The cases
cover four forms of H: a dense BorderedBlocks (nmf), a matrix-free one
(nmf-matfree), an ActiveGram (huber-l1) and an ndarray (svm).
"""

import dataclasses
from typing import NamedTuple

import pytest

from gladssn import problems, ssn
from gladssn.problems import DENSE_DIM_MAX, make_huber, make_nmf, make_svm
from gladssn.ssn import CONVERGED, STALLED, SolverConfig

from helpers import (FAR_START_LAMBDA0, LAMBDA0_NUDGES, check_phase_seconds, counted_l1,
                     load_spans, svm_far_start)

TRACED_GLOBALS = ("trial_step", "solve_regularized", "acceptance_test")
# SolveResult.seconds phase -> the tracer's span of each call it times
PHASE_SPANS = {"eval_hess": "oracle.eval_hess", "trial_step": "ssn.trial_step",
               "eval_f": "oracle.eval_f", "eval_grad": "oracle.eval_grad"}


class Case(NamedTuple):
    problem: object
    config: SolverConfig
    status: str
    paths: set  # the inner-solve routes its trials take
    dense_dim_max: int = DENSE_DIM_MAX


CASES = {
    "nmf": Case(make_nmf(1, d=12, n=8, r=3), SolverConfig(m=2, grad_tol=1e-4), CONVERGED,
                {"cholesky", "lu"}),
    "nmf-matfree": Case(make_nmf(2, d=20, n=10, r=3), SolverConfig(m=1, grad_tol=1e-4),
                        CONVERGED, {"minres"}, dense_dim_max=0),
    "huber-l1": Case(dataclasses.replace(make_huber(1, m=80, n=10), psi=counted_l1(0.5)[0]),
                     SolverConfig(m=1, grad_tol=1e-8), CONVERGED, {"prox"}),
    **{"svm" if nudge == 1.0 else "svm nudged": Case(
        svm_far_start(), SolverConfig(m=1, Lambda0=FAR_START_LAMBDA0 * nudge, grad_tol=1e-6),
        CONVERGED, {"cholesky"}) for nudge in LAMBDA0_NUDGES},
    "svm-stalled": Case(make_svm(3, n=50, ell=2000), SolverConfig(m=1, grad_tol=1e-12),
                        STALLED, {"cholesky"}),
    # the benchmark's huber-l1 instance at seed 2 converges at the floor
    "huber-l1 floor": Case(dataclasses.replace(make_huber(2, m=2000, n=400, delta=0.3),
                                               psi=counted_l1(5.0)[0]),
                           SolverConfig(m=1, grad_tol=1e-8), CONVERGED, {"prox"}),
}


@pytest.fixture(scope="module")
def runs():
    """ssn's TRACED_GLOBALS before any Tracer is installed, and per case the
    plain solve, the traced one, its Tracer and the TRACED_GLOBALS after it."""
    spans = load_spans()
    before = {name: vars(ssn)[name] for name in TRACED_GLOBALS}
    solved = {}
    for name, case in CASES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "DENSE_DIM_MAX", case.dense_dim_max)
            plain = ssn.solve(case.problem, case.config)
            tracer = spans.Tracer()
            with tracer.installed():
                traced = ssn.solve(tracer.traced_problem(case.problem), case.config)
        solved[name] = plain, traced, tracer, {g: vars(ssn)[g] for g in TRACED_GLOBALS}
    return before, solved


def trajectory(result):
    rows = [dataclasses.astuple(dataclasses.replace(r, wall_ns=0)) for r in result.trace]
    return result.status, result.g_final, result.F_final, rows


def test_tracer_wraps_the_solver_without_changing_it(runs):
    before, solved = runs
    for name, (plain, traced, tracer, traced_globals) in solved.items():
        case = CASES[name]
        assert plain.status == case.status, name
        assert traced_globals == before, name  # restored on exit
        calls, spent, _ = tracer.totals()
        for result in (plain, traced):
            check_phase_seconds(result)
        for phase, span in PHASE_SPANS.items():
            assert traced.seconds[phase] >= spent[span] > 0.0, (name, phase)
        expected_spans = {"ssn.acceptance_test", "ssn.trial_step"}
        if case.problem.psi.is_zero:
            expected_spans.add("linalg.solve_regularized")
        if "minres" in case.paths:
            expected_spans.add("linalg.minres")
        assert expected_spans <= set(calls), name
        assert calls["ssn.trial_step"] == plain.trials, name
        assert calls["ssn.acceptance_test"] > 0, name
        assert calls["oracle.eval_hess"] == plain.hess_evals, name
        counts = tracer.counts
        if "prox" in case.paths:
            assert counts["ssn.prox.sweeps"] > 0, name
        elif "minres" in case.paths:
            assert counts["linalg.minres.iters"] > counts["linalg.minres.calls"] > 0, name
        else:
            assert counts["linalg.dense_solves"] > 0, name
        if name in ("svm", "svm nudged"):
            assert calls["oracle.eval_grad"] < calls["oracle.eval_f"] == 1 + plain.trials
        elif name == "svm-stalled":
            assert calls["oracle.eval_grad"] < calls["oracle.eval_f"] == plain.trials
        assert trajectory(traced) == trajectory(plain), name


def test_tracer_leaves_a_composite_run_at_the_rounding_floor_alone(runs):
    plain, traced, tracer, _ = runs[1]["huber-l1 floor"]
    assert plain.status == CONVERGED
    calls, _, _ = tracer.totals()
    assert calls["ssn.trial_step"] == plain.trials
    assert tracer.counts["ssn.prox.sweeps"] > 0
    assert trajectory(traced) == trajectory(plain)


def test_inner_totals_match_the_tracer(runs):
    zero = (0, 0, 0)
    paths = set()
    for name, (_, res, tracer, _) in runs[1].items():
        composite = not CASES[name].problem.psi.is_zero
        calls, _, _ = tracer.totals()
        counts = tracer.counts
        assert counts["ssn.inner_failures"] == 0, name
        assert set(res.inner) == CASES[name].paths, name
        assert sum(solves for solves, _, _ in res.inner.values()) == res.trials, name
        minres, prox = res.inner.get("minres", zero), res.inner.get("prox", zero)
        assert minres[1] == counts["linalg.minres.iters"], name
        assert minres[0] + minres[2] == counts["linalg.minres.calls"], name
        assert (res.inner.get("cholesky", zero)[0] + res.inner.get("lu", zero)[0]
                == calls["linalg.cholesky"]), name
        assert prox[1] + composite == counts["ssn.prox.sweeps"], name
        paths |= set(res.inner)
    assert paths == {"cholesky", "lu", "minres", "prox"}
