import dataclasses

import numpy as np
import pytest

from gladssn.baselines import armijo_gd
from gladssn.linalg import MetricB
from gladssn.oracle import CompositeProblem, SeparableProx, SmoothOracle, ZeroPart
from gladssn.problems import make_huber, make_quadratic
from gladssn.ssn import CONVERGED, MAXITER, STALLED, NonFiniteError, SolverConfig

from helpers import check_phase_seconds


def test_one_step_on_identity_quadratic():
    # f = 0.5||x||^2: x - 1.0 * g = 0, and t0 = 1 passes the Armijo test
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=3, eval_f=lambda x: 0.5 * float(x @ x),
                            eval_grad=lambda x: x.copy(),
                            eval_hess=lambda x: np.eye(3)),
        psi=ZeroPart(), x0=np.array([1.0, -2.0, 3.0]))
    res = armijo_gd(prob, SolverConfig(grad_tol=1e-12))
    assert res.status == CONVERGED
    assert res.iters == 1
    np.testing.assert_array_equal(res.x, np.zeros(3))
    assert res.trace[0].j_k == 0
    assert res.trace[0].lambda_k == 1.0
    assert res.trace[0].Lambda_k == 0.0  # marks the trace as a baseline
    assert res.hess_evals == 0


def test_backtracks_on_stiff_curvature():
    # f = 0.5 * 100 x^2: t0 = 1 overshoots badly, needs several halvings
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=1, eval_f=lambda x: 50.0 * float(x @ x),
                            eval_grad=lambda x: 100.0 * x,
                            eval_hess=lambda x: 100.0 * np.eye(1)),
        psi=ZeroPart(), x0=np.ones(1))
    res = armijo_gd(prob, SolverConfig(grad_tol=1e-8, max_outer=2000))
    assert res.status == CONVERGED
    assert res.trace[0].j_k >= 1
    assert res.trace[0].lambda_k == 2.0 ** res.trace[0].j_k  # 1/t after halvings
    # a gradient of the wrong sign makes every step an ascent: the run
    # stops as stalled after 60 halvings of its first step
    uphill = CompositeProblem(
        smooth=dataclasses.replace(prob.smooth, eval_grad=lambda x: -100.0 * x),
        psi=ZeroPart(), x0=np.ones(1))
    res = armijo_gd(uphill, SolverConfig(grad_tol=1e-8, max_outer=2000))
    assert res.status == STALLED
    assert (res.iters, res.trials, res.trace) == (0, 60, [])


def test_converges_on_huber():
    p = make_huber(1, m=60, n=8)
    res = armijo_gd(p, SolverConfig(grad_tol=1e-6, max_outer=5000))
    assert res.status == CONVERGED
    assert res.g_final <= 1e-6
    f_vals = [row.f_val for row in res.trace] + [res.F_final]
    assert all(a >= b for a, b in zip(f_vals, f_vals[1:]))
    # the baseline times the phases it has, eval_f and eval_grad
    check_phase_seconds(res)
    assert res.seconds["eval_hess"] == res.seconds["refresh"] == res.seconds["trial_step"] == 0.0


def test_sufficient_decrease_recomputable_from_trace():
    p = make_quadratic(2, n=10, cond=100.0)
    res = armijo_gd(p, SolverConfig(grad_tol=1e-6, max_outer=5000))
    assert res.status == CONVERGED
    f_vals = [row.f_val for row in res.trace] + [res.F_final]
    for i, row in enumerate(res.trace):
        t = 1.0 / row.lambda_k
        assert f_vals[i + 1] <= f_vals[i] - 1e-4 * t * row.g_k ** 2 + 1e-12
        assert row.r_k == t * row.g_k


def test_maxiter_status():
    p = make_quadratic(1, cond=1e4)
    res = armijo_gd(p, SolverConfig(grad_tol=1e-10, max_outer=5))
    assert res.status == MAXITER
    assert res.iters == 5
    assert len(res.trace) == 5


def _identity_quadratic(eval_f=lambda x: 0.5 * float(x @ x), eval_grad=lambda x: x.copy()):
    return CompositeProblem(
        smooth=SmoothOracle(dim=2, eval_f=eval_f, eval_grad=eval_grad,
                            eval_hess=lambda x: np.eye(2)),
        psi=ZeroPart(), x0=np.array([1.0, -2.0]))


@pytest.mark.parametrize("oracle", [{"eval_f": lambda x: np.nan},
                                    {"eval_grad": lambda x: np.array([np.inf, 0.0])}],
                         ids=["value", "gradient"])
def test_non_finite_start_raises(oracle):
    # the solver's start check, before any backtrack
    with pytest.raises(NonFiniteError, match="start") as exc:
        armijo_gd(_identity_quadratic(**oracle), SolverConfig())
    assert (exc.value.k, exc.value.j) == (None, None)


def test_non_finite_accepted_gradient_raises():
    # f'(x) is finite at x0 and NaN everywhere else: the first step, accepted
    # at its first try, raises with its place and leaves no NaN trace row
    prob = _identity_quadratic(
        eval_grad=lambda x: x.copy() if x[0] == 1.0 else np.full(2, np.nan))
    with pytest.raises(NonFiniteError, match="gradient") as exc:
        armijo_gd(prob, SolverConfig())
    assert (exc.value.k, exc.value.j) == (0, 0)


def test_rejects_composite_and_metric_problems():
    psi = SeparableProx(lambda v, t: v, lambda x: 0.0)
    smooth = SmoothOracle(dim=2, eval_f=lambda x: 0.0,
                          eval_grad=lambda x: np.zeros(2),
                          eval_hess=lambda x: np.eye(2))
    with pytest.raises(ValueError):
        armijo_gd(CompositeProblem(smooth=smooth, psi=psi), SolverConfig())
    with pytest.raises(ValueError):
        armijo_gd(CompositeProblem(smooth=smooth, psi=ZeroPart(),
                                   metric=MetricB(2.0 * np.eye(2))),
                  SolverConfig())

