import dataclasses

import numpy as np
import pytest

from gladssn.linalg import LinOp, MetricB
from gladssn.oracle import CompositeProblem, SeparableProx, SmoothOracle, ZeroPart
from gladssn.problems import make_huber, make_nmf, make_quadratic, make_svm
from gladssn import ssn
from gladssn.harness import ConfigError, RunConfig, verify
from gladssn.ssn import (CONVERGED, MAXITER, STALLED, NonFiniteError,
                         SolverConfig, acceptance_test, solve, trial_lambda,
                         trial_step)

from helpers import slack_ok


def test_trial_lambda():
    assert trial_lambda(1.0, 4.0, 0.5, 0) == 2.0
    assert trial_lambda(1.0, 4.0, 0.5, 2) == 32.0
    assert trial_lambda(0.25, 7.0, 0.0, 1) == 1.0
    assert trial_lambda(2.0, 3.0, 1.0, 0) == 6.0


def test_acceptance_boundaries():
    metric = MetricB()
    x_k = np.array([1.0, 0.0])
    x_plus = np.array([0.0, 0.0])
    F_sub = np.array([1.0, 0.0])  # pairing lhs = 1, ||F'||^2 = 1
    # lam = 0.5: pairing needs 1 >= 1 (boundary), decrease needs drop >= 0.125
    assert acceptance_test(F_sub, x_k, x_plus, 0.5, 1.0, 0.875, metric)
    assert not acceptance_test(F_sub, x_k, x_plus, 0.5, 1.0, 0.876, metric)
    # lam = 0.4: pairing needs 1 >= 1.25, fails no matter the decrease
    assert not acceptance_test(F_sub, x_k, x_plus, 0.4, 1.0, -10.0, metric)
    # a supplied decrease overrides the difference of the two values, both
    # ways, and the pairing test still comes first
    assert acceptance_test(F_sub, x_k, x_plus, 0.5, 1.0, 1.0, metric, decrease=0.125)
    assert not acceptance_test(F_sub, x_k, x_plus, 0.5, 1.0, 0.0, metric,
                               decrease=0.124)
    assert not acceptance_test(F_sub, x_k, x_plus, 0.4, 1.0, 1.0, metric, decrease=10.0)


def half_norm_problem(n):
    return CompositeProblem(
        smooth=SmoothOracle(dim=n,
                            eval_f=lambda x: 0.5 * float(x @ x),
                            eval_grad=lambda x: x.copy(),
                            eval_hess=lambda x: LinOp.from_dense(np.eye(n))),
        psi=ZeroPart())


def test_trial_step_quadratic_frozen():
    # model(y) = <x, y-x> + 0.5||y-x||^2 + 0.5||y-x||^2 at x=(1,0), lam=1.
    # A brute-force scan over y in [-1, 1.5]^2 (step 2.5e-3) puts the
    # minimizer at (0.5, 0); the exact solution of (I + I)s = -x.
    x = np.array([1.0, 0.0])
    ys = np.linspace(-1.0, 1.5, 1001)
    yy0, yy1 = np.meshgrid(ys, ys, indexing="ij")
    s0, s1 = yy0 - 1.0, yy1
    model = s0 + 0.5 * (s0**2 + s1**2) + 0.5 * (s0**2 + s1**2)
    i, j = np.unravel_index(np.argmin(model), model.shape)
    assert abs(ys[i] - 0.5) < 3e-3 and abs(ys[j]) < 3e-3

    # f(x) = 0.5 ||x||^2, exact oracles
    trial = trial_step(x, x.copy(), LinOp.from_dense(np.eye(2)), 1.0, half_norm_problem(2))
    np.testing.assert_allclose(trial.x_plus, [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(trial.psi_sub_plus, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(trial.F_sub_plus, [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(trial.f_grad_plus, trial.x_plus)


def test_trial_step_certifies_model_optimality():
    # psi_sub_plus must equal -f_grad - H s - lam B s identically
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    h = LinOp.from_dense(a @ a.T)
    x = rng.standard_normal(4)
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=4, eval_f=lambda z: float(z @ z),
                            eval_grad=lambda z: 2.0 * z,
                            eval_hess=lambda z: h),
        psi=ZeroPart())
    trial = trial_step(x, 2.0 * x, h, 0.3, prob)
    s = trial.x_plus - x
    np.testing.assert_allclose(trial.psi_sub_plus,
                               -(2.0 * x) - h.apply(s) - 0.3 * s, atol=1e-12)
    np.testing.assert_allclose(trial.F_sub_plus,
                               trial.f_grad_plus + trial.psi_sub_plus)


def test_trial_step_soft_threshold_frozen():
    # f = 0, H = 0, psi = |.|: model(y) = lam/2 (y - 2)^2 + |y| minimized at
    # the soft threshold soft(2, 1/lam * lam) = 1 for lam = 1.
    psi = SeparableProx(
        prox=lambda v, t: np.sign(v) * np.maximum(np.abs(v) - t, 0.0),
        eval_psi=lambda x: float(np.sum(np.abs(x))))
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=1, eval_f=lambda x: 0.0,
                            eval_grad=lambda x: np.zeros(1),
                            eval_hess=lambda x: LinOp.from_dense(np.zeros((1, 1)))),
        psi=psi)
    trial = trial_step(np.array([2.0]), np.zeros(1), LinOp.from_dense(np.zeros((1, 1))),
                       1.0, prob)
    assert abs(trial.x_plus[0] - 1.0) <= 1e-8
    # certified subgradient is -lam * (x_+ - x) = 1, which is d|.|(1)
    assert abs(trial.psi_sub_plus[0] - 1.0) <= 1e-8
    assert abs(trial.F_sub_plus[0] - 1.0) <= 1e-8


def test_solve_stationary_start():
    p = make_quadratic(2, n=8)
    res = solve(p, SolverConfig(grad_tol=1e-6), x0=p.known_xstar)
    assert res.status == CONVERGED
    assert res.iters == 0
    assert res.trace == []
    assert res.hess_evals == 0 and res.trials == 0
    assert res.g_final <= 1e-6


def test_solve_quadratic_fast():
    p = make_quadratic(1)
    res = solve(p, SolverConfig(p=0.5, m=1, Lambda0=1.0, grad_tol=1e-10))
    assert res.status == CONVERGED
    assert res.iters <= 30
    assert res.g_final <= 1e-10
    assert res.F_final <= p.known_fstar + 1e-8
    assert verify(res).passed


def test_solve_max_outer_zero():
    p = make_quadratic(1)
    res = solve(p, SolverConfig(max_outer=0))
    assert res.status == MAXITER
    assert res.iters == 0 and res.trace == [] and res.hess_evals == 0


def test_lazy_hessian_count():
    p = make_quadratic(1)
    for m in (1, 2, 4, 5, 10):
        res = solve(p, SolverConfig(p=0.5, m=m, grad_tol=0.0, max_outer=6))
        assert res.status == MAXITER
        assert res.iters == 6
        k_last = res.trace[-1].k
        assert res.hess_evals == k_last // m + 1
        # per-row counter is the number of refreshes up to that iteration
        for row in res.trace:
            assert row.hess_evals == row.k // m + 1


def test_lazy_runs_match_eager_on_constant_hessian():
    # the quadratic's Hessian never changes, so m > 1 must reproduce the
    # m = 1 trajectory bit for bit
    p = make_quadratic(3)
    r1 = solve(p, SolverConfig(p=0.5, m=1, grad_tol=1e-10))
    r3 = solve(p, SolverConfig(p=0.5, m=3, grad_tol=1e-10))
    assert r1.status == r3.status and r1.iters == r3.iters
    np.testing.assert_array_equal(r1.x, r3.x)
    for a, b in zip(r1.trace, r3.trace):
        assert (a.k, a.j_k, a.lambda_k, a.Lambda_k, a.f_val, a.F_val, a.g_k,
                a.r_k, a.inner_prod, a.trials) == \
               (b.k, b.j_k, b.lambda_k, b.Lambda_k, b.f_val, b.F_val, b.g_k,
                b.r_k, b.inner_prod, b.trials)


def test_convex_step_bound_and_counting():
    # with H psd the accepted step obeys r <= g / lambda (which verify does
    # not cover), and verify checks the trial-count identity through
    # Lambda_final
    for prob in (make_quadratic(1), make_huber(1), make_svm(1, n=30, ell=500)):
        res = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-9))
        assert res.status == CONVERGED
        for row in res.trace:
            assert slack_ok(row.g_k / row.lambda_k, row.r_k)
        assert verify(res).passed


def test_accepted_inequalities_on_nonconvex_run():
    p = make_nmf(1, d=12, n=8, r=3)
    res = solve(p, SolverConfig(p=0.5, m=1, grad_tol=1e-8, max_outer=300))
    assert res.status == CONVERGED
    assert verify(res).passed


def test_lasso_prox_path():
    # f = 0.5||x - c||^2, psi = ||.||_1: minimizer is soft(c, 1)
    c = np.array([3.0, 0.5, -2.0])
    psi = SeparableProx(
        prox=lambda v, t: np.sign(v) * np.maximum(np.abs(v) - t, 0.0),
        eval_psi=lambda x: float(np.sum(np.abs(x))))
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=3,
                            eval_f=lambda x: 0.5 * float((x - c) @ (x - c)),
                            eval_grad=lambda x: x - c,
                            eval_hess=lambda x: LinOp.from_dense(np.eye(3))),
        psi=psi, x0=np.zeros(3))
    res = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-8))
    assert res.status == CONVERGED
    np.testing.assert_allclose(res.x, [2.0, 0.0, -1.0], atol=1e-6)
    # the certified subgradient really is a subgradient of ||.||_1
    assert np.all(np.abs(res.psi_sub) <= 1.0 + 1e-9)
    assert res.psi_sub[0] == pytest.approx(1.0, abs=1e-6)
    assert res.psi_sub[2] == pytest.approx(-1.0, abs=1e-6)
    assert verify(res).passed


def test_failed_inner_solve_counts_as_rejected_trial():
    # H = diag(-1, 1) makes the j = 0 system diag(0, 2) s = (1, -1)
    # inconsistent; the solver must burn that trial and accept at j = 1
    a = np.diag([-1.0, 1.0])
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=2,
                            eval_f=lambda x: 0.5 * float(x @ (a @ x)),
                            eval_grad=lambda x: a @ x,
                            eval_hess=lambda x: LinOp.from_dense(a)),
        psi=ZeroPart(), x0=np.array([1.0, 1.0]))
    res = solve(prob, SolverConfig(p=0.0, m=1, Lambda0=1.0, max_outer=1))
    assert res.status == MAXITER
    assert res.iters == 1
    assert res.trace[0].j_k == 1
    assert res.trace[0].trials == 2


def test_stall_when_inner_budget_exhausted():
    # f is constant, so no trial shows the decrease lambda r^2 / 4 > 0 and
    # the solver stops after its fixed budget of trials
    flat = CompositeProblem(
        smooth=SmoothOracle(dim=2, eval_f=lambda x: 1.0,
                            eval_grad=lambda x: x.copy(),
                            eval_hess=lambda x: LinOp.from_dense(np.eye(2))),
        psi=ZeroPart(), x0=np.array([1.0, 0.0]))
    res = solve(flat, SolverConfig(p=0.0, m=1, Lambda0=1.0))
    assert res.status == STALLED
    assert res.iters == 0 and res.trace == []
    assert res.trials == ssn._MAX_TRIALS
    # a wrong-curvature oracle sends the j = 0 step uphill; a later trial
    # recovers
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=2,
                            eval_f=lambda x: 0.5 * float(x @ x),
                            eval_grad=lambda x: x.copy(),
                            eval_hess=lambda x: LinOp.from_dense(-10.0 * np.eye(2))),
        psi=ZeroPart(), x0=np.array([1.0, 0.0]))
    res2 = solve(prob, SolverConfig(p=0.0, m=1, Lambda0=1.0, grad_tol=1e-8))
    assert res2.status == CONVERGED
    assert res2.trace[0].j_k >= 1


def counting_diff(smooth):
    """smooth with eval_f_diff wrapped to record each call's x."""
    calls = []

    def diff(x, s):
        calls.append(x.copy())
        return smooth.eval_f_diff(x, s)
    return dataclasses.replace(smooth, eval_f_diff=diff), calls


def offset_quadratic(with_diff):
    # f = 1e3 + 0.5 x^T A x - b^T x: near the minimizer the decrease of a
    # step falls far below eps * |f| ~ 2e-13
    a = np.diag([1.0, 10.0, 100.0])
    b = np.array([1.0, -2.0, 3.0])
    smooth = SmoothOracle(
        dim=3, eval_f=lambda x: 1e3 + 0.5 * float(x @ (a @ x)) - float(b @ x),
        eval_grad=lambda x: a @ x - b, eval_hess=lambda x: LinOp.from_dense(a),
        eval_f_diff=(lambda x, s: -float(s @ (a @ x - b + 0.5 * (a @ s))))
        if with_diff else None)
    return CompositeProblem(smooth=smooth, psi=ZeroPart(), x0=np.full(3, 5.0))


def test_rounding_floor_certified_by_eval_f_diff():
    cfg = SolverConfig(p=1.0, m=1, grad_tol=1e-13)
    plain = solve(offset_quadratic(False), cfg)
    assert plain.status == STALLED and plain.g_final > 1e-8
    prob = offset_quadratic(True)
    smooth, calls = counting_diff(prob.smooth)
    res = solve(dataclasses.replace(prob, smooth=smooth), cfg)
    assert res.status == CONVERGED and res.g_final <= 1e-13
    assert res.iters == plain.iters + 1
    # up to the floor both runs are the same, and eval_f_diff was only
    # consulted at the iterate where the plain run stalled
    for a, b in zip(plain.trace, res.trace):
        assert (a.j_k, a.lambda_k, a.F_val, a.g_k, a.r_k, a.trials) == \
               (b.j_k, b.lambda_k, b.F_val, b.g_k, b.r_k, b.trials)
    assert calls and all(np.array_equal(x, plain.x) for x in calls)
    assert verify(res).passed


def test_off_floor_nmf_never_consults_eval_f_diff():
    base = make_nmf(1, d=40, n=20, r=4)
    smooth, calls = counting_diff(base.smooth)
    cfg = SolverConfig(p=0.5, m=5, grad_tol=1e-2)
    res = solve(dataclasses.replace(base, smooth=smooth), cfg)
    assert res.status == CONVERGED
    assert calls == []
    plain = solve(dataclasses.replace(
        base, smooth=dataclasses.replace(base.smooth, eval_f_diff=None)), cfg)
    assert plain.trials == res.trials
    np.testing.assert_array_equal(plain.x, res.x)


def test_non_finite_start_raises():
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=1, eval_f=lambda x: float("inf"),
                            eval_grad=lambda x: np.zeros(1),
                            eval_hess=lambda x: LinOp.from_dense(np.eye(1))),
        psi=ZeroPart(), x0=np.zeros(1))
    with pytest.raises(NonFiniteError):
        solve(prob, SolverConfig())


def test_non_finite_trial_raises_with_location():
    def f(x):
        return 0.09 if x[0] == 0.3 else float("nan")

    prob = CompositeProblem(
        smooth=SmoothOracle(dim=1, eval_f=f,
                            eval_grad=lambda x: 2.0 * x,
                            eval_hess=lambda x: LinOp.from_dense(2.0 * np.eye(1))),
        psi=ZeroPart(), x0=np.array([0.3]))
    with pytest.raises(NonFiniteError) as exc:
        solve(prob, SolverConfig())
    assert exc.value.k == 0 and exc.value.j == 0


def test_matvec_hessian_converges_to_same_point():
    # a matvec oracle of the same quadratic goes through MINRES, which
    # certifies less deeply (its residuals bound the reachable gradient
    # floor), so compare at a tolerance it can meet
    p = make_quadratic(4, n=10)
    a = p.instance.A
    mv_oracle = SmoothOracle(dim=10, eval_f=p.smooth.eval_f,
                             eval_grad=p.smooth.eval_grad,
                             eval_hess=lambda x: LinOp.from_matvec(lambda v: a @ v, 10))
    mv_prob = CompositeProblem(smooth=mv_oracle, psi=ZeroPart(), x0=p.x0)
    r_dense = solve(p, SolverConfig(grad_tol=1e-6))
    r_mf = solve(mv_prob, SolverConfig(grad_tol=1e-6))
    assert r_mf.status == CONVERGED
    np.testing.assert_allclose(r_mf.x, r_dense.x, atol=1e-5)


def test_symmetrize_cleans_skew_part():
    p = make_quadratic(5, n=8)
    a = p.instance.A
    skew = np.triu(np.ones((8, 8)), 1) * 0.05
    noisy = SmoothOracle(dim=8, eval_f=p.smooth.eval_f,
                         eval_grad=p.smooth.eval_grad,
                         eval_hess=lambda x: LinOp.from_dense(a + skew - skew.T))
    noisy_prob = CompositeProblem(smooth=noisy, psi=ZeroPart(), x0=p.x0)
    r_clean = solve(p, SolverConfig(grad_tol=1e-9))
    r_noisy = solve(noisy_prob, SolverConfig(grad_tol=1e-9))  # symmetric part of H
    assert r_noisy.iters == r_clean.iters
    np.testing.assert_array_equal(r_noisy.x, r_clean.x)


def test_config_validation():
    for kw in ({"p": -0.1}, {"p": 1.5}, {"m": 0}, {"m": 1.5},
               {"Lambda0": 0.0}, {"Lambda0": float("inf")},
               {"grad_tol": -1.0}, {"grad_tol": float("nan")},
               {"max_outer": -1}, {"max_outer": 2.5},
               {"max_outer": float("inf")}):
        with pytest.raises(ValueError):
            SolverConfig(**kw)
        # a run config validates its solver fields the same way
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"problem": "quad", **kw})


def test_bad_start_shapes():
    p = make_quadratic(1, n=5)
    with pytest.raises(ValueError):
        solve(p, SolverConfig(), x0=np.zeros(4))
    with pytest.raises(ValueError):
        solve(p, SolverConfig(), psi_sub0=np.zeros(6))
