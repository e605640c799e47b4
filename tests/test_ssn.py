import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator

from gladssn import linalg, problems
from gladssn.linalg import BorderedBlocks, MetricB, Regularized, SolverStallError
from gladssn.oracle import CompositeProblem, SeparableProx, SmoothOracle, ZeroPart
from gladssn.problems import make_huber, make_nmf, make_quadratic, make_svm
from gladssn import ssn
from gladssn.harness import ConfigError, RunConfig, _check_ineq, estimate_order, verify
from gladssn.ssn import (CONVERGED, MAXITER, STALLED, NonFiniteError,
                         SolverConfig, acceptance_test, next_Lambda, solve,
                         trial_lambda, trial_step)

from helpers import (FAR_START_LAMBDA0, LAMBDA0_NUDGES, block_inversions, block_stack,
                     counted_l1, eigh_calls, full_assemblies, minres_handed, quad_optimum,
                     svm_far_start, svm_with_f_diff, trial_outcomes)


def test_trial_lambda():
    assert trial_lambda(1.0, 4.0, 0.5, 0) == 2.0
    assert trial_lambda(1.0, 4.0, 0.5, 2) == 32.0
    assert trial_lambda(0.25, 7.0, 0.0, 1) == 1.0
    assert trial_lambda(2.0, 3.0, 1.0, 0) == 6.0


def test_next_Lambda_rules():
    # both rules shrink after a first-trial acceptance; after j >= 1 the
    # paper's retries the level below the accepted one, and keep keeps it
    for keep in (False, True):
        assert next_Lambda(8.0, 0, keep) == 2.0
    assert [next_Lambda(8.0, j, False) for j in (1, 2, 3)] == [8.0, 32.0, 128.0]
    assert [next_Lambda(8.0, j, True) for j in (1, 2, 3)] == [32.0, 128.0, 512.0]
    # powers of 4 scale without rounding, so both rules are exact
    lam = 0.1 + 0.2
    assert next_Lambda(next_Lambda(lam, 3, True), 0, True) == 16.0 * lam


def test_acceptance_boundaries():
    metric = MetricB()
    step = np.array([1.0, 0.0])  # x_k - x_+ with x_k = (1, 0), x_+ = 0
    F_sub = np.array([1.0, 0.0])
    pairing, g_plus, r = float(F_sub @ step), metric.dual_norm(F_sub), metric.norm(step)
    # g = 0.1 would fail no_overshoot (2 g >= g_plus); acceptance ignores it
    g = 0.1
    # lam = 0.5: pairing needs 1 >= 1 (boundary), decrease needs drop >= 0.125,
    # given as a difference of two values or as one accurate value
    assert acceptance_test(pairing, g_plus, r, 0.5, 1.0 - 0.875, g)
    assert not acceptance_test(pairing, g_plus, r, 0.5, 1.0 - 0.876, g)
    assert acceptance_test(pairing, g_plus, r, 0.5, 0.125, g)
    assert not acceptance_test(pairing, g_plus, r, 0.5, 0.124, g)
    # lam = 0.4: pairing needs 1 >= 1.25, fails no matter the decrease
    assert not acceptance_test(pairing, g_plus, r, 0.4, 11.0, g)
    assert not acceptance_test(pairing, g_plus, r, 0.4, 10.0, g)


def test_step_inequalities_scalars_and_arrays_agree():
    pairing = np.array([1.0, 0.3, 2.0])
    g_next = np.array([1.0, 0.9, 0.1])
    r = np.array([1.0, 0.2, 3.0])
    lam = np.array([0.5, 4.0, 0.25])
    decrease = np.array([0.125, 1e-3, 5.0])
    g = np.array([2.0, 0.4, 1.0])
    arrays = ssn.step_inequalities(pairing, g_next, r, lam, decrease, g)
    assert list(arrays) == ["pairing", "decrease", "step_grad", "no_overshoot",
                            "value_gain"]
    for i in range(3):
        scalars = ssn.step_inequalities(float(pairing[i]), float(g_next[i]), float(r[i]),
                                        float(lam[i]), float(decrease[i]), float(g[i]))
        for name, (lhs, rhs) in scalars.items():
            assert (lhs, rhs) == (arrays[name][0][i], arrays[name][1][i])
    # row 0 sits on the pairing and decrease boundaries
    assert arrays["pairing"][0][0] == arrays["pairing"][1][0]
    assert arrays["decrease"][0][0] == arrays["decrease"][1][0]


def test_certified_decrease_inside_and_outside_the_band():
    # f = 0.5 ||x||^2 with an exact difference oracle that the rounded
    # values cannot reproduce, so the result shows which one was used
    base = half_norm_problem(2)
    exact = dataclasses.replace(base, eval_f_diff=lambda x, s: 42.0)
    x, s, v = np.array([1.0, 0.0]), np.array([-0.5, 0.0]), np.array([2.0, 0.0])
    r, lam = 0.5, 1.0
    on_band = 0.25 * lam * r * r  # rounded decrease exactly at the test's boundary
    zero = np.zeros(2)  # a zero psi's only subgradient, the v of its every trial
    assert ssn._certified_decrease(exact, x, s, zero, on_band, 1.0, 1.0 - on_band) == 42.0
    assert ssn._certified_decrease(exact, x, s, zero, on_band, 1.0, 0.5) == 0.5
    # without the oracle the rounded difference decides, even inside the band
    assert ssn._certified_decrease(base, x, s, zero, on_band, 1.0, 1.0 - on_band) == on_band
    # one formula for every psi: a nonzero one's v subtracts <v, s> from the
    # oracle's decrease inside the band
    l1, _ = counted_l1(2.0)  # v is a subgradient of 2 ||.||_1 at x + s
    composite = dataclasses.replace(exact, psi=l1)
    assert ssn._certified_decrease(composite, x, s, v, on_band, 1.0, 1.0 - on_band) == 43.0
    assert ssn._certified_decrease(composite, x, s, v, on_band, 1.0, 0.5) == 0.5


def half_norm_problem(n):
    return CompositeProblem(
        smooth=SmoothOracle(dim=n,
                            eval_f=lambda x: 0.5 * float(x @ x),
                            eval_grad=lambda x: x.copy(),
                            eval_hess=lambda x: np.eye(n)),
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

    # f(x) = 0.5 ||x||^2, exact oracles; trial_step leaves f'(x_+) to the caller
    prob = half_norm_problem(2)
    x_plus, v, done = trial_step(x, x.copy(), Regularized(np.eye(2), MetricB()), 1.0, prob)
    assert done.path == "cholesky"
    f_grad_plus = prob.smooth.eval_grad(x_plus)
    np.testing.assert_allclose(x_plus, [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(v, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(f_grad_plus + v, [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(f_grad_plus, x_plus)


def test_trial_step_certifies_model_optimality():
    # the certified v must equal -f_grad - H s - lam B s identically
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    h = a @ a.T
    x = rng.standard_normal(4)
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=4, eval_f=lambda z: float(z @ z),
                            eval_grad=lambda z: 2.0 * z,
                            eval_hess=lambda z: h),
        psi=ZeroPart())
    x_plus, v, _ = trial_step(x, 2.0 * x, Regularized(h, MetricB()), 0.3, prob)
    s = x_plus - x
    np.testing.assert_allclose(v, -(2.0 * x) - h @ s - 0.3 * s, atol=1e-12)
    # so the composite gradient is f'(x_+) - f'(x) - H s - lam s
    f_grad_plus = prob.smooth.eval_grad(x_plus)
    np.testing.assert_allclose(f_grad_plus + v,
                               f_grad_plus - 2.0 * x - h @ s - 0.3 * s)


def test_trial_step_soft_threshold_frozen():
    # f = 0, H = 0, psi = |.|: model(y) = lam/2 (y - 2)^2 + |y| is minimized
    # at the soft threshold soft(2, 1/lam) = 1 for lam = 1.  FISTA's first
    # prox step from 2, at the first trial's t = 1 / lam, already meets the
    # forcing rule, so the trial stops at y = 2 - t, within |rho| / lam of
    # the minimizer.
    psi = SeparableProx(
        prox=lambda v, t: np.sign(v) * np.maximum(np.abs(v) - t, 0.0),
        eval_psi=lambda x: float(np.sum(np.abs(x))))
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=1, eval_f=lambda x: 0.0,
                            eval_grad=lambda x: np.zeros(1),
                            eval_hess=lambda x: np.zeros((1, 1))),
        psi=psi)
    lam = 1.0
    x_plus, v, done = trial_step(np.array([2.0]), np.zeros(1),
                                 Regularized(np.zeros((1, 1)), MetricB()), lam, prob)
    assert (done.path, done.iters) == ("prox", 1)
    s = x_plus[0] - 2.0
    rho = lam * s + v[0]
    assert abs(rho) <= linalg.THETA * lam * abs(s)
    assert abs(x_plus[0] - 1.0) <= abs(rho) / lam
    # x_+ > 0, so the certified subgradient is d|.|(x_+) = 1 itself
    assert abs(v[0] - 1.0) <= 1e-12
    f_grad_plus = prob.smooth.eval_grad(x_plus)
    assert abs(f_grad_plus[0] + v[0] - 1.0) <= 1e-12


def test_solve_stationary_start():
    p = make_quadratic(2, n=8)
    res = solve(p, SolverConfig(grad_tol=1e-6), x0=quad_optimum(p)[1])
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
    assert res.F_final <= quad_optimum(p)[0] + 1e-8
    assert verify(res).passed


def test_solve_max_outer_zero():
    p = make_quadratic(1)
    res = solve(p, SolverConfig(max_outer=0))
    assert res.status == MAXITER
    assert res.iters == 0 and res.trace == [] and res.hess_evals == 0


def assembled(problem):
    """problem with its BorderedBlocks Hessian handed over as the dense array."""
    hess = problem.smooth.eval_hess
    return dataclasses.replace(problem, smooth=dataclasses.replace(
        problem.smooth, eval_hess=lambda x: hess(x).assemble()))


def test_decomposition_schedule(monkeypatch):
    # nothing is eigendecomposed, at any m: each trial factors H + lam B
    # (a dense array H) or its Schur complement (NMF's own BorderedBlocks
    # H) by Cholesky, and by LU once that declines, so every trial's inner
    # solve is a direct one
    calls = eigh_calls(monkeypatch)
    p = make_nmf(1, d=8, n=6, r=2)
    for m in (1, 5):
        for prob in (assembled(p), p):
            res = solve(prob, SolverConfig(m=m, grad_tol=1e-6))
            assert res.status == CONVERGED
            assert res.hess_evals >= 2
            assert set(res.inner) <= {"cholesky", "lu"}, m
            assert sum(solves for solves, _, _ in res.inner.values()) == res.trials, m
            assert calls == {"eigh": 0}, m


def test_convex_step_bound_and_counting():
    # with H psd the accepted step obeys r <= g / lambda (which verify does
    # not cover), and verify checks the update rule at every row, the last
    # through Lambda_final.  The SVM run certifies a decrease at the rounding
    # floor by its eval_f_diff, so it converges at 1e-9 whatever the last
    # bits of Lambda0; gamma = 1 keeps F near 60, whose rounding error is far
    # below verify's absolute slack of 1e-12
    svm = svm_with_f_diff(make_svm(1, n=30, ell=500, gamma=1.0))
    for prob in (make_quadratic(1), make_huber(1), svm):
        for nudge in LAMBDA0_NUDGES:
            res = solve(prob, SolverConfig(p=0.5, m=1, Lambda0=nudge, grad_tol=1e-9))
            assert res.status == CONVERGED, nudge
            g, lam, r = (np.array([getattr(row, c) for row in res.trace])
                         for c in ("g_k", "lambda_k", "r_k"))
            assert _check_ineq("step_bound", g / lam, r, np.arange(len(r))).passed
            assert verify(res).passed


def test_accepted_inequalities_on_nonconvex_run():
    p = make_nmf(1, d=12, n=8, r=3)
    res = solve(p, SolverConfig(p=0.5, m=1, grad_tol=1e-8, max_outer=300))
    assert res.status == CONVERGED
    assert verify(res).passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the acceptance test implies no_overshoot only where H is positive "
                          "semidefinite; ROADMAP item 20 enforces it or checks it only there")
def test_verify_passes_an_accepted_step_on_an_indefinite_hessian():
    # row 3 is a Cholesky step at lam = 4.52 where lambda_min(H) = -3.24:
    # lam r = 3.67 exceeds g = 1.28, so the pairing's g_next <= 2 lam r
    # allows the g_next = 3.09 > 2 g that no_overshoot rejects
    res = solve(make_nmf(8, d=8, n=6, r=2), SolverConfig(m=1, grad_tol=1e-6))
    assert res.status == CONVERGED
    assert verify(res).passed


def test_solve_under_a_diagonal_metric(monkeypatch):
    # B = diag(d) routes every norm, dual norm and regularizer through the
    # dense metric; each run must converge and pass every audited inequality,
    # and no run eigendecomposes H or the pencil (H, B)
    calls = eigh_calls(monkeypatch)
    l1, _ = counted_l1(0.5)
    huber = make_huber(1, m=80, n=10)
    cases = {"quad": make_quadratic(1, n=20, cond=100.0),
             "huber": huber,
             "huber-l1": dataclasses.replace(huber, psi=l1)}
    for name, p in cases.items():
        metric = MetricB(np.diag(np.linspace(0.5, 2.0, p.dim)))
        p = dataclasses.replace(p, metric=metric)
        for m in (1, 5):
            res = solve(p, SolverConfig(m=m, grad_tol=1e-8))
            assert res.status == CONVERGED, (name, m)
            assert res.g_final == metric.dual_norm(res.psi_sub + p.smooth.eval_grad(res.x)), (name, m)
            assert verify(res).passed, (name, m)
            assert calls == {"eigh": 0}, (name, m)


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
                            eval_hess=lambda x: np.eye(3)),
        psi=psi, x0=np.zeros(3))
    res = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-8))
    assert res.status == CONVERGED
    np.testing.assert_allclose(res.x, [2.0, 0.0, -1.0], atol=1e-6)
    # the certified subgradient really is a subgradient of ||.||_1
    assert np.all(np.abs(res.psi_sub) <= 1.0 + 1e-9)
    assert res.psi_sub[0] == pytest.approx(1.0, abs=1e-6)
    assert res.psi_sub[2] == pytest.approx(-1.0, abs=1e-6)
    assert verify(res).passed


def l1_huber(seed, weight, **kw):
    """make_huber(seed, **kw) plus weight ||x||_1."""
    psi, _ = counted_l1(weight)
    return dataclasses.replace(make_huber(seed, **kw), psi=psi)


def test_inexact_trial_certificates_are_exact(monkeypatch):
    # a composite trial stops FISTA at the forcing rule, short of the model
    # minimizer, yet its v is a subgradient of weight ||.||_1 at x_+ to
    # rounding; a matrix-free zero-psi trial certifies v = 0 exactly,
    # whatever its MINRES residual
    weight = 2.0
    prob = l1_huber(3, weight, m=200, n=30, delta=0.3)
    x = prob.x0 + 0.1
    f_grad = prob.smooth.eval_grad(x)
    reg = Regularized(prob.smooth.eval_hess(x), MetricB())
    for lam in (0.1, 1.0, 10.0):
        x_plus, v, done = trial_step(x, f_grad, reg, lam, prob)
        assert done.path == "prox"
        s = x_plus - x
        rho = np.linalg.norm(f_grad + reg.h @ s + lam * s + v)
        # short of the minimizer by far more than rounding, within the rule
        assert 1e-3 * lam * np.linalg.norm(s) < rho <= linalg.THETA * lam * np.linalg.norm(s)
        support = x_plus != 0.0
        assert 0 < np.count_nonzero(support) < prob.dim
        np.testing.assert_allclose(v[support], weight * np.sign(x_plus[support]),
                                   rtol=0.0, atol=1e-12)
        assert np.all(np.abs(v[~support]) <= weight + 1e-12)

    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    nmf = make_nmf(2, d=20, n=10, r=3)
    f_grad = nmf.smooth.eval_grad(nmf.x0)
    reg = Regularized(nmf.smooth.eval_hess(nmf.x0), MetricB())
    assert not reg.is_dense
    lam = 1.0
    x_plus, v, done = trial_step(nmf.x0, f_grad, reg, lam, nmf)
    assert np.array_equal(v, np.zeros(nmf.dim)) and done.path == "minres"
    s = x_plus - nmf.x0
    rho = np.linalg.norm(f_grad + reg.h @ s + lam * s)
    assert 0.0 < rho <= linalg.THETA * lam * np.linalg.norm(s)


def test_local_order_survives_inexact_solves(monkeypatch):
    # the forcing term shrinks with lam ~ g^p, so the fitted local order
    # stays superlinear (observed: q = 1.355 on the matrix-free NMF run, whose
    # MINRES runs on the Schur complement, and 1.758 on the composite one,
    # the same to three places at Lambda0 and at Lambda0 (1 +- 2^-40), so
    # neither hangs on the last bits of its run); the final certificate is
    # exact, so g_final is the true dual norm of an element of dF(x)
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    weight = 1.0
    runs = [
        ("nmf matrix-free", make_nmf(2, d=20, n=10, r=3),
         SolverConfig(p=0.5, m=1, grad_tol=1e-9, max_outer=500)),
        ("huber + l1", l1_huber(2, weight, m=500, n=50, delta=0.3, ridge=1e-3),
         SolverConfig(p=0.5, m=1, Lambda0=10.0, grad_tol=1e-11, max_outer=200)),
    ]
    for (name, prob, cfg), nudge in itertools.product(runs, LAMBDA0_NUDGES):
        assert (not Regularized(prob.smooth.eval_hess(prob.x0), MetricB()).is_dense) == (
            name == "nmf matrix-free")
        res = solve(prob, dataclasses.replace(cfg, Lambda0=nudge * cfg.Lambda0))
        assert res.status == CONVERGED, (name, nudge)
        assert verify(res).passed, (name, nudge)
        est = estimate_order(res.trace, tail=6)
        assert est.q >= 1.3 and est.fit_residual <= 0.2, (name, nudge, est)
        assert 0.0 < res.g_final <= cfg.grad_tol, (name, nudge)
        assert res.g_final == np.linalg.norm(prob.smooth.eval_grad(res.x) + res.psi_sub), name
    # the composite run's final psi_sub is a subgradient of weight ||.||_1
    support = res.x != 0.0
    np.testing.assert_allclose(res.psi_sub[support], weight * np.sign(res.x[support]),
                               rtol=0.0, atol=1e-12)
    assert np.all(np.abs(res.psi_sub[~support]) <= weight + 1e-12)


def test_lazy_local_order_over_refresh_rows():
    # the paper's local rate survives laziness: at m = 3 the order fitted
    # over the refresh rows alone, log g_{k+3} on log g_k over the last 4
    # blocks, stays superlinear (measured: 2.32, 2.27, 1.69 and 1.88, the
    # same at 1 and 2 BLAS threads); the runs solve NMF's dense
    # BorderedBlocks Hessian across the lazy iterations of each refresh
    for seed, size in ((2, dict(d=20, n=10, r=3)), (1, dict(d=40, n=20, r=4)),
                       (3, dict(d=20, n=10, r=3)), (4, dict(d=20, n=10, r=3))):
        prob = make_nmf(seed, **size)
        assert Regularized(prob.smooth.eval_hess(prob.x0), MetricB()).is_dense
        res = solve(prob, SolverConfig(p=0.5, m=3, grad_tol=1e-9))
        assert res.status == CONVERGED and verify(res).passed, seed
        refreshes = res.trace[::3]
        assert [row.hess_evals for row in refreshes] == list(range(1, len(refreshes) + 1))
        est = estimate_order(refreshes, tail=4)
        assert est.q >= 1.5, (seed, est)


def test_huber_refreshes_match_full_assembly_over_a_run(monkeypatch):
    # the benchmark's huber-l1 size: each refresh builds H from the last
    # one's, by keeping it, by a rank update or in full, and every H stays
    # within 1e-12 of the Gram assembled afresh at its mask; each refresh is
    # the Regularized its trials were handed
    full, trials = full_assemblies(monkeypatch), trial_outcomes(monkeypatch)
    prob = l1_huber(1, 5.0, m=2000, n=400, delta=0.3)
    res = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-8))
    assert res.status == CONVERGED and verify(res).passed
    regs = list(dict.fromkeys(reg for reg, _, _ in trials))
    assert len(regs) == res.hess_evals
    kept = sum(b.h is a.h for a, b in zip(regs, regs[1:]))
    assert kept >= 1 and res.hess_evals - kept - len(full) >= 1  # some kept, some updated
    for reg in regs:
        fresh = reg.gram.assemble()
        np.testing.assert_array_equal(reg.h, reg.h.T)
        assert np.max(np.abs(reg.h - fresh)) <= 1e-12 * np.max(np.abs(fresh))


def test_same_problem_solved_twice_gives_the_same_trajectory():
    # a refresh builds on the previous refresh of its own solve only, so the
    # oracle keeps no state between solves.  The runs from near the solution
    # start where the last active set of one solve is close to the first of
    # the next, so state kept across solves would change their H
    weight = 1.0
    for prob in (make_huber(2, m=300, n=40, delta=0.3),
                 l1_huber(2, weight, m=300, n=40, delta=0.3)):
        x_star = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-9)).x
        near = x_star + 1e-2 * np.random.default_rng(0).standard_normal(prob.dim)
        psi_sub = None if prob.psi.is_zero else weight * np.sign(near)
        for x0, psi_sub0 in ((None, None), (near, psi_sub)):
            for m in (1, 3):
                first, second = (solve(prob, SolverConfig(p=0.5, m=m, grad_tol=1e-9),
                                       x0=x0, psi_sub0=psi_sub0) for _ in range(2))
                assert first.status == CONVERGED and first.hess_evals >= 2
                assert ([dataclasses.replace(r, wall_ns=0) for r in first.trace]
                        == [dataclasses.replace(r, wall_ns=0) for r in second.trace])
                assert np.array_equal(first.x, second.x) and first.F_final == second.F_final


def ill_conditioned_l1_model():
    # diagonal H with eigenvalues 1e-4 .. 1 (condition 1e4) and psi = ||.||_1
    # at x = 0: the minimizer soft(-g / (h + lam), 1 / (h + lam)) is zero
    # exactly where |g_i| < 1, which here are the coordinates of curvature
    # below 1e-2, so its support has condition 100.  The plain
    # prox-gradient loop needs thousands of sweeps on it.
    n = 40
    curv = np.logspace(-4.0, 0.0, n)
    signs = np.where(np.arange(n) % 2, 1.0, -1.0)
    f_grad = signs * np.where(curv >= 1e-2, 2.0, 0.5)
    return Regularized(np.diag(curv), MetricB()), curv, np.zeros(n), f_grad


def check_model_solution(y, v, curv, x, f_grad, lam, weight):
    """(y, v) meets the forcing rule, v is an exact subgradient of
    weight ||.||_1 at y, and y lies within the distance the rule implies
    from the closed-form minimizer."""
    s = y - x
    rho = f_grad + curv * s + lam * s + v
    assert np.linalg.norm(rho) <= linalg.THETA * lam * np.linalg.norm(s)
    support = y != 0.0
    np.testing.assert_allclose(v[support], weight * np.sign(y[support]), rtol=0.0, atol=1e-12)
    assert np.all(np.abs(v[~support]) <= weight + 1e-12)
    u = x - f_grad / (curv + lam)
    y_star = np.sign(u) * np.maximum(np.abs(u) - weight / (curv + lam), 0.0)
    # rho lies in the model's subdifferential at y, and the model is strongly
    # convex with modulus min curvature + lam
    assert np.linalg.norm(y - y_star) <= np.linalg.norm(rho) / (curv[0] + lam)
    # |f_grad_i| is 0.5 or 2 against the threshold 1, a margin wide enough
    # for the inexact step to find the minimizer's zero pattern too
    assert np.array_equal(y == 0.0, y_star == 0.0)


def test_prox_solve_meets_target_on_ill_conditioned_l1():
    reg, curv, x, f_grad = ill_conditioned_l1_model()
    for lam in (1e-6, 1e-3):
        psi, calls = counted_l1(1.0)
        y, v, done = reg.prox_solve(lam, x, f_grad, psi)
        assert done.iters == calls[0] <= linalg._PROX_MAX_SWEEPS
        check_model_solution(y, v, curv, x, f_grad, lam, 1.0)


def test_prox_solve_warm_start():
    # the next trial's model differs only in lam = 4 * lam; started from
    # the previous trial's step it meets the forcing rule in fewer prox
    # calls than from x
    reg, curv, x, f_grad = ill_conditioned_l1_model()
    lam = 1e-6
    psi, calls = counted_l1(1.0)
    s_prev = reg.prox_solve(lam, x, f_grad, psi)[0] - x
    calls[0] = 0
    cold = reg.prox_solve(4.0 * lam, x, f_grad, psi)
    cold_calls, calls[0] = calls[0], 0
    warm = reg.prox_solve(4.0 * lam, x, f_grad, psi, s0=s_prev)
    assert calls[0] < cold_calls
    for y, v, _ in (cold, warm):
        check_model_solution(y, v, curv, x, f_grad, 4.0 * lam, 1.0)


def test_prox_solve_stalls_when_its_sweep_budget_runs_out():
    # curvatures over eight decades at lam = 1e-6: the step 1 / ||H|| is so
    # short that FISTA cannot meet the mapping target in its sweep budget
    reg = Regularized(np.diag(np.logspace(0.0, 8.0, 50)), MetricB())
    psi, calls = counted_l1(0.1)
    with pytest.raises(SolverStallError, match="model prox-gradient stalled") as info:
        reg.prox_solve(1e-6, np.zeros(50), 10.0 * np.linspace(-1.0, 1.0, 50), psi)
    assert calls[0] == linalg._PROX_MAX_SWEEPS
    assert info.value.best_residual > 1.0


def test_failed_inner_solve_counts_as_rejected_trial():
    # H = diag(-1, 1) makes the j = 0 system diag(0, 2) s = (1, -1)
    # inconsistent; the solver must burn that trial and accept at j = 1
    a = np.diag([-1.0, 1.0])
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=2,
                            eval_f=lambda x: 0.5 * float(x @ (a @ x)),
                            eval_grad=lambda x: a @ x,
                            eval_hess=lambda x: a),
        psi=ZeroPart(), x0=np.array([1.0, 1.0]))
    res = solve(prob, SolverConfig(p=0.0, m=1, Lambda0=1.0, max_outer=1))
    assert res.status == MAXITER
    assert res.iters == 1
    assert res.trace[0].j_k == 1
    assert res.trace[0].trials == 2


def test_stall_when_inner_budget_exhausted(monkeypatch):
    # f is constant, so no trial shows the decrease lambda r^2 / 4 > 0; the
    # solver stops at the first trial whose step rounds back to x0
    flat = CompositeProblem(
        smooth=SmoothOracle(dim=2, eval_f=lambda x: 1.0,
                            eval_grad=lambda x: x.copy(),
                            eval_hess=lambda x: np.eye(2)),
        psi=ZeroPart(), x0=np.array([1.0, 0.0]))
    points = []
    step = ssn.trial_step

    def recorded(*args, **kwargs):
        trial = step(*args, **kwargs)
        points.append(trial[0])
        return trial

    monkeypatch.setattr(ssn, "trial_step", recorded)
    res = solve(flat, SolverConfig(p=0.0, m=1, Lambda0=1.0))
    assert res.status == STALLED
    assert res.iters == 0 and res.trace == []
    assert res.trials == len(points) < ssn._MAX_TRIALS
    assert np.array_equal(points[-1], flat.x0)
    assert not any(np.array_equal(x_plus, flat.x0) for x_plus in points[:-1])
    # with psi nonzero the exit never fires: the trial whose prox step
    # rounds to x0 is scored, and its null step passes both tests with
    # g = 0 (the composite false convergence that certifying the composite
    # decrease is to remove)
    points.clear()
    res = solve(dataclasses.replace(flat, psi=counted_l1(1e-3)[0]),
                SolverConfig(p=0.0, m=1, Lambda0=1.0), psi_sub0=np.array([1e-3, 0.0]))
    assert np.array_equal(points[-1], flat.x0)
    assert (res.status, res.iters, res.trials, res.g_final) == (
        CONVERGED, 1, len(points), 0.0)
    # a wrong-curvature oracle sends the j = 0 step uphill; a later trial
    # recovers
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=2,
                            eval_f=lambda x: 0.5 * float(x @ x),
                            eval_grad=lambda x: x.copy(),
                            eval_hess=lambda x: -10.0 * np.eye(2)),
        psi=ZeroPart(), x0=np.array([1.0, 0.0]))
    res2 = solve(prob, SolverConfig(p=0.0, m=1, Lambda0=1.0, grad_tol=1e-8))
    assert res2.status == CONVERGED
    assert res2.trace[0].j_k >= 1


def test_stall_exit_skips_only_trials_that_round_to_x():
    # without eval_f_diff, offset_quadratic stalls by construction: near its
    # minimizer a step's decrease falls below the rounding error of F ~ 1e3
    # (test_rounding_floor_certified_by_eval_f_diff).  Its last iteration
    # stops at trial j*, the first whose step rounds to x_k bit for bit.
    # Replaying that iteration at x_k, no trial before j* lands on x_k, and
    # every trial the exit skipped, at its larger lambda, does.
    problem = offset_quadratic(False)
    for nudge in LAMBDA0_NUDGES:
        config = SolverConfig(p=1.0, m=1, Lambda0=nudge, grad_tol=1e-13)
        res = solve(problem, config)
        assert res.status == STALLED and res.g_final > 1e-8, nudge
        j_star = res.trials - res.trace[-1].trials - 1
        x = res.x
        reg = Regularized(problem.smooth.eval_hess(x), problem.metric)
        f_grad = problem.smooth.eval_grad(x)
        lands = [np.array_equal(trial_step(x, f_grad, reg, trial_lambda(
            res.Lambda_final, res.g_final, config.p, j), problem)[0], x)
            for j in range(ssn._MAX_TRIALS)]
        assert not any(lands[:j_star]) and all(lands[j_star:]), (nudge, j_star)


def counting_diff(problem):
    """problem with eval_f_diff wrapped to record each call's x."""
    calls = []

    def diff(x, s):
        calls.append(x.copy())
        return problem.eval_f_diff(x, s)
    return dataclasses.replace(problem, eval_f_diff=diff), calls


def offset_quadratic(with_diff, offset=1e3):
    # f = offset + 0.5 x^T A x - b^T x: near the minimizer the decrease of a
    # step falls far below eps * |f| ~ 2e-13 (at the default offset)
    a = np.diag([1.0, 10.0, 100.0])
    b = np.array([1.0, -2.0, 3.0])
    smooth = SmoothOracle(
        dim=3, eval_f=lambda x: offset + 0.5 * float(x @ (a @ x)) - float(b @ x),
        eval_grad=lambda x: a @ x - b, eval_hess=lambda x: a)
    return CompositeProblem(
        smooth=smooth, psi=ZeroPart(), x0=np.full(3, 5.0),
        eval_f_diff=(lambda x, s: -float(s @ (a @ x - b + 0.5 * (a @ s))))
        if with_diff else None)


def test_rounding_floor_certified_by_eval_f_diff():
    cfg = SolverConfig(p=1.0, m=1, grad_tol=1e-13)
    plain = solve(offset_quadratic(False), cfg)
    assert plain.status == STALLED and plain.g_final > 1e-8
    prob, calls = counting_diff(offset_quadratic(True))
    res = solve(prob, cfg)
    assert res.status == CONVERGED and res.g_final <= 1e-13
    assert res.iters == plain.iters + 1
    # up to the floor both runs are the same, and eval_f_diff was only
    # consulted at the iterate where the plain run stalled
    for a, b in zip(plain.trace, res.trace):
        assert (a.j_k, a.lambda_k, a.F_val, a.g_k, a.r_k, a.trials) == \
               (b.j_k, b.lambda_k, b.F_val, b.g_k, b.r_k, b.trials)
    assert calls and all(np.array_equal(x, plain.x) for x in calls)
    assert verify(res).passed


def test_composite_run_at_the_rounding_floor_reports_a_true_gradient():
    # Huber plus 5 ||x||_1 at m = 2000, n = 400 reaches the rounding floor
    # at seeds 2, 4 and 6.  Inside the rounding band a trial's decrease is
    # the lower bound eval_f_diff(x, s) - <v, s>, so the run either
    # converges with a positive g_final that is the norm of f'(x) + v for a
    # true subgradient v of psi at x, or stops as stalled.  Deciding such
    # trials on rounded values instead lets lam grow until the prox step
    # returns x itself, with v = -f'(x) and a false g_final = 0.
    weight = 5.0
    for seed in (2, 4, 6):
        prob = l1_huber(seed, weight, m=2000, n=400, delta=0.3)
        res = solve(prob, SolverConfig(m=1, grad_tol=1e-8))
        assert res.status in (CONVERGED, STALLED), seed
        if res.status == STALLED:
            continue
        assert 0.0 < res.g_final == np.linalg.norm(prob.smooth.eval_grad(res.x) + res.psi_sub)
        support = res.x != 0.0
        np.testing.assert_allclose(res.psi_sub[support], weight * np.sign(res.x[support]),
                                   rtol=0.0, atol=1e-12)
        assert np.all(np.abs(res.psi_sub[~support]) <= weight + 1e-12), seed
        assert verify(res).passed, seed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="verify rechecks the decrease from the rounded F values; the "
                          "trace's decrease column of ROADMAP item 2 will certify it")
def test_verify_accepts_a_decrease_certified_at_the_floor():
    # README's known limitation: at f ~ 1e4 the last step's decrease is
    # certified by eval_f_diff, but F_6 - F_7 of the rounded values misses
    # its bound by 1.8e-12, beyond verify's slack (offsets 1e3, 4e3 and 1e5
    # happen to pass)
    res = solve(offset_quadratic(True, offset=1e4), SolverConfig(p=1.0, m=1, grad_tol=1e-13))
    assert res.status == CONVERGED and verify(res.trace).passed
    failed = [c for c in verify(res).checks.values() if not c.passed]
    assert not failed, failed


def test_off_floor_nmf_never_consults_eval_f_diff():
    # off the floor eval_f_diff is never called, so wrapping it to count its
    # calls leaves the run as it was, trial for trial
    base = make_nmf(1, d=40, n=20, r=4)
    prob, calls = counting_diff(base)
    cfg = SolverConfig(p=0.5, m=5, grad_tol=1e-2)
    res = solve(prob, cfg)
    assert res.status == CONVERGED
    assert calls == []
    unwrapped = solve(base, cfg)
    assert unwrapped.trials == res.trials
    np.testing.assert_array_equal(unwrapped.x, res.x)
    # having eval_f_diff at all picks the update rule: the run without it
    # follows the paper's at every row, the run with it keeps Lambda's level
    plain = solve(dataclasses.replace(base, eval_f_diff=None), cfg)
    assert plain.status == CONVERGED
    for run, keep in ((plain, False), (res, True)):
        after = [r.Lambda_k for r in run.trace[1:]] + [run.Lambda_final]
        assert after == [next_Lambda(r.Lambda_k, r.j_k, keep) for r in run.trace], keep
        assert any(r.j_k >= 1 for r in run.trace), keep  # where the rules differ


def test_non_finite_start_raises():
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=1, eval_f=lambda x: float("inf"),
                            eval_grad=lambda x: np.zeros(1),
                            eval_hess=lambda x: np.eye(1)),
        psi=ZeroPart(), x0=np.zeros(1))
    with pytest.raises(NonFiniteError):
        solve(prob, SolverConfig())


def test_non_finite_trial_raises_with_location():
    def f(x):
        return 0.09 if x[0] == 0.3 else float("nan")

    prob = CompositeProblem(
        smooth=SmoothOracle(dim=1, eval_f=f,
                            eval_grad=lambda x: 2.0 * x,
                            eval_hess=lambda x: 2.0 * np.eye(1)),
        psi=ZeroPart(), x0=np.array([0.3]))
    with pytest.raises(NonFiniteError) as exc:
        solve(prob, SolverConfig())
    assert exc.value.k == 0 and exc.value.j == 0

    # f = 0.5 x^2 with a NaN gradient away from x0 and H = -10 I: trials
    # j = 0, 1 (lam = 1, 4) step uphill and fail the decrease without
    # evaluating their gradient; j = 2 (lam = 16) passes it and raises there
    def grad(x):
        return x.copy() if x[0] == 1.0 else np.full(1, np.nan)

    prob = CompositeProblem(
        smooth=SmoothOracle(dim=1, eval_f=lambda x: 0.5 * float(x @ x), eval_grad=grad,
                            eval_hess=lambda x: -10.0 * np.eye(1)),
        psi=ZeroPart(), x0=np.array([1.0]))
    with pytest.raises(NonFiniteError, match="gradient") as exc:
        solve(prob, SolverConfig(p=0.0, m=1, Lambda0=1.0))
    assert exc.value.k == 0 and exc.value.j == 2


def test_non_finite_hessian_raises_or_fails_the_trial():
    # a dense H refreshed with a NaN at k = 1 stops the run with its location
    p = make_quadratic(1, n=5)
    refreshes = []

    def eval_hess(x):
        refreshes.append(x)
        return (p.smooth.eval_hess(x) if len(refreshes) == 1
                else np.full((5, 5), np.nan))

    prob = dataclasses.replace(p, smooth=dataclasses.replace(p.smooth, eval_hess=eval_hess))
    with pytest.raises(NonFiniteError, match="Hessian") as exc:
        solve(prob, SolverConfig(m=1, grad_tol=1e-10))
    assert exc.value.k == 1 and exc.value.j is None
    # so does a BorderedBlocks H with a NaN in any of its parts: each array
    # of the dense form (a base and diagonals per block group, and the
    # coupling), and a base or a diagonal row of the matrix-free one
    nmf = make_nmf(1, d=4, n=3, r=2)
    dense = problems.DENSE_DIM_MAX
    parts = {"blocks base": (dense, lambda h: h.blocks[0]),
             "blocks diagonals": (dense, lambda h: h.blocks[1]),
             "coupling": (dense, lambda h: h.coupling),
             "tail base": (dense, lambda h: h.tail[0]),
             "tail diagonals": (dense, lambda h: h.tail[1]),
             "matrix-free blocks base": (0, lambda h: h.blocks[0]),
             "matrix-free tail diagonals": (0, lambda h: h.tail[1])}
    for name, (dense_dim_max, part) in parts.items():
        def eval_hess(x, dense_dim_max=dense_dim_max, part=part):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(problems, "DENSE_DIM_MAX", dense_dim_max)
                h = nmf.smooth.eval_hess(x)
            assert h.is_dense == (dense_dim_max > 0)
            part(h).flat[1] = np.nan
            return h

        with pytest.raises(NonFiniteError, match="Hessian") as exc:
            solve(dataclasses.replace(nmf, smooth=dataclasses.replace(
                nmf.smooth, eval_hess=eval_hess)), SolverConfig(m=1))
        assert exc.value.k == 0, name
    # inf in the blocks' base where their diagonals hold -inf makes NaN only
    # when the refresh forms base + diag: that raises the same typed error,
    # not a RuntimeWarning, in either form
    for dense_dim_max in (dense, 0):
        def eval_hess(x, dense_dim_max=dense_dim_max):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(problems, "DENSE_DIM_MAX", dense_dim_max)
                h = nmf.smooth.eval_hess(x)
            base, diags = h.blocks
            base[0, 0], diags[:, 0] = np.inf, -np.inf
            return h

        with pytest.raises(NonFiniteError, match="Hessian") as exc:
            solve(dataclasses.replace(nmf, smooth=dataclasses.replace(
                nmf.smooth, eval_hess=eval_hess)), SolverConfig(m=1))
        assert exc.value.k == 0, dense_dim_max
    # a matrix-free H whose product is NaN fails every inner solve, MINRES
    # and FISTA alike, so each trial is rejected and the run stalls in place;
    # FISTA stops at its first sweep's curvature, one prox call per trial
    nan_hvp = dataclasses.replace(p.smooth, eval_hess=lambda x: LinearOperator(
        (5, 5), matvec=lambda v: np.full(5, np.nan), dtype=np.float64))
    l1, prox_calls = counted_l1(1.0)
    for psi, psi_sub0 in ((p.psi, None), (l1, np.sign(p.x0))):
        res = solve(dataclasses.replace(p, smooth=nan_hvp, psi=psi), SolverConfig(m=1),
                    psi_sub0=psi_sub0)
        assert (res.status, res.iters, res.trials) == (STALLED, 0, ssn._MAX_TRIALS)
    assert prox_calls[0] == ssn._MAX_TRIALS


def test_overflowed_regularizer_stalls_the_run():
    # every inner solve fails on a NaN product, so the trials quadruple lam
    # from Lambda0 = 1e300 until it overflows: the iteration then ends as
    # stalled, within _MAX_TRIALS and without running a trial at lam = inf,
    # for a zero psi (MINRES) and a nonzero one (FISTA) alike
    p = make_quadratic(1, n=5)
    nan_hvp = dataclasses.replace(p.smooth, eval_hess=lambda x: LinearOperator(
        (5, 5), matvec=lambda v: np.full(5, np.nan), dtype=np.float64))
    l1, _ = counted_l1(1.0)
    for psi, psi_sub0 in ((p.psi, None), (l1, np.sign(p.x0))):
        res = solve(dataclasses.replace(p, smooth=nan_hvp, psi=psi),
                    SolverConfig(m=1, Lambda0=1e300), psi_sub0=psi_sub0)
        assert res.status == STALLED and res.iters == 0
        assert 0 < res.trials < ssn._MAX_TRIALS


def test_dense_run_declining_cholesky_never_reaches_minres():
    # the first refresh of this nonconvex NMF model at m = 5, handed over as
    # a dense array, is indefinite: Cholesky declines H + lam I at one of its
    # trials, and LU solves that trial's system.  The run's first m
    # iterations are those of the first refresh, and no trial of the whole
    # run reaches MINRES
    p = assembled(make_nmf(3, d=8, n=6, r=2))
    first = solve(p, SolverConfig(m=5, grad_tol=1e-8, max_outer=5))
    assert first.hess_evals == 1 and "lu" in first.inner
    res = solve(p, SolverConfig(m=5, grad_tol=1e-8))
    assert res.status == CONVERGED and res.hess_evals >= 2
    assert set(res.inner) <= {"cholesky", "lu"}
    assert verify(res).passed


def test_gradient_skipped_only_on_decrease_rejections(monkeypatch):
    # the gradient at a trial point is evaluated once the trial passes the
    # decrease, and the value once its model is solved, plus one each at x0;
    # the SVM run from a far start fails its first trial on the decrease by
    # far more than rounding (helpers.svm_far_start)
    base = svm_far_start()
    counts = {}

    def counted(name, fn):
        def wrapped(x):
            counts[name] += 1
            return fn(x)
        return wrapped

    prob = dataclasses.replace(base, smooth=dataclasses.replace(
        base.smooth, eval_f=counted("f", base.smooth.eval_f),
        eval_grad=counted("grad", base.smooth.eval_grad)))
    decreases = []
    certified = ssn._certified_decrease

    def record(problem, x, s, v_plus, floor, F_val, F_plus):
        decreases.append((certified(problem, x, s, v_plus, floor, F_val, F_plus), floor))
        return decreases[-1][0]

    monkeypatch.setattr(ssn, "_certified_decrease", record)
    for nudge in LAMBDA0_NUDGES:
        counts.update(f=0, grad=0)
        decreases.clear()
        res = solve(prob, SolverConfig(m=1, Lambda0=FAR_START_LAMBDA0 * nudge, grad_tol=1e-6))
        assert res.status == CONVERGED, nudge
        passed = sum(dec >= floor for dec, floor in decreases)
        assert 0 < len(decreases) - passed, nudge  # some trials fail on the decrease
        assert res.iters < passed, nudge  # and some pass it, yet fail the pairing
        assert counts["grad"] == 1 + passed, nudge
        assert counts["f"] == 1 + len(decreases), nudge


def test_matrix_free_run_inverts_the_u_blocks_and_the_tail_diagonal_at_every_trial(monkeypatch):
    # the U blocks plus lam I are inverted at every trial's lam, in its
    # refresh's trials and, at m > 1, its lazy iterations, and the tail
    # group, the Schur complement's Jacobi preconditioner, is inverted as
    # its diagonal, 1 / (diag(blockdiag(tail)) + lam), which is positive;
    # the U group's distinct blocks are found once per refresh
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    p = make_nmf(2, d=20, n=10, r=3)
    for m in (1, 3):
        calls, found = block_inversions(monkeypatch)
        handed, trials = minres_handed(monkeypatch), trial_outcomes(monkeypatch)
        res = solve(p, SolverConfig(m=m, grad_tol=1e-6))
        assert res.status == CONVERGED, m
        assert verify(res).passed, m
        assert calls == [lam for _, lam, _ in trials], m
        assert len(calls) == res.trials > res.hess_evals, m
        assert found == [(20, 3)] * res.hess_evals, m  # the (d, r) diagonals
        assert len(handed) == len(trials), m  # one MINRES solve per trial
        for (reg, lam, _), (_, _, scale) in zip(trials, handed):
            tail_diag = np.diagonal(scipy.linalg.block_diag(*block_stack(reg.h.tail)))
            np.testing.assert_array_equal(scale, 1.0 / (tail_diag + lam))
            assert np.min(scale) > 0.0, m


def test_singular_diagonal_block_fails_its_trial(monkeypatch):
    # f = ||x||^2 / 2 with an oracle Hessian whose block -1 is singular at
    # lam = 1 (the first trial: Lambda0 = 1, p = 1, ||F'(x0)|| = 1): that
    # trial fails typed, and the next one, at 4 lam, takes the step
    h = BorderedBlocks((np.full((1, 1), -1.0), np.zeros((1, 1))), np.zeros((1, 1)),
                       (np.eye(1), np.zeros((1, 1))))
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=2, eval_f=lambda x: 0.5 * float(x @ x),
                            eval_grad=lambda x: x.copy(), eval_hess=lambda x: h),
        psi=ZeroPart(), x0=np.array([0.6, 0.8]))
    outcomes = trial_outcomes(monkeypatch)
    res = solve(prob, SolverConfig(p=1.0, m=1, max_outer=1))
    assert [(lam, outcome) for _, lam, outcome in outcomes[:2]] == [
        (1.0, "a diagonal block of H + lam I is singular"), (4.0, "solved")]
    assert res.iters == 1 and res.trials == 2
    assert verify(res).passed


def test_matvec_hessian_converges_to_same_point():
    # a matvec oracle of the same quadratic goes through MINRES, which
    # certifies less deeply (its residuals bound the reachable gradient
    # floor), so compare at a tolerance it can meet
    p = make_quadratic(4, n=10)
    a = p.instance.A
    mv_oracle = SmoothOracle(dim=10, eval_f=p.smooth.eval_f,
                             eval_grad=p.smooth.eval_grad,
                             eval_hess=lambda x: LinearOperator(
                                 (10, 10), matvec=lambda v: a @ v, dtype=np.float64))
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
                         eval_hess=lambda x: a + skew - skew.T)
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
               {"max_outer": float("inf")},
               # a bool is not a number in any field
               {"p": True}, {"m": True}, {"Lambda0": True}, {"grad_tol": False},
               {"max_outer": True},
               # nor is an integer beyond float range, however whole (or too long to print)
               {"p": 10**400}, {"m": 10**400}, {"m": 10**5000}, {"Lambda0": 10**400},
               {"grad_tol": 10**400}, {"max_outer": 10**400}, {"max_outer": -10**400},
               # nor is a string, however numeric
               {"p": "0.5"}, {"Lambda0": "1"}, {"grad_tol": "x"}, {"m": "2"}):
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
    # 0 is the only subgradient of a zero psi: -f'(x0) would certify g = 0
    # and report converged at k = 0, with ||f'(x0)|| about 9.3e3
    with pytest.raises(ValueError, match="psi_sub0"):
        solve(p, SolverConfig(), psi_sub0=-p.smooth.eval_grad(p.x0))
    assert solve(p, SolverConfig(), psi_sub0=np.zeros(5)).status == CONVERGED
    # psi = ||x||_1 started at the smooth optimum, where f'(x0) = 0 and no
    # coordinate is zero: 0 is not a subgradient there (prox_psi(x0, 1) moves
    # x0), so a missing psi_sub0 would certify g = 0 and report converged at
    # k = 0 with F = 0.883; from the subgradient sign(x0) the run reaches the
    # composite optimum x = 0, F = 0
    l1 = dataclasses.replace(p, psi=counted_l1(1.0)[0])
    x0 = quad_optimum(p)[1]
    assert np.all(x0 != 0.0)
    with pytest.raises(ValueError, match="psi_sub0"):
        solve(l1, SolverConfig(), x0=x0)
    res = solve(l1, SolverConfig(), x0=x0, psi_sub0=np.sign(x0))
    assert res.status == CONVERGED and res.iters > 0 and res.F_final < 1e-12


def test_solve_never_writes_into_the_oracles_hessian():
    # the quadratic's eval_hess returns its own instance.A at every refresh
    for m in (1, 5):
        p = make_quadratic(2)
        assert p.smooth.eval_hess(p.x0) is p.instance.A
        a_before = p.instance.A.copy()
        assert solve(p, SolverConfig(p=0.5, m=m, grad_tol=1e-10)).status == CONVERGED
        np.testing.assert_array_equal(p.instance.A, a_before)
