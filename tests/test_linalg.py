import gc
import inspect
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import LinearOperator

from gladssn import linalg, problems, ssn
from gladssn.linalg import (ActiveGram, BorderedBlocks, InnerSolve, MetricB, MetricError,
                            Regularized, SolverStallError, sym_part)
from gladssn.oracle import CompositeProblem, SeparableProx, SmoothOracle, ZeroPart
from gladssn.problems import make_nmf

from helpers import (block_inversions, block_stack, columns, eigh_calls, full_assemblies,
                     minres_handed, trial_outcomes)


def test_sym_part():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_array_equal(sym_part(a), [[1.0, 1.0], [1.0, 3.0]])
    s = sym_part(np.random.default_rng(0).standard_normal((6, 6)))
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_array_equal(sym_part(s), s)
    with pytest.raises(ValueError):
        sym_part(np.zeros((2, 3)))


def test_identity_metric_is_euclidean():
    b = MetricB()
    v = np.array([3.0, -4.0])
    assert b.is_identity
    assert b.norm(v) == 5.0
    assert b.dual_norm(v) == 5.0
    np.testing.assert_array_equal(b.apply(v), v)
    np.testing.assert_array_equal(b.solve(v), v)
    # one formula for every metric, bit for bit np.linalg.norm's here
    scales = np.logspace(-150, 150, 20)[:, None]
    for w in np.random.default_rng(0).standard_normal((20, 37)) * scales:
        assert b.norm(w) == b.dual_norm(w) == float(np.linalg.norm(w))


def test_dense_metric_norms():
    b = MetricB(np.diag([1.0, 4.0]))
    v = np.ones(2)
    # v^T B v = 5, v^T B^{-1} v = 1.25
    assert b.norm(v) == pytest.approx(np.sqrt(5.0), rel=1e-15)
    assert b.dual_norm(v) == pytest.approx(np.sqrt(1.25), rel=1e-15)
    np.testing.assert_allclose(b.solve(b.apply(v)), v, atol=1e-14)


def test_metric_duality_pairing():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    b = MetricB(a @ a.T + 5.0 * np.eye(5))
    for _ in range(20):
        g = rng.standard_normal(5)
        v = rng.standard_normal(5)
        assert abs(g @ v) <= b.dual_norm(g) * b.norm(v) * (1 + 1e-12)
    # Cauchy-Schwarz is tight at g = B v
    v = rng.standard_normal(5)
    g = b.apply(v)
    assert g @ v == pytest.approx(b.dual_norm(g) * b.norm(v), rel=1e-12)


def test_metric_rejects_bad_matrices():
    with pytest.raises(MetricError):
        MetricB(np.diag([1.0, -1.0]))
    with pytest.raises(MetricError):
        MetricB(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(MetricError):
        MetricB(np.zeros((2, 2)))
    with pytest.raises(MetricError):
        MetricB(np.zeros((2, 3)))
    # a NaN or inf entry is refused as such, before symmetry or definiteness
    for bad in (np.nan, np.inf):
        with pytest.raises(MetricError, match="not finite"):
            MetricB(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_dense_and_matvec_hessians_agree():
    # a matrix-free LinearOperator is applied like the dense array it stands for
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    mv = LinearOperator((2, 2), matvec=lambda v: a @ v, dtype=np.float64)
    v = np.array([1.0, -2.0])
    assert mv.shape == a.shape
    np.testing.assert_array_equal(mv @ v, a @ v)
    np.testing.assert_array_equal(columns(mv), a)
    assert Regularized(a, MetricB()).is_dense
    assert not Regularized(mv, MetricB()).is_dense


def active_gram(seed, mask_seed, rows=None, m=60, n=8, frac=0.5):
    rows = np.random.default_rng(seed).standard_normal((m, n)) if rows is None else rows
    mask = np.random.default_rng(mask_seed).random(rows.shape[0]) < frac
    return ActiveGram(rows, mask, shift=0.3)


def test_active_gram_matvec_equals_dense_product():
    gram = active_gram(0, 1)
    act = gram.rows[gram.mask]
    dense = act.T @ act + 0.3 * np.eye(8)
    assert gram.shape == dense.shape
    v = np.random.default_rng(2).standard_normal(8)
    np.testing.assert_allclose(gram @ v, dense @ v, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(columns(gram), dense, rtol=1e-14, atol=1e-14)
    h = gram.assemble()
    np.testing.assert_array_equal(h, h.T)
    np.testing.assert_allclose(h, dense, rtol=1e-14, atol=1e-14)
    reg = Regularized(gram, MetricB())
    assert reg.is_dense and reg.gram is gram
    np.testing.assert_array_equal(reg.h, h)  # assembled as is, no symmetric part taken


def test_active_gram_rejects_parts_that_do_not_fit():
    # the parts are checked when the Gram is built, and the mismatch named:
    # row indices in place of a mask would be read as booleans and drop
    # row 0, and a 1-entry mask would broadcast in @
    rows = np.arange(12.0).reshape(4, 3)
    for mask, got in ((np.arange(4, dtype=np.int64), r"int64 \(4,\)"),
                      (np.array([True]), r"bool \(1,\)"),
                      (np.ones((4, 1), dtype=bool), r"bool \(4, 1\)"),
                      ([True] * 4, "list")):
        with pytest.raises(ValueError, match=r"mask must be a boolean array of shape \(4,\), "
                                             r"one entry per row, got " + got):
            ActiveGram(rows, mask)
    for bad, got in ((rows.ravel(), r"\(12,\)"), (rows.tolist(), "list")):
        with pytest.raises(ValueError, match=r"rows must be a 2-d array, got shape " + got):
            ActiveGram(bad, np.ones(4, dtype=bool))
    gram = ActiveGram(rows, np.ones(4, dtype=bool))
    np.testing.assert_array_equal(gram @ np.ones(3), rows.T @ (rows @ np.ones(3)))


def step_recorder():
    """A zero psi as a SeparableProx whose prox records the step t of each call."""
    steps = []

    def prox(v, t):
        steps.append(t)
        return v
    return SeparableProx(prox, lambda x: 0.0), steps


def test_unchanged_mask_keeps_the_previous_refresh():
    # the same active set gives the same H: the new refresh keeps the
    # previous array, and starts FISTA from its step
    metric = MetricB()
    first = Regularized(active_gram(0, 1), metric)
    # at f_grad = 0 FISTA stops after one prox call, which it accepts at
    # the first composite trial's t = 1 / lam
    psi, steps = step_recorder()
    first.prox_solve(1.0, np.zeros(8), np.zeros(8), psi)
    assert steps == [1.0] and first._t == 1.0
    rhs = np.ones(8)
    step, _ = first.solve(1.0, rhs)
    again = active_gram(0, 1, rows=first.gram.rows)
    assert again.mask is not first.gram.mask
    second = Regularized(again, metric, prev=first)
    assert second.h is first.h
    second.prox_solve(1.0, np.zeros(8), np.zeros(8), psi)
    assert steps[1] == 2.0 * steps[0]  # twice the previous refresh's step
    np.testing.assert_array_equal(second.solve(1.0, rhs)[0], step)
    # another metric keeps the array too
    third = Regularized(again, MetricB(np.diag(np.linspace(1.0, 2.0, 8))), prev=first)
    assert third.h is first.h
    # the step is carried through every kind of H, and only from prev
    for h in (again, np.eye(8), LinearOperator((8, 8), matvec=lambda v: v, dtype=np.float64)):
        assert Regularized(h, metric, prev=second)._t == second._t == 2.0
    assert Regularized(again, metric)._t is None


def test_refresh_updates_a_small_churn_and_assembles_otherwise(monkeypatch):
    assembled = full_assemblies(monkeypatch)
    rows = np.random.default_rng(0).standard_normal((60, 8))
    first = Regularized(active_gram(0, 1, rows=rows), MetricB())
    mask = first.gram.mask.copy()
    mask[np.flatnonzero(mask)[:3]] = False  # 3 rows leave the active set
    mask[np.flatnonzero(~mask)[-2:]] = True  # and 2 join it
    near = ActiveGram(rows, mask, shift=0.3)
    assembled.clear()
    updated = Regularized(near, MetricB(), prev=first)
    assert assembled == []  # built from first.h
    full = near.assemble()
    np.testing.assert_array_equal(updated.h, updated.h.T)
    assert np.max(np.abs(updated.h - full)) <= 1e-14 * np.max(np.abs(full))
    np.testing.assert_array_equal(first.h, first.gram.assemble())  # prev is not written
    # rows that are not prev's array (even equal ones), another shift, or a
    # churn above half the active rows: assembled in full, bit for bit
    far = ActiveGram(rows, ~first.gram.mask, shift=0.3)
    assert np.count_nonzero(far.mask != first.gram.mask) > 0.5 * np.count_nonzero(far.mask)
    for gram in (ActiveGram(rows.copy(), mask, shift=0.3), ActiveGram(rows, mask, shift=0.2),
                 far):
        np.testing.assert_array_equal(Regularized(gram, MetricB(), prev=first).h,
                                      gram.assemble())
    # a prev without a Gram, or none at all, also assembles in full
    for prev in (Regularized(np.eye(8), MetricB()), None):
        np.testing.assert_array_equal(Regularized(near, MetricB(), prev=prev).h, full)


def test_prox_step_backtracks_on_the_model_curvature():
    # the model m(y) = <f_grad, y> + y^T diag(curv + lam) y / 2 + 0.1 ||y||_1
    # at x = 0.  Each prox call gets u = z - t grad m(z) = (1 - t d) z - t f_grad
    # for d = curv + lam, from which the test recovers the sweep's z and so
    # its gap z - y and exact curvature gap^T diag(d) gap
    curv, lam = np.array([7.0, 1.0, 0.5, 0.1]), 2.0
    d = curv + lam
    f_grad = np.array([3.0, -2.0, 1.0, -0.5])
    sweeps = []

    def prox(u, t):
        y = np.sign(u) * np.maximum(np.abs(u) - 0.1 * t, 0.0)
        sweeps.append((u, t, y))
        return y
    psi = SeparableProx(prox, lambda y: 0.1 * float(np.sum(np.abs(y))))
    reg = Regularized(np.diag(curv), MetricB())
    reg.prox_solve(lam, np.zeros(4), f_grad, psi)
    calls = [list(sweeps)]
    reg.prox_solve(lam, np.zeros(4), f_grad, psi)
    calls.append(sweeps[len(calls[0]):])
    first, second = [[t for _, t, _ in call] for call in calls]
    assert first[0] == 1.0 / lam  # the first composite trial
    assert second[0] == 2.0 * first[-1]  # twice the last accepted step
    rejected = 0
    for call in calls:
        for i, (u, t, y) in enumerate(call):
            # a sweep keeps its t or halves it for the next try from the same
            # z; the last one returned, so it was accepted
            kept = i + 1 == len(call) or call[i + 1][1] == t
            assert kept or call[i + 1][1] == 0.5 * t
            rejected += not kept
            gap = (u + t * f_grad) / (1.0 - t * d) - y
            ratio = float(gap @ (d * gap)) * t / float(gap @ gap)
            assert ratio <= 1.0 + 1e-9 if kept else ratio > 1.0 - 1e-9
    assert rejected >= 2  # from 1 / lam = 0.5 against a curvature of 9


def test_solve_regularized_spd_frozen():
    # (diag(1,3) + 1*I) s = (2,4)  =>  s = (1,1), solved by hand
    h = np.diag([1.0, 3.0])
    s, done = Regularized(h, MetricB()).solve(1.0, np.array([2.0, 4.0]))
    np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-12)
    assert done.path == "cholesky" and done.iters == done.corrections == 0


def test_solve_regularized_indefinite_frozen():
    # (diag(1,-3) + 1*I) = diag(2,-2) is indefinite: Cholesky must bail and
    # LU take over.  diag(2,-2) s = (2,2)  =>  s = (1,-1), by hand.
    h = np.diag([1.0, -3.0])
    s, done = Regularized(h, MetricB()).solve(1.0, np.array([2.0, 2.0]))
    np.testing.assert_allclose(s, [1.0, -1.0], atol=1e-9)
    assert done.path == "lu" and done.iters == done.corrections == 0


def test_solve_regularized_random_spd():
    rng = np.random.default_rng(2)
    for n in (3, 10, 40):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            h = a @ a.T
            lam = 10.0 ** rng.uniform(-4, 2)
            rhs = rng.standard_normal(n)
            s, _ = Regularized(h, MetricB()).solve(lam, rhs)
            res = np.linalg.norm(h @ s + lam * s - rhs)
            assert res <= max(1e-10, 1e-12 * np.linalg.norm(rhs)) * (1 + 1e-9)


def test_solve_regularized_with_metric():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    bmat = np.diag(rng.uniform(0.5, 2.0, size=6))
    metric = MetricB(bmat)
    rhs = rng.standard_normal(6)
    h = a @ a.T
    s, _ = Regularized(h, metric).solve(0.7, rhs)
    res = np.linalg.norm(h @ s + 0.7 * (bmat @ s) - rhs)
    assert res <= 1e-10 * (1 + 1e-9)


def test_solve_regularized_never_writes_into_h():
    # an asymmetric H, so the symmetric part differs from the caller's array
    rng = np.random.default_rng(6)
    h = rng.standard_normal((7, 7))
    h = h @ h.T + np.eye(7) + np.triu(np.ones((7, 7)), 1)
    h_before = h.copy()
    rhs = rng.standard_normal(7)
    for metric in (MetricB(), MetricB(np.diag(np.linspace(0.5, 2.0, 7)))):
        reg = Regularized(h, metric)
        for lam in (0.1, 3.0):
            reg.solve(lam, rhs)
        assert reg.h is not h
        np.testing.assert_array_equal(h, h_before)


def test_solve_regularized_dense_vs_matvec_route():
    # both routes stop at the forcing rule ||rho|| <= THETA lam ||s||: the
    # dense one's direct solve meets it to rounding, and the matrix-free
    # one's step lies within ||rho|| / lambda_min(H + lam I) of the dense one
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8))
    spd = a @ a.T + np.eye(8)
    rhs = rng.standard_normal(8)
    lam = 0.3
    s_dense, dense_done = Regularized(spd, MetricB()).solve(lam, rhs)
    matvec = LinearOperator((8, 8), matvec=lambda v: spd @ v, dtype=np.float64)
    s_mv, mv_done = Regularized(matvec, MetricB()).solve(lam, rhs)
    assert (dense_done.path, mv_done.path) == ("cholesky", "minres") and mv_done.iters > 0
    m = spd + lam * np.eye(8)
    assert np.linalg.norm(m @ s_dense - rhs) <= max(1e-10, 1e-12 * np.linalg.norm(rhs))
    rho = np.linalg.norm(m @ s_mv - rhs)
    assert rho <= linalg.THETA * lam * np.linalg.norm(s_mv)
    assert np.linalg.norm(s_mv - s_dense) <= 1.01 * rho / np.linalg.eigvalsh(m)[0]


def matrix_free_bordered(seed, k=6, b=3, j=4, c=3):
    """A matrix-free BorderedBlocks with indefinite blocks, and its dense array.

    The blocks share a base with eigenvalues -6, -3.1 and 4.4, and each
    adds one of three diagonals with entries in [-0.4, 0.9], so blocks
    repeat and (by Weyl's inequality) every eigenvalue stays in [-6.4, -5.1],
    [-3.5, -2.2] or [4, 5.3], away from -lam at every lam solved here.  The
    tail blocks are a positive semidefinite Gram plus nonnegative
    diagonals, and the coupling is random.
    """
    rng = np.random.default_rng(seed)
    base = _rotated([-6.0, -3.1, 4.4], seed)
    base = 0.5 * (base + base.T)
    diags = rng.choice([-0.4, 0.0, 0.9], size=(3, b))[rng.integers(0, 3, size=k)]
    g = rng.standard_normal((c, c))
    tail = (0.5 * (g @ g.T + (g @ g.T).T), rng.uniform(0.0, 1.0, size=(j, c)))
    coupling = rng.standard_normal((k * b, j * c))
    h = BorderedBlocks((base, diags), (lambda p: coupling @ p, lambda q: coupling.T @ q), tail)
    assert not h.is_dense
    dense = scipy.linalg.block_diag(*block_stack(h.blocks), *block_stack(tail))
    dense[:k * b, k * b:] = coupling
    dense[k * b:, :k * b] = coupling.T
    return h, dense


def test_preconditioned_minres_meets_the_same_target(monkeypatch):
    # H + lam B is indefinite.  With the identity metric MINRES runs on the
    # Schur complement, preconditioned by the inverse of the tail's diagonal
    # plus lam, which is positive and keeps it valid; with another metric it runs
    # on H + lam B unpreconditioned.  Either way the solve meets the same
    # forcing rule ||rho||_* <= THETA lam ||s||_B on the whole system
    h, dense = matrix_free_bordered(8)
    n = dense.shape[0]
    np.testing.assert_allclose(h.assemble(), dense, rtol=1e-15, atol=1e-15)
    handed = minres_handed(monkeypatch)
    rng = np.random.default_rng(9)
    c = rng.standard_normal((n, n))
    spd = c @ c.T / (4 * n) + 0.5 * np.eye(n)
    for metric, bmat in ((MetricB(), np.eye(n)), (MetricB(spd), spd)):
        reg = Regularized(h, metric)
        assert reg.h is h and not reg.is_dense and reg.is_finite
        handed.clear()
        for lam in (0.5, 2.0):
            assert np.min(np.linalg.eigvalsh(dense + lam * bmat)) < 0.0
            rhs = rng.standard_normal(n)
            s, done = reg.solve(lam, rhs)
            assert done.path == "minres"
            rho = dense @ s + lam * (bmat @ s) - rhs
            assert metric.dual_norm(rho) <= linalg.THETA * lam * metric.norm(s)
            assert metric.norm(s) > 0.0
        assert handed and {scale is not None for *_, scale in handed} == {metric.is_identity}


def test_schur_minres_step_solves_the_block_rows_to_rounding():
    # the matrix-free NMF Hessian: MINRES runs over the V variables only, and
    # s_U = A^{-1} (r_U - C s_V) is back-substituted with the exact A^{-1},
    # so the U rows A s_U + C s_V = r_U hold to rounding while the whole
    # residual, which the forcing rule reads, lies in the V rows
    p = make_nmf(2, d=20, n=10, r=3)
    x = p.x0 + 0.1 * np.random.default_rng(16).standard_normal(p.dim)
    x[:60:4] = -0.3  # negative entries in U and V: both masks active
    x[60::3] = -0.2
    dense = p.smooth.eval_hess(x).assemble()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "DENSE_DIM_MAX", 0)
        h = p.smooth.eval_hess(x)
    assert not h.is_dense
    rhs = -p.smooth.eval_grad(x)
    reg = Regularized(h, MetricB())
    for lam in (0.05, 1.0, 20.0):
        s, _ = reg.solve(lam, rhs)
        a_rows = (dense @ s + lam * s - rhs)[:60]
        rho = reg.apply(lam, s) - rhs
        assert np.linalg.norm(a_rows) <= 1e-13 * (np.linalg.norm(rhs) + lam * np.linalg.norm(s)
                                                  + np.linalg.norm(dense @ s))
        assert 0.0 < np.linalg.norm(rho) <= linalg.THETA * lam * np.linalg.norm(s)
        np.testing.assert_allclose(rho, dense @ s + lam * s - rhs,
                                   atol=1e-12 * np.linalg.norm(rhs))


def test_both_block_groups_are_inverted_at_every_solves_lam(monkeypatch):
    # a Regularized finds the diagonal blocks' distinct blocks as it is
    # built, before any solve, and inverts them plus lam I at every solve's
    # lam; the tail group, the Schur complement's Jacobi preconditioner, is
    # inverted as its diagonal, 1 / (diag(blockdiag(tail)) + lam), which is
    # positive.  Every step meets the forcing rule, on the matrix-free NMF
    # Hessian and on an indefinite H
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    nmf = make_nmf(2, d=20, n=10, r=3)
    calls, found = block_inversions(monkeypatch)
    handed = minres_handed(monkeypatch)
    rng = np.random.default_rng(10)
    for h, lam0 in ((nmf.smooth.eval_hess(nmf.x0), 1.0), (matrix_free_bordered(11)[0], 0.5)):
        calls.clear()
        found.clear()
        reg = Regularized(h, MetricB())
        assert found == [h.blocks[1].shape] and calls == []
        tail_diag = np.diagonal(scipy.linalg.block_diag(*block_stack(h.tail)))
        lams = (lam0, 16.0 * lam0, lam0 / 16.0)
        for lam in lams:
            handed.clear()
            rhs = rng.standard_normal(h.shape[0])
            s, _ = reg.solve(lam, rhs)
            rho = np.linalg.norm(reg.apply(lam, s) - rhs)
            assert 0.0 < rho <= linalg.THETA * lam * np.linalg.norm(s)
            (_, _, scale), = handed
            np.testing.assert_array_equal(scale, 1.0 / (tail_diag + lam))
            assert np.min(scale) > 0.0
        assert calls == list(lams)
        assert found == [h.blocks[1].shape]


def test_a_solve_does_not_depend_on_an_earlier_one(monkeypatch):
    # two Regularized on one matrix-free NMF Hessian, one of which first
    # solves at 16 lam, return the same step at lam bit for bit: nothing
    # that depends on lam is kept between solves, and both take the same
    # MINRES iterations and corrections
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    p = make_nmf(2, d=20, n=10, r=3)
    h = p.smooth.eval_hess(p.x0)
    assert not h.is_dense
    rhs = -p.smooth.eval_grad(p.x0)
    fresh, used = Regularized(h, MetricB()), Regularized(h, MetricB())
    used.solve(16.0, rhs)
    (s_used, used_done), (s_fresh, fresh_done) = used.solve(1.0, rhs), fresh.solve(1.0, rhs)
    np.testing.assert_array_equal(s_used, s_fresh)
    assert used_done == fresh_done and used_done.path == "minres"


def test_singular_or_overflowing_block_inverse_stalls():
    # a diagonal block plus lam I that is singular, or whose inverse is not
    # finite, fails the solve typed at any size, and a larger lam solves it
    tail = (np.eye(1), np.zeros((1, 1)))
    products = (lambda p: np.zeros(1), lambda q: np.zeros(1))
    for block, lam in ((-1.0, 1.0), (0.0, 5e-324)):
        blocks = (np.full((1, 1), block), np.zeros((1, 1)))
        for form in (BorderedBlocks(blocks, np.zeros((1, 1)), tail),
                     BorderedBlocks(blocks, products, tail)):
            reg = Regularized(form, MetricB())
            with pytest.raises(SolverStallError, match="diagonal block of H") as exc:
                reg.solve(lam, np.ones(2))
            assert exc.value.best_residual == np.inf
            s, _ = reg.solve(4.0, np.ones(2))
            np.testing.assert_allclose(reg.apply(4.0, s), np.ones(2), rtol=0.1)


def indefinite_tail(tail_base):
    """A matrix-free BorderedBlocks with U blocks 3 I_2 (three of them), two
    tail blocks tail_base and a random coupling, and its dense array."""
    coupling = np.random.default_rng(17).standard_normal((6, 4))
    h = BorderedBlocks((3.0 * np.eye(2), np.zeros((3, 2))),
                       (lambda p: coupling @ p, lambda q: coupling.T @ q),
                       (tail_base, np.zeros((2, 2))))
    dense = scipy.linalg.block_diag(3.0 * np.eye(6), tail_base, tail_base)
    dense[:6, 6:] = coupling
    dense[6:, :6] = coupling.T
    return h, dense


def test_a_tail_diagonal_that_is_not_positive_fails_its_trial(monkeypatch):
    # the Schur complement's Jacobi preconditioner needs diag(tail) + lam > 0:
    # with the tail base diag(-5, 1), lam = 1 fails typed and lam = 10
    # solves, and a tail block that is indefinite at lam (eigenvalues 3 and
    # -1, plus 0.5) with a positive diagonal solves too
    rng = np.random.default_rng(18)
    negative = np.diag([-5.0, 1.0])
    with pytest.raises(SolverStallError, match="tail diagonal of H") as exc:
        Regularized(indefinite_tail(negative)[0], MetricB()).solve(1.0, rng.standard_normal(10))
    assert exc.value.best_residual == np.inf
    for base, lam in ((negative, 10.0), (np.array([[1.0, 2.0], [2.0, 1.0]]), 0.5)):
        h, dense = indefinite_tail(base)
        rhs = rng.standard_normal(10)
        s, _ = Regularized(h, MetricB()).solve(lam, rhs)
        assert np.linalg.norm(dense @ s + lam * s - rhs) <= linalg.THETA * lam * np.linalg.norm(s)
    # so ssn.solve fails the trials at lam = 1 and 4 typed, and steps at 16
    h, _ = indefinite_tail(negative)
    prob = CompositeProblem(
        smooth=SmoothOracle(dim=10, eval_f=lambda x: 0.5 * float(x @ x),
                            eval_grad=lambda x: x.copy(), eval_hess=lambda x: h),
        psi=ZeroPart(), x0=rng.standard_normal(10))
    outcomes = trial_outcomes(monkeypatch)
    res = ssn.solve(prob, ssn.SolverConfig(p=0.0, m=1, Lambda0=1.0, max_outer=1))
    stalled = "the tail diagonal of H + lam I is not positive"
    assert [(lam, outcome) for _, lam, outcome in outcomes[:3]] == [
        (1.0, stalled), (4.0, stalled), (16.0, "solved")]
    assert res.iters == 1


def test_bordered_blocks_forms_do_not_mix():
    # both forms, a coupling array and a pair of products, take (base, diags)
    # pairs for both block groups, and neither takes a stack of blocks or a
    # dense tail; the coupling is an array or a pair of products, nothing else
    stack, coupling, group = np.ones((2, 1, 1)), np.zeros((2, 2)), (np.ones((1, 1)), np.ones((2, 1)))
    products = (lambda p: coupling @ p, lambda q: coupling.T @ q)
    for form in (coupling, products):
        h = BorderedBlocks(group, form, group)
        assert h.shape == (4, 4) and h.is_dense == (form is coupling)
        with pytest.raises(ValueError, match="tail group is a"):
            BorderedBlocks(group, form, np.eye(2))
        with pytest.raises(ValueError, match="blocks group is a"):
            BorderedBlocks(stack, form, group)
    with pytest.raises(ValueError, match="coupling is an array or"):
        BorderedBlocks(group, scipy.sparse.linalg.aslinearoperator(coupling), group)


def test_bordered_blocks_rejects_parts_that_do_not_fit():
    # each form checks its parts when it is built and names the mismatch,
    # rather than failing inside a solve
    blocks, tail = (np.zeros((2, 2)), np.zeros((2, 2))), (np.eye(1), np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"block groups of 4 and 3 rows take a coupling of "
                                         r"shape \(4, 3\), got \(5, 3\)"):
        BorderedBlocks(blocks, np.zeros((5, 3)), tail)
    with pytest.raises(ValueError, match=r"block groups of 4 and 3 rows take a coupling of "
                                         r"shape \(4, 3\), got \(4, 2\)"):
        BorderedBlocks(blocks, np.zeros((4, 2)), tail)
    products = (lambda p: p, lambda q: q)
    group = (np.eye(2), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"blocks base must be square, got shape \(2, 3\)"):
        BorderedBlocks((np.zeros((2, 3)), np.zeros((3, 2))), products, group)
    with pytest.raises(ValueError, match="tail base must be symmetric"):
        BorderedBlocks(group, products, (np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros((3, 2))))
    with pytest.raises(ValueError, match=r"tail diagonals must be rows of width 2, "
                                         r"got shape \(3, 3\)"):
        BorderedBlocks(group, products, (np.eye(2), np.zeros((3, 3))))
    with pytest.raises(ValueError, match="blocks diagonals must be rows of width 2"):
        BorderedBlocks((np.eye(2), np.zeros(2)), products, group)


def test_integer_parts_solve_as_their_float_form():
    # an integer part is taken as float64 when a form is built: a refresh
    # once added its float shift into it in place and failed with numpy's
    # casting error.  The integer form's step matches the float form's bit
    # for bit, and a float64 part is kept as the array given
    rows, mask = np.arange(12).reshape(4, 3), np.array([True, False, True, True])
    blocks = (np.eye(2, dtype=int), np.array([[1, 2], [3, 4], [1, 2]]))
    tail = (2 * np.eye(2, dtype=int), np.array([[1, 1]]))
    coupling = np.arange(12).reshape(6, 2) % 3
    products = (lambda p: coupling @ p, lambda q: coupling.T @ q)
    parts = (rows, *blocks, *tail, coupling)
    as_float = {id(a): a.astype(np.float64) for a in parts}

    def forms(cast):
        group, rest = tuple(map(cast, blocks)), tuple(map(cast, tail))
        return (ActiveGram(cast(rows), mask, shift=0.5),
                BorderedBlocks(group, cast(coupling), rest), BorderedBlocks(group, products, rest))

    real = forms(lambda a: as_float[id(a)])
    for whole, h in zip(forms(lambda a: a), real):
        rhs = np.arange(h.shape[0]) - 1.5
        step, _ = Regularized(whole, MetricB()).solve(1.0, rhs)
        np.testing.assert_array_equal(step, Regularized(h, MetricB()).solve(1.0, rhs)[0])
    gram, dense, _ = real
    for kept, given in zip((gram.rows, *dense.blocks, *dense.tail, dense.coupling), parts):
        assert kept is as_float[id(given)]


def _factored(monkeypatch) -> list:
    """A copy of every matrix handed to linalg._direct_solver from here on."""
    matrices = []
    direct_solver = linalg._direct_solver

    def seen_direct(m, name):
        matrices.append(m.copy())
        return direct_solver(m, name)

    monkeypatch.setattr(linalg, "_direct_solver", seen_direct)
    return matrices


def test_cholesky_pivot_test_declines_a_tiny_pivot(monkeypatch):
    # H + lam I = diag(1.5, 1.1e-16): LAPACK factors it, but the last pivot
    # squared lies below 1e-14 of the mean diagonal, so the Cholesky path
    # declines; LU's pivot test declines it too, so the trial fails typed,
    # and a 4x larger lam (the solver's next trial) factors by Cholesky
    h_mat, lam, rhs = np.diag([1.0, -0.5 + 1e-16]), 0.5, np.array([3.0, 0.0])
    shifted = h_mat + lam * np.eye(2)
    assert np.all(np.diag(np.linalg.cholesky(shifted)) > 0.0)
    assert linalg._cholesky_solver(shifted) is None
    assert linalg._lu_solver(shifted) is None
    calls = eigh_calls(monkeypatch)
    reg = Regularized(h_mat, MetricB())
    # the direct solve's message, raised once LU has declined H + lam I too
    with pytest.raises(SolverStallError, match="H \\+ 5.000e-01 B is singular") as exc:
        reg.solve(lam, rhs)
    assert exc.value.best_residual == np.inf
    s, done = reg.solve(4.0 * lam, rhs)
    np.testing.assert_allclose(s, [1.0, 0.0], rtol=1e-15, atol=1e-15)
    assert (done.path, done.iters, done.corrections) == ("cholesky", 0, 0)
    assert calls == {"eigh": 0}


def nmf_bordered_hessian(dense_dim_max=problems.DENSE_DIM_MAX):
    """NMF's BorderedBlocks Hessian at an indefinite point, and its dense array.

    The Hessian is dense, or matrix-free for dense_dim_max 0; the array is
    always the dense form's.
    """
    p = make_nmf(4, d=9, n=5, r=3)
    inst = p.instance
    x = p.x0 + 0.1 * np.random.default_rng(12).standard_normal(p.dim)
    x[:inst.d * inst.r:4] = -0.3  # negative entries in U and V: both masks active
    x[inst.d * inst.r::3] = -0.2
    dense = p.smooth.eval_hess(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "DENSE_DIM_MAX", dense_dim_max)
        h = p.smooth.eval_hess(x)
    assert isinstance(h, BorderedBlocks) and dense.is_dense
    return h, dense.assemble()


def test_bordered_blocks_matvec_equals_the_assembled_product():
    # both forms apply H @ v by one rule: each block group by one gemm on
    # the (k, b) view Q of its rows, Q base + diags * Q, and the coupling by
    # its two products.  At the same point, the dense form's product is bit
    # for bit the matrix-free form's whose pair is the coupling array's own
    # @ and .T @, and it matches the assembled array's product
    h, dense = nmf_bordered_hessian()
    assert h.shape == dense.shape == (42, 42)
    stack, tail = block_stack(h.blocks), scipy.linalg.block_diag(*block_stack(h.tail))
    np.testing.assert_array_equal(dense, dense.T)
    np.testing.assert_array_equal(dense[:27, 27:], h.coupling)
    np.testing.assert_array_equal(dense[27:, 27:], tail)
    np.testing.assert_array_equal(dense[3:6, 3:6], stack[1])
    assert not np.any(dense[:3, 3:27])  # off the diagonal blocks
    c = h.coupling
    pair = BorderedBlocks(h.blocks, (lambda p: c @ p, lambda q: c.T @ q), h.tail)
    assert not pair.is_dense
    (base, diags), (tail_base, tail_diags) = h.blocks, h.tail
    for v in np.random.default_rng(13).standard_normal((5, 42)):
        np.testing.assert_allclose(h @ v, dense @ v, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(h @ v, pair @ v)
        head, rest = v[:27].reshape(9, 3), v[27:].reshape(5, 3)
        np.testing.assert_array_equal(h @ v, np.concatenate([
            (head @ base + diags * head).ravel() + c @ rest.ravel(),
            c.T @ head.ravel() + (rest @ tail_base + tail_diags * rest).ravel()]))


def test_dense_bordered_blocks_keeps_nothing_from_use():
    # a BorderedBlocks is plain data, its two (base, diags) pairs, its
    # coupling and its sizes: H @ v and solves (Cholesky and LU of the Schur
    # complement) read the dense form and set nothing on it
    h, dense = nmf_bordered_hessian()
    before = dict(vars(h))
    assert before.keys() == {"split", "blocks", "coupling", "tail", "shape"}
    arrays = [a.copy() for a in h.arrays]
    lam_min = np.linalg.eigvalsh(dense)[0]
    h @ np.ones(42)
    reg = Regularized(h, MetricB())
    for lam in (2.0 - lam_min, -0.5 * lam_min):
        reg.solve(lam, -np.ones(42))
    assert vars(h).keys() == before.keys()
    assert all(vars(h)[name] is part for name, part in before.items())
    for got, want in zip(h.arrays, arrays, strict=True):
        np.testing.assert_array_equal(got, want)


def test_dense_schur_complement_is_built_from_the_pairs(monkeypatch):
    # the dense elimination factors S = T + lam I - C^T A^{-1} C, T the
    # block-diagonal tail array, which its refresh builds once from the
    # tail's pair: each solve subtracts C^T A^{-1} C from T, then adds lam
    # onto the diagonal.  S is bit for bit (T - C^T A^{-1} C) + lam I, at a
    # lam Cholesky accepts and at one it declines
    h, dense = nmf_bordered_hessian()
    lam_min = np.linalg.eigvalsh(dense)[0]
    factored = _factored(monkeypatch)
    c = h.coupling
    tail = scipy.linalg.block_diag(*block_stack(h.tail))
    rhs = np.random.default_rng(16).standard_normal(42)
    for lam, declined in ((2.0 - lam_min, False), (-0.5 * lam_min, True)):
        factored.clear()
        reg = Regularized(h, MetricB())
        _, done = reg.solve(lam, rhs)
        distinct, which = reg._blocks
        inv = linalg._inverse(h.blocks[0], distinct, lam)[which]
        inv_c = np.matmul(inv, c.reshape(9, 3, 15)).reshape(27, 15)
        want = tail - c.T @ inv_c
        want.flat[::16] += lam
        assert len(factored) == 1 and done.path == ("lu" if declined else "cholesky"), lam
        np.testing.assert_array_equal(factored[0], want)


def test_dense_tail_array_is_built_once_per_refresh(monkeypatch):
    # T depends on no lam: a dense refresh scatters the tail's blocks once,
    # and its solves at three lam values (Cholesky, LU, Cholesky) each start
    # from T, with steps bit for bit those of a fresh refresh
    h, dense = nmf_bordered_hessian()
    lam_min = np.linalg.eigvalsh(dense)[0]
    scattered = []
    block_diagonal = linalg._block_diagonal

    def counted(out, blocks):
        scattered.append(blocks.shape)
        return block_diagonal(out, blocks)

    rhs = np.random.default_rng(18).standard_normal(42)
    lams = (2.0 - lam_min, -0.5 * lam_min, 5.0)
    fresh = [Regularized(h, MetricB()).solve(lam, rhs)[0] for lam in lams]
    monkeypatch.setattr(linalg, "_block_diagonal", counted)
    factored = _factored(monkeypatch)
    reg = Regularized(h, MetricB())
    paths = []
    for lam, want in zip(lams, fresh, strict=True):
        s, done = reg.solve(lam, rhs)
        np.testing.assert_array_equal(s, want)
        paths.append(done.path)
    assert scattered == [(5, 3, 3)] and paths == ["cholesky", "lu", "cholesky"]
    assert [m.shape for m in factored] == [(15, 15)] * 3


def test_a_bordered_refresh_keeps_the_distinct_diagonals_and_a_dense_tail_only():
    # on both forms a refresh keeps the distinct rows of the blocks' diags
    # and each block's index among them, which rebuild every block from the
    # shared base; only the dense form keeps its tail, as blockdiag(tail)
    for h in (nmf_bordered_hessian()[0], nmf_bordered_hessian(0)[0]):
        reg = Regularized(h, MetricB())
        distinct, which = reg._blocks
        assert len(distinct) < len(h.blocks[1])
        np.testing.assert_array_equal(distinct[which], h.blocks[1])
        if h.is_dense:
            np.testing.assert_array_equal(reg._tail, scipy.linalg.block_diag(*block_stack(h.tail)))
        else:
            assert not hasattr(reg, "_tail")


def every_form():
    """({label: (H, B)}, lam) over every form of H and route of Regularized.

    The dense array, an ActiveGram, a LinearOperator, both BorderedBlocks
    forms, and the dense one under another metric, which Regularized
    assembles; H + lam B is positive definite for each.
    """
    h, dense = nmf_bordered_hessian()
    metric = MetricB(np.diag(np.linspace(1.0, 2.0, 42)))
    forms = {
        "ndarray": (dense, MetricB()),
        "ActiveGram": (active_gram(3, 4), MetricB()),
        "LinearOperator": (scipy.sparse.linalg.aslinearoperator(dense), MetricB()),
        "dense BorderedBlocks": (h, MetricB()),
        "matrix-free BorderedBlocks": (nmf_bordered_hessian(0)[0], MetricB()),
        "dense BorderedBlocks, other metric": (h, metric),
    }
    return forms, 2.0 - np.linalg.eigvalsh(dense)[0]


def test_a_refresh_keeps_no_function_or_method():
    # a refresh keeps data and picks its route from it on each solve: no
    # attribute of any form's Regularized, before or after a solve, is a
    # function or a method, so none can be a bound method referring back to
    # the refresh itself
    forms, lam = every_form()
    rng = np.random.default_rng(19)
    for label, (form, b) in forms.items():
        reg = Regularized(form, b)
        for _ in range(2):
            routines = [name for name, value in vars(reg).items() if inspect.isroutine(value)]
            assert routines == [], label
            reg.solve(lam, rng.standard_normal(form.shape[0]))


def test_a_solved_refresh_is_freed_without_the_cyclic_collector():
    # a refresh keeps no function or method, so no form's Regularized refers
    # to itself: once solved and dropped it is freed by reference counting
    # alone, and a run holds one refresh at a time
    forms, lam = every_form()
    rng = np.random.default_rng(19)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for label, (form, b) in forms.items():
            reg = Regularized(form, b)
            reg.solve(lam, rng.standard_normal(form.shape[0]))
            ref = weakref.ref(reg)
            del reg
            assert ref() is None, label
    finally:
        if enabled:
            gc.enable()


def test_dense_zero_psi_trial_applies_h_once(monkeypatch):
    # 0 is the only subgradient of a zero psi, so a zero-psi trial returns
    # v = 0 exactly on every route, with a step that meets the forcing rule
    # ||f_grad + (H + lam B) s||_* <= THETA lam ||s||_B.  Every route's last
    # product is its solve's residual check of the step it returns, and a
    # dense route applies H only there, once per trial.  The trial calls no
    # oracle of f
    forms, lam = every_form()
    applied = []
    apply = Regularized.apply

    def counted(reg, lam, v):
        applied.append(v)
        return apply(reg, lam, v)

    monkeypatch.setattr(Regularized, "apply", counted)
    rng = np.random.default_rng(20)
    for label, (form, b) in forms.items():
        n = form.shape[0]
        prob = CompositeProblem(
            smooth=SmoothOracle(dim=n, eval_f=None, eval_grad=None, eval_hess=None),
            psi=ZeroPart(), metric=b)
        x, f_grad = rng.standard_normal((2, n))
        reg = Regularized(form, b)
        for mu in (lam, 4.0 * lam):
            applied.clear()
            x_plus, v, _ = ssn.trial_step(x, f_grad, reg, mu, prob)
            s = applied[-1]
            np.testing.assert_array_equal(x_plus, x + s)
            assert v.shape == (n,) and not v.any(), (label, mu)
            rho = b.dual_norm(f_grad + apply(reg, mu, s))
            assert rho <= linalg.THETA * mu * b.norm(s), (label, mu)
            assert len(applied) == 1 or not reg.is_dense, (label, mu)


def test_a_solve_leaves_its_refresh_unchanged():
    # solve and apply set nothing on a refresh of any form: afterwards each
    # of its attributes is the very object it was, so no step depends on an
    # earlier solve or product
    forms, lam = every_form()
    rng = np.random.default_rng(21)
    for label, (form, b) in forms.items():
        reg = Regularized(form, b)
        before = dict(vars(reg))
        v = rng.standard_normal(form.shape[0])
        reg.solve(lam, v)
        reg.apply(lam, v)
        assert vars(reg).keys() == before.keys(), label
        assert all(vars(reg)[name] is part for name, part in before.items()), label


def test_every_record_names_the_routine_that_ran(monkeypatch):
    # the one test that spies on the routines themselves, so that the
    # record every other test reads is checked against them.  On every
    # form, at a lam where H + lam B is positive definite and at one where
    # the dense forms' is indefinite, a solve's path is the routine that
    # returned its steps: Cholesky, else LU, else MINRES.  Its iters are the
    # iterations scipy's MINRES reports through its callback, and its
    # corrections the calls of that routine after the first.  A MINRES solve
    # builds its solve once, in linalg._minres_solver, whose arguments the
    # other tests read (helpers.minres_handed): scipy is handed an operator
    # that applies its matvec and an M that applies diag(scale), or None
    # when scale is None.  A prox solve's iters are its prox calls.  Every
    # ratio lies in [0, 1]
    forms, lam = every_form()
    indefinite = -0.5 * np.linalg.eigvalsh(forms["ndarray"][0])[0]
    seen = dict.fromkeys(("cholesky", "lu", "minres", "factory", "calls", "iters"), 0)
    minres, factory, handed = scipy.sparse.linalg.minres, linalg._minres_solver, []

    def spy(name, solver):
        def spied(m):
            once = solver(m)
            if once is None:
                return None
            seen[name] += 1

            def counted(r):
                seen["calls"] += 1
                return once(r)
            return counted
        return spied

    def seen_factory(matvec, n, ticks, scale=None):
        seen["factory"] += 1
        handed.append((matvec, scale))
        return factory(matvec, n, ticks, scale)

    def seen_minres(op, rhs, *, M, callback, **kwargs):
        matvec, scale = handed[-1]
        basis = np.eye(op.shape[0])
        np.testing.assert_array_equal(columns(op), np.column_stack([matvec(e) for e in basis]))
        if scale is None:
            assert M is None
        else:
            np.testing.assert_array_equal(columns(M), np.diag(scale))

        def counted(xk):
            seen["iters"] += 1
            callback(xk)
        seen["minres"] += 1
        seen["calls"] += 1
        return minres(op, rhs, M=M, callback=counted, **kwargs)

    monkeypatch.setattr(linalg, "_cholesky_solver", spy("cholesky", linalg._cholesky_solver))
    monkeypatch.setattr(linalg, "_lu_solver", spy("lu", linalg._lu_solver))
    monkeypatch.setattr(linalg, "_minres_solver", seen_factory)
    monkeypatch.setattr(scipy.sparse.linalg, "minres", seen_minres)
    psi, steps = step_recorder()
    rng = np.random.default_rng(23)
    paths = set()
    for label, (form, b) in forms.items():
        reg = Regularized(form, b)
        for mu in (lam, indefinite):
            before = dict(seen)
            _, done = reg.solve(mu, rng.standard_normal(form.shape[0]))
            ran = {name: seen[name] - before[name] for name in seen}
            assert ran["cholesky"] + ran["lu"] + (ran["minres"] > 0) == 1, (label, mu)
            path = next(name for name in ("cholesky", "lu", "minres") if ran[name])
            assert ran["factory"] == (path == "minres"), (label, mu)
            assert (done.path, done.iters, done.corrections) == (
                path, ran["iters"], ran["calls"] - 1), (label, mu)
            assert 0.0 <= done.ratio <= 1.0, (label, mu)
            paths.add(done.path)
        steps.clear()
        _, _, done = reg.prox_solve(lam, np.zeros(form.shape[0]),
                                    rng.standard_normal(form.shape[0]), psi)
        assert (done.path, done.iters, done.corrections) == ("prox", len(steps), 0), label
        assert 0.0 <= done.ratio <= 1.0, label
    assert paths == {"cholesky", "lu", "minres"}
    assert {scale is None for _, scale in handed} == {True, False}


def test_block_diagonal_adds_onto_its_target():
    # one helper adds a stack of blocks along a diagonal, onto any target:
    # onto zeros for assemble() and for the tail array T that a dense
    # refresh builds for its Schur complements
    blocks = np.arange(12.0).reshape(3, 2, 2) - 5.5
    out = np.linspace(-1.0, 2.0, 64).reshape(8, 8)
    want = out.copy()
    want[2:, 2:] += scipy.linalg.block_diag(*blocks)
    linalg._block_diagonal(out[2:, 2:], blocks)
    np.testing.assert_array_equal(out, want)


def test_matrix_free_products_match_the_assembled_array(monkeypatch):
    # at an indefinite NMF point, the matrix-free H @ v (each block group by
    # one gemm, the coupling by its two products) and the Schur complement
    # product S p that MINRES applies match the dense form's array
    h, dense = nmf_bordered_hessian(dense_dim_max=0)
    assert not h.is_dense and np.linalg.eigvalsh(dense)[0] < -0.5
    rng = np.random.default_rng(17)
    for v in rng.standard_normal((5, 42)):
        want = dense @ v
        assert np.linalg.norm(h @ v - want) <= 1e-12 * np.linalg.norm(want)
    np.testing.assert_allclose(h.assemble(), dense, rtol=1e-15, atol=1e-14)
    handed = minres_handed(monkeypatch)
    a, c = dense[:27, :27], dense[:27, 27:]
    for lam in (0.1, 3.0):
        Regularized(h, MetricB()).solve(lam, rng.standard_normal(42))
        schur = dense[27:, 27:] + lam * np.eye(15) - c.T @ np.linalg.solve(a + lam * np.eye(27), c)
        for p in rng.standard_normal((3, 15)):
            want = schur @ p
            assert np.linalg.norm(handed[-1][0](p) - want) <= 1e-12 * np.linalg.norm(want), lam


def test_bordered_blocks_solve_matches_a_dense_solve(monkeypatch):
    # an identity metric eliminates the blocks: Cholesky of the Schur
    # complement for lam above -lambda_min(H), LU below it, never eigh;
    # a non-identity metric assembles H and takes the dense array's path
    h, dense = nmf_bordered_hessian()
    lam_min = np.linalg.eigvalsh(dense)[0]
    assert lam_min < -0.5
    factored = _factored(monkeypatch)
    calls = eigh_calls(monkeypatch)
    rhs = np.random.default_rng(14).standard_normal(42)
    reg = Regularized(h, MetricB())
    assert reg.h is h and reg.is_dense and reg.is_finite
    for lam, indefinite in ((2.0 - lam_min, False), (10.0, False), (0.1, True),
                            (-0.5 * lam_min, True)):
        factored.clear()
        s, done = reg.solve(lam, rhs)
        assert [m.shape for m in factored] == [(15, 15)], lam
        assert done.path == ("lu" if indefinite else "cholesky") and done.iters == 0, lam
        want = np.linalg.solve(dense + lam * np.eye(42), rhs)
        np.testing.assert_allclose(s, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    assert calls == {"eigh": 0}
    bmat = np.diag(np.linspace(0.5, 2.0, 42))
    reg = Regularized(h, MetricB(bmat))
    assert isinstance(reg.h, np.ndarray)
    np.testing.assert_array_equal(reg.h, dense)
    for lam in (0.1, 10.0):
        s, _ = reg.solve(lam, rhs)
        np.testing.assert_allclose(s, np.linalg.solve(dense + lam * bmat, rhs), rtol=1e-10)


def test_both_dense_forms_take_one_cholesky_then_lu_order(monkeypatch):
    # the assembled array and the BorderedBlocks form of one Hessian go
    # through the same fallback: Cholesky of the one matrix each factors
    # (H + lam I, or its Schur complement), then LU where Cholesky declines,
    # at the same lam, and never eigh; both solve to rounding
    h, dense = nmf_bordered_hessian()
    lam_min = np.linalg.eigvalsh(dense)[0]
    rhs = np.random.default_rng(15).standard_normal(42)
    factored = _factored(monkeypatch)
    calls = eigh_calls(monkeypatch)
    steps, orders = {}, {}
    for form in (h, dense):
        reg = Regularized(form, MetricB())
        order = []
        for lam in (2.0 - lam_min, -0.5 * lam_min):  # SPD, then indefinite
            steps[form is h, lam], done = reg.solve(lam, rhs)
            order.append(done.path)
        orders[form is h] = order
    assert orders[True] == orders[False] == ["cholesky", "lu"]
    assert [m.shape for m in factored] == [(15, 15), (15, 15), (42, 42), (42, 42)]
    assert calls == {"eigh": 0}
    for lam in (2.0 - lam_min, -0.5 * lam_min):
        want = np.linalg.solve(dense + lam * np.eye(42), rhs)
        for bordered in (True, False):
            np.testing.assert_allclose(steps[bordered, lam], want, rtol=1e-10,
                                       atol=1e-12 * np.max(np.abs(want)))


def test_bordered_blocks_with_a_singular_schur_complement_stall():
    # blocks 0 and coupling 0 leave S = tail + lam I, zero for tail = -lam I:
    # Cholesky and LU both decline it, and the solve fails typed
    h = BorderedBlocks((np.zeros((2, 2)), np.zeros((2, 2))), np.zeros((4, 3)),
                       (-np.eye(3), np.zeros((1, 3))))
    with pytest.raises(SolverStallError, match="Schur complement"):
        Regularized(h, MetricB()).solve(1.0, np.ones(7))
    h.tail[0][0, 0] = np.nan
    assert not Regularized(h, MetricB()).is_finite


def test_solve_regularized_zero_rhs(monkeypatch):
    # a zero right-hand side returns the zero step without factoring, even
    # for a singular H + lam I: its record names no route
    calls = eigh_calls(monkeypatch)
    for h in (np.diag([1.0, 2.0]), np.diag([-1.0, 1.0])):
        reg = Regularized(h, MetricB())
        s, done = reg.solve(1.0, np.zeros(2))
        np.testing.assert_array_equal(s, np.zeros(2))
        assert done == InnerSolve(None, 0, 0, 0.0)
    assert calls == {"eigh": 0}


def test_solve_regularized_inconsistent_system_stalls():
    # diag(-1,1) + I = diag(0,2); rhs (1,0) has no solution.  Cholesky and
    # LU both decline the singular system, and the dense solve reports the
    # stall, as MINRES does for the same operator given matrix-free.
    h = np.diag([-1.0, 1.0])
    matvec = LinearOperator((2, 2), matvec=lambda v: h @ v, dtype=np.float64)
    for reg in (Regularized(h, MetricB()), Regularized(matvec, MetricB())):
        with pytest.raises(SolverStallError) as exc:
            reg.solve(1.0, np.array([1.0, 0.0]))
        assert exc.value.best_residual > 0.0


def test_refinement_decides_on_the_step_it_returns(monkeypatch):
    # H + lam I = -5 + 6 = 1, so the residual of s is 4 - s and the forcing
    # rule's target 0.6 |s| depends on the step: a correction that raises the
    # residual must not pass on an earlier, smaller one.  s = 2 misses
    # (residual 2, target 1.2); s = -4 misses its own target 2.4 with
    # residual 8, though the smallest residual so far is below 2.4; the
    # exact correction passes, the second
    reg = Regularized(np.array([[-5.0]]), MetricB())
    steps = iter([np.array([2.0]), np.array([-6.0])])

    def once(r):
        return next(steps, r)
    monkeypatch.setattr(linalg, "_direct_solver", lambda m, name: (once, "cholesky"))
    s, done = reg.solve(6.0, np.array([4.0]))
    np.testing.assert_array_equal(s, [4.0])
    assert done == InnerSolve("cholesky", 0, 2, 0.0)
    # a route that never moves keeps s = 0, whose target is 0
    monkeypatch.setattr(linalg, "_direct_solver",
                        lambda m, name: (lambda r: np.zeros(1), "cholesky"))
    with pytest.raises(SolverStallError) as exc:
        reg.solve(6.0, np.array([4.0]))
    assert exc.value.best_residual == 4.0


def test_solve_regularized_singular_but_consistent():
    # same singular matrix, rhs in its range.  A direct solve declines the
    # singular system whether the array is dense or a BorderedBlocks (the
    # solver's next trial takes a larger lam); MINRES, matrix-free, solves it
    h = np.diag([-1.0, 1.0])
    rhs = np.array([0.0, 2.0])
    # the same matrix with its coordinates swapped, its zero in the Schur complement
    bordered = BorderedBlocks((np.ones((1, 1)), np.zeros((1, 1))), np.zeros((1, 1)),
                              (-np.eye(1), np.zeros((1, 1))))
    for dense, b in ((h, rhs), (bordered, rhs[::-1])):
        with pytest.raises(SolverStallError, match="is singular"):
            Regularized(dense, MetricB()).solve(1.0, b)
    matvec = LinearOperator((2, 2), matvec=lambda v: h @ v, dtype=np.float64)
    s, done = Regularized(matvec, MetricB()).solve(1.0, rhs)
    assert abs(2.0 * s[1] - 2.0) <= linalg.THETA * np.linalg.norm(s) and done.path == "minres"


def test_solve_regularized_argument_errors():
    reg = Regularized(np.eye(2), MetricB())
    with pytest.raises(ValueError):
        reg.solve(0.0, np.ones(2))
    with pytest.raises(ValueError):
        reg.solve(-1.0, np.ones(2))
    with pytest.raises(ValueError):
        reg.solve(np.inf, np.ones(2))
    with pytest.raises(ValueError):
        reg.solve(1.0, np.ones(3))
    # the rhs is a vector of H's dimension, so a 0-d or a column rhs is
    # refused by the shape check rather than deep in a product
    for rhs in (np.float64(1.0), np.ones((2, 1))):
        with pytest.raises(ValueError, match=r"rhs of shape \(2,\)"):
            reg.solve(1.0, rhs)
    # H is one of four kinds: a nested list is none of them, and neither is a
    # bare callable v -> H v until a LinearOperator wraps it
    kinds = "an ndarray, a LinearOperator, an ActiveGram or a BorderedBlocks"
    for h in ([[1.0, 0.0], [0.0, 1.0]], lambda v: v):
        with pytest.raises(TypeError, match=kinds):
            Regularized(h, MetricB())


def test_prox_solve_rejects_a_bad_lam():
    # as solve does; a first composite trial would start FISTA at t = 1 / lam
    reg = Regularized(np.eye(2), MetricB())
    psi, steps = step_recorder()
    for lam in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="regularizer"):
            reg.prox_solve(lam, np.zeros(2), np.ones(2), psi)
    assert steps == [] and reg._t is None


def _rotated(eigs, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigs), len(eigs))))
    return (q * np.asarray(eigs, dtype=np.float64)) @ q.T


def test_reused_operator_solves_indefinite_shift_directly(monkeypatch):
    # eigenvalues of H are (3, -1, -2, -3).  One Regularized serves every
    # lam of a refresh, and each solve factors H + lam I afresh: Cholesky
    # declines the indefinite shifts lam = 1.5 and 2.5, which LU solves
    # without MINRES or eigh, and factors the positive definite 3.5 and 10
    h_mat = _rotated([3.0, -1.0, -2.0, -3.0], 7)
    rhs = np.array([1.0, -2.0, 0.5, 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(h_mat + 1.5 * np.eye(4))
    calls = eigh_calls(monkeypatch)
    reg = Regularized(h_mat, MetricB())
    for lam, path in ((1.5, "lu"), (2.5, "lu"), (3.5, "cholesky"), (10.0, "cholesky")):
        s, done = reg.solve(lam, rhs)
        np.testing.assert_allclose(s, np.linalg.solve(h_mat + lam * np.eye(4), rhs),
                                   rtol=1e-12)
        assert np.linalg.norm(h_mat @ s + lam * s - rhs) <= 1e-10
        assert (done.path, done.iters, done.corrections) == (path, 0, 0), lam
    assert calls == {"eigh": 0}
