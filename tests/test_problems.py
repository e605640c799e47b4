import dataclasses
import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from gladssn import linalg, problems, rng
from gladssn.linalg import BorderedBlocks, MetricB, Regularized
from gladssn.problems import (DENSE_DIM_MAX, HuberInstance, NmfInstance,
                              QuadInstance, SvmInstance, load_instance, make_huber, make_nmf,
                              make_quadratic, make_svm, problem_from_instance,
                              save_instance)
from gladssn.rng import Rng
from gladssn.ssn import CONVERGED, SolverConfig, solve

from helpers import (block_inversions, block_stack, columns, kink_gap, minres_handed,
                     penalty_violation, quad_optimum)


def test_same_seed_is_bitwise_identical():
    for make in (make_nmf, make_svm, make_huber, make_quadratic):
        kw = {"d": 6, "n": 4, "r": 2} if make is make_nmf else \
             {"n": 8, "ell": 30} if make is make_svm else \
             {"m": 12, "n": 5} if make is make_huber else {"n": 6}
        a = make(42, **kw)
        b = make(42, **kw)
        np.testing.assert_array_equal(a.x0, b.x0)
        for name in vars(a.instance):
            va, vb = getattr(a.instance, name), getattr(b.instance, name)
            if isinstance(va, np.ndarray):
                np.testing.assert_array_equal(va, vb)
            else:
                assert va == vb
        c = make(43, **kw)
        assert np.any(c.x0 != a.x0) or np.any(
            next(v for v in vars(c.instance).values() if isinstance(v, np.ndarray))
            != next(v for v in vars(a.instance).values() if isinstance(v, np.ndarray)))


# ----------------------------------------------------------------------- nmf

def tiny_nmf():
    # 1x1 factorization with r=1: everything checkable by hand
    inst = NmfInstance(seed=0, d=1, n=1, r=1, alpha=0.01, beta=0.01, sigma=0.0,
                       Y=np.array([[2.0]]), x0=np.zeros(2))
    return problem_from_instance(inst), inst


def test_nmf_hand_values():
    p, inst = tiny_nmf()
    x = np.array([-1.0, 2.0])  # u = -1, v = 2, resid = -4
    # f = 8 + 0.01*(1+4) + 50*1
    assert p.smooth.eval_f(x) == pytest.approx(58.05, rel=1e-14)
    np.testing.assert_allclose(p.smooth.eval_grad(x), [-108.02, 4.04], rtol=1e-14)
    h = p.smooth.eval_hess(x).assemble()
    # d2f/du2 = v^2 + 2a + 1/b, d2f/dudv = 2uv - Y, d2f/dv2 = u^2 + 2a
    np.testing.assert_allclose(h, [[104.02, -6.0], [-6.0, 1.02]], rtol=1e-13)
    assert penalty_violation(x, inst) == pytest.approx(50.0, rel=1e-15)
    assert penalty_violation(np.array([1.0, 2.0]), inst) == 0.0
    assert kink_gap(p, np.array([0.3, -0.2])) == pytest.approx(0.2)


def test_nmf_gradient_matches_loop_oracle():
    p = make_nmf(3, d=4, n=3, r=2)
    inst = p.instance
    x = p.x0 + 0.1
    u = x[:inst.d * inst.r].reshape(inst.d, inst.r)
    v = x[inst.d * inst.r:].reshape(inst.n, inst.r)
    gu = np.zeros_like(u)
    gv = np.zeros_like(v)
    for i in range(inst.d):
        for a in range(inst.r):
            for j in range(inst.n):
                rij = sum(u[i, c] * v[j, c] for c in range(inst.r)) - inst.Y[i, j]
                gu[i, a] += rij * v[j, a]
            gu[i, a] += 2 * inst.alpha * u[i, a] + min(u[i, a], 0.0) / inst.beta
    for j in range(inst.n):
        for a in range(inst.r):
            for i in range(inst.d):
                rij = sum(u[i, c] * v[j, c] for c in range(inst.r)) - inst.Y[i, j]
                gv[j, a] += rij * u[i, a]
            gv[j, a] += 2 * inst.alpha * v[j, a] + min(v[j, a], 0.0) / inst.beta
    np.testing.assert_allclose(p.smooth.eval_grad(x),
                               np.concatenate([gu.ravel(), gv.ravel()]),
                               rtol=1e-12, atol=1e-12)


def nmf_point(p, seed):
    """A point near p.x0 with negative entries in U and V: both masks active."""
    inst = p.instance
    x = p.x0 + 0.1 * np.random.default_rng(seed).standard_normal(p.dim)
    x[:inst.d * inst.r:3] = -0.3
    x[inst.d * inst.r::4] = -0.2
    return x


def nmf_hessians(p, x, monkeypatch):
    """NMF's dense BorderedBlocks Hessian at x, and its matrix-free one."""
    dense = p.smooth.eval_hess(x)
    with monkeypatch.context() as mp:
        mp.setattr(problems, "DENSE_DIM_MAX", 0)
        matrix_free = p.smooth.eval_hess(x)
    assert dense.is_dense and not matrix_free.is_dense
    return dense, matrix_free


def test_nmf_dense_threshold_and_hvp_consistency(monkeypatch):
    small = make_nmf(1, d=6, n=5, r=2)
    assert isinstance(small.smooth.eval_hess(small.x0), BorderedBlocks)
    big = make_nmf(1)  # (200 + 100) * 12 = 3600 > DENSE_DIM_MAX
    assert big.dim > DENSE_DIM_MAX
    h_big = big.smooth.eval_hess(big.x0)
    assert isinstance(h_big, BorderedBlocks) and not h_big.is_dense
    # each block group is one r x r Gram and one diagonal per row
    assert [a.shape for a in h_big.blocks] == [(12, 12), (200, 12)]
    assert [a.shape for a in h_big.tail] == [(12, 12), (100, 12)]
    # the matrix-free product, built from the two block groups, each applied
    # by one gemm, and the coupling's two products, equals the dense form's
    # at a point with negative entries in both U and V
    x = nmf_point(small, 0)
    dense, matrix_free = nmf_hessians(small, x, monkeypatch)
    # both sizes hold the same (base, diags) groups bit for bit, and differ
    # only in the coupling, an array or a pair of products
    assert [a.shape for a in dense.blocks + dense.tail] == [(2, 2), (6, 2), (2, 2), (5, 2)]
    for got, want in zip(dense.blocks + dense.tail, matrix_free.blocks + matrix_free.tail,
                         strict=True):
        np.testing.assert_array_equal(got, want)
    assert dense.coupling.shape == (12, 10) and callable(matrix_free.coupling[0])
    for v in np.random.default_rng(1).standard_normal((5, small.dim)):
        np.testing.assert_allclose(matrix_free @ v, dense @ v, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(dense @ v)))
    by_columns = columns(matrix_free)
    assert np.max(np.abs(dense.assemble() - by_columns)) <= 1e-13 * np.max(np.abs(by_columns))
    np.testing.assert_array_equal(matrix_free.assemble(), dense.assemble())


def test_nmf_preconditioner_inverts_gauss_newton_blocks(monkeypatch):
    # at every solve's lam, the Schur complement's preconditioner is the
    # inverse of the diagonal of the V rows' Gauss-Newton blocks
    # U^T U + diag(2 alpha + [V_j < 0] / beta) plus lam, the tail's diagonal
    # exactly and positive, and the eliminated U blocks are
    # V^T V + diag(2 alpha + [U_i < 0] / beta), inverted at lam
    p = make_nmf(2, d=6, n=5, r=3)
    inst = p.instance
    d, n, r = inst.d, inst.n, inst.r
    x = nmf_point(p, 1)
    u, v = x[:d * r].reshape(d, r), x[d * r:].reshape(n, r)
    _, h = nmf_hessians(p, x, monkeypatch)
    shift_u, shift_v = (2.0 * inst.alpha + (a < 0).ravel() / inst.beta for a in (u, v))
    block_u = np.kron(np.eye(d), v.T @ v) + np.diag(shift_u)
    block_v = np.kron(np.eye(n), u.T @ u) + np.diag(shift_v)
    rhs = -p.smooth.eval_grad(x)
    handed = minres_handed(monkeypatch)
    reg = Regularized(h, MetricB())
    for lam in (1e-3, 0.7, 30.0):
        handed.clear()
        reg.solve(lam, rhs)
        (_, _, scale), = handed
        tail = scipy.linalg.block_diag(*block_stack(h.tail))
        np.testing.assert_array_equal(scale, 1.0 / (np.diagonal(tail) + lam))
        assert np.min(scale) > 0.0
        err = scale * (np.diagonal(block_v) + lam) - 1.0
        assert np.max(np.abs(err)) <= 1e-12
        distinct, which = reg._blocks
        a_inv = scipy.linalg.block_diag(*linalg._inverse(h.blocks[0], distinct, lam)[which])
        err = a_inv @ (block_u + lam * np.eye(d * r)) - np.eye(d * r)
        assert np.max(np.abs(err)) <= 1e-12


def test_nmf_preconditioner_cuts_minres_iterations():
    # the Jacobi-preconditioned Schur complement takes fewer MINRES
    # iterations (the record's iters, over all of a solve's calls) than the
    # same solve run without its scale (M=None, through helpers.minres_handed),
    # and at lam = 1 than the whole system unpreconditioned, each over a third
    # of the variables (at lam = 30, not asserted, the Schur solves read 13
    # against 11)
    p = make_nmf(1)
    h = p.smooth.eval_hess(p.x0)
    plain = scipy.sparse.linalg.LinearOperator(h.shape, matvec=h.__matmul__, dtype=np.float64)
    rhs = -p.smooth.eval_grad(p.x0)
    for lam, cases in ((0.1, ("schur", "schur, M=None")),
                       (1.0, ("schur", "schur, M=None", "plain"))):
        totals = {}
        for label in cases:
            with pytest.MonkeyPatch.context() as mp:
                if label == "schur, M=None":
                    minres_handed(mp, scale=False)
                s, done = Regularized(plain if label == "plain" else h, MetricB()).solve(lam, rhs)
            # each stops at the forcing rule ||rho|| <= THETA lam ||s||
            res = np.linalg.norm(h @ s + lam * s - rhs)
            assert res <= linalg.THETA * lam * np.linalg.norm(s) and done.path == "minres"
            totals[label] = done.iters
        assert 0 < totals["schur"] < min(totals[label] for label in cases[1:]), lam


UNPATCHED_INV = np.linalg.inv  # the reference inverses', uncounted when a test patches inv


def inv_batch_sizes(monkeypatch):
    """Patch np.linalg.inv to record how many matrices each call inverts."""
    sizes = []

    def counted(a):
        sizes.append(a.shape[0])
        return UNPATCHED_INV(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return sizes


def per_row_inverses(blocks, lam):
    """The inverse of every block plus lam I, one row at a time."""
    return np.stack([UNPATCHED_INV(blk + lam * np.eye(len(blk))) for blk in blocks])


def test_nmf_preconditioner_inverts_each_distinct_block_once(monkeypatch):
    # per solve, the U blocks plus lam I are inverted once for each distinct
    # sign pattern of a U row, each inverse bit for bit the one of its
    # block, the Gram plus its row's diagonal, inverted alone; the V blocks
    # are not inverted, as the Schur complement's preconditioner is the
    # inverse of their diagonal plus lam, and the distinct blocks are found
    # once per refresh, for the U blocks only
    p = make_nmf(3, d=6, n=5, r=4)
    inst = p.instance
    d, n, r = inst.d, inst.n, inst.r
    magnitude = 0.1 + np.abs(np.random.default_rng(2).standard_normal(p.dim))
    bits = 2 ** np.arange(r)

    def point(u_patterns, v_patterns):
        # row i of U is negative where pattern u_patterns[i] has a bit set
        masks = np.concatenate([u_patterns, v_patterns])[:, None] & bits > 0
        return np.where(masks.ravel(), -magnitude, magnitude)

    points = {
        "repeated": (point(np.arange(d) % 2, np.arange(n) % 3), 2),
        "all distinct": (point(np.arange(d), d + np.arange(n)), d),
        "U and V share a mask": (point(np.full(d, 5), np.full(n, 5)), 1),
    }
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    sizes = inv_batch_sizes(monkeypatch)
    handed = minres_handed(monkeypatch)
    _, found = block_inversions(monkeypatch)
    for label, (x, distinct_u) in points.items():
        h = p.smooth.eval_hess(x)
        found.clear()
        reg = Regularized(h, MetricB())
        assert found == [(d, r)], label
        rhs = -p.smooth.eval_grad(x)
        tail_diag = np.diagonal(scipy.linalg.block_diag(*block_stack(h.tail)))
        for lam in (1e-3, 0.7, 30.0):
            sizes.clear()
            handed.clear()
            reg.solve(lam, rhs)
            assert sizes == [distinct_u], label
            keys, which = reg._blocks
            np.testing.assert_array_equal(linalg._inverse(h.blocks[0], keys, lam)[which],
                                          per_row_inverses(block_stack(h.blocks), lam),
                                          err_msg=label)
            (_, _, scale), = handed
            np.testing.assert_array_equal(scale, 1.0 / (tail_diag + lam), err_msg=label)
            assert np.min(scale) > 0.0, label
        assert found == [(d, r)], label


def test_nmf_matfree_trace_unchanged_by_the_deduplicated_preconditioner(monkeypatch):
    # the same solve with every U block taken as distinct accepts the same
    # iterates bit for bit, while the library's build inverts fewer blocks;
    # the V blocks, preconditioned by their diagonal, are never inverted,
    # and the distinct U blocks are found once per refresh
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    p = make_nmf(3, d=20, n=12, r=3)
    sizes = inv_batch_sizes(monkeypatch)
    for m in (1, 3):
        config = SolverConfig(p=0.5, m=m, grad_tol=1e-4)
        block_inversions(monkeypatch, dedupe=False)
        want = solve(p, config)
        assert sizes and set(sizes) == {20}
        sizes.clear()
        _, found = block_inversions(monkeypatch)
        got = solve(p, config)
        assert got.status == want.status == CONVERGED and got.iters >= 10
        assert len(sizes) == got.trials and min(sizes) < 12
        assert found == [(20, 3)] * got.hess_evals
        sizes.clear()
        assert ([dataclasses.replace(rec, wall_ns=0) for rec in got.trace]
                == [dataclasses.replace(rec, wall_ns=0) for rec in want.trace])
        assert np.array_equal(got.x, want.x) and got.F_final == want.F_final


def test_svm_and_huber_hessians_stay_dense(monkeypatch):
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    for p in (make_svm(1, n=8, ell=30), make_huber(1, m=12, n=5)):
        assert Regularized(p.smooth.eval_hess(p.x0), MetricB()).is_dense


def test_nmf_eval_f_diff_large_step_matches_value_difference():
    p = make_nmf(5, d=6, n=4, r=3)
    du = p.instance.d * p.instance.r
    x = p.x0.copy()
    s = -2.0 * x  # x + s = -x: signs flip in U and in V
    assert np.any((x[:du] < 0) != (x[:du] + s[:du] < 0))
    assert np.any((x[du:] < 0) != (x[du:] + s[du:] < 0))
    f = p.smooth.eval_f
    plain = f(x) - f(x + s)
    assert abs(plain) > 1.0
    assert p.eval_f_diff(x, s) == pytest.approx(plain, rel=1e-12)


def test_nmf_eval_f_diff_resolves_decrease_below_rounding():
    # a step of norm 1e-10 orthogonal to the gradient changes f by about
    # 0.5 s^T H s, far below one ulp of f: the difference of two values
    # reads 0 or +-1 ulp, while eval_f_diff matches the Taylor expansion
    # (f is quartic and the step stays clear of the kinks, so the cubic
    # remainder is O(||s||^3))
    p = make_nmf(5, d=6, n=4, r=3)
    x = p.x0.copy()
    assert kink_gap(p, x) > 1e-3
    g = p.smooth.eval_grad(x)
    h = p.smooth.eval_hess(x)
    w = np.random.default_rng(3).standard_normal(x.size)
    w -= (w @ g) / (g @ g) * g
    x_plus = x + 1e-10 * w / np.linalg.norm(w)
    s = x_plus - x
    taylor = -(float(g @ s) + 0.5 * float(s @ (h @ s)))
    ulp = np.spacing(p.smooth.eval_f(x))
    assert 0.0 < abs(taylor) < ulp
    assert abs(p.smooth.eval_f(x) - p.smooth.eval_f(x_plus)) <= ulp
    assert abs(p.eval_f_diff(x, s) - taylor) <= 1e-8 * abs(taylor)


def f_longdouble(p, x):
    """f(x) of a Huber or quadratic instance, evaluated in np.longdouble."""
    inst, ld = p.instance, np.longdouble
    x = np.asarray(x, dtype=ld)
    a_mat, b_vec = inst.A.astype(ld), inst.b.astype(ld)
    if isinstance(inst, HuberInstance):
        r = a_mat @ x - b_vec
        delta = ld(inst.delta)
        vals = np.where(np.abs(r) <= delta, r * r / 2, delta * (np.abs(r) - delta / 2))
        return np.sum(vals) + ld(inst.ridge) / 2 * (x @ x)
    return x @ (a_mat @ x) / 2 - b_vec @ x


DIFF_PROBLEMS = {"huber": lambda: make_huber(2, m=60, n=8, delta=0.5),
                 "quad": lambda: make_quadratic(2, n=8)}


@pytest.mark.parametrize("name", DIFF_PROBLEMS)
def test_eval_f_diff_large_step_matches_value_difference(name):
    p = DIFF_PROBLEMS[name]()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8)
    s = 0.5 * rng.standard_normal(8)
    if name == "huber":
        # rows that stay quadratic, stay linear, and cross a kink both ways
        # and from one linear side to the other
        inst = p.instance
        r = inst.A @ x - inst.b
        r_plus = r + inst.A @ s
        quad, quad_plus = np.abs(r) <= inst.delta, np.abs(r_plus) <= inst.delta
        flip = ~quad & ~quad_plus & (np.sign(r) != np.sign(r_plus))
        for rows in (quad & quad_plus, ~quad & ~quad_plus & ~flip,
                     quad & ~quad_plus, ~quad & quad_plus, flip):
            assert np.any(rows)
    f = p.smooth.eval_f
    plain = f(x) - f(x + s)
    assert abs(plain) > 1.0
    assert p.eval_f_diff(x, s) == pytest.approx(plain, rel=1e-12)


@pytest.mark.parametrize("name", DIFF_PROBLEMS)
def test_eval_f_diff_resolves_small_step(name):
    # a step of norm 1e-9 down the gradient: the difference of two rounded
    # values is off by an ulp of f, far more than eval_f_diff is off from
    # the long-double reference
    p = DIFF_PROBLEMS[name]()
    x = np.random.default_rng(0).standard_normal(8)
    g = p.smooth.eval_grad(x)
    s = -1e-9 * g / np.linalg.norm(g)
    ref = f_longdouble(p, x) - f_longdouble(p, x.astype(np.longdouble) + s)
    f = p.smooth.eval_f
    assert abs((f(x) - f(x + s)) - ref) > 1e-8 * ref
    assert abs(p.eval_f_diff(x, s) - ref) <= 1e-8 * ref


def test_nmf_data_model():
    p = make_nmf(2, d=8, n=6, r=2, sigma=0.0)
    inst = p.instance
    assert inst.Y.shape == (8, 6)
    # noiseless Y from uniform factors is on [0, r]
    assert np.all(inst.Y >= 0.0) and np.all(inst.Y <= 2.0)
    assert abs(np.std(p.x0) - 0.5) < 0.25


@pytest.mark.parametrize("seed, d, n, r", [(1, 40, 20, 4), (3, 7, 5, 3)])
def test_make_nmf_draws_in_the_documented_order(seed, d, n, r):
    # Y and x0 equal, bit for bit, four separate draws in the documented
    # order; an odd d * n burns one uniform before x0's draw
    rng = Rng(seed)
    u_true = rng.uniform((d, r))
    v_true = rng.uniform((n, r))
    noise = rng.normal((d, n))
    x0 = 0.5 * rng.normal((d + n) * r)
    inst = make_nmf(seed, d=d, n=n, r=r).instance
    np.testing.assert_array_equal(inst.Y, u_true @ v_true.T + inst.sigma * noise)
    np.testing.assert_array_equal(inst.x0, x0)


# ----------------------------------------------------------------------- svm

def test_svm_value_at_origin():
    p = make_svm(1, n=8, ell=120, gamma=1e4)
    # all margins are exactly 1 at x = 0
    assert p.smooth.eval_f(np.zeros(9)) == 1e4 * 120


def test_svm_gradient_matches_loop_oracle():
    p = make_svm(2, n=5, ell=16, gamma=10.0)
    inst = p.instance
    x = 0.01 * np.arange(6, dtype=np.float64)
    n = 5
    g = np.zeros(6)
    g[:n] = x[:n]
    for i in range(16):
        margin = 1.0 - inst.y[i] * (inst.X[i] @ x[:n] + x[n])
        if margin > 0.0:
            g[:n] -= 2.0 * inst.gamma * margin * inst.y[i] * inst.X[i]
            g[n] -= 2.0 * inst.gamma * margin * inst.y[i]
    np.testing.assert_allclose(p.smooth.eval_grad(x), g, rtol=1e-12, atol=1e-12)


def test_svm_blob_geometry():
    p = make_svm(3, n=20, ell=400)
    inst = p.instance
    half = (400 + 1) // 2
    assert np.all(inst.y[:half] == 1.0) and np.all(inst.y[half:] == -1.0)
    assert abs(np.mean(inst.X[:half, 0]) - 1.5) < 0.3
    assert abs(np.mean(inst.X[half:, 0]) + 1.5) < 0.3
    np.testing.assert_array_equal(p.x0, np.zeros(21))


def test_svm_hessian_is_the_labelled_gram():
    # the oracle drops y_i^2 = 1 and takes the Gram of the rows (x_i, 1);
    # Z = y (X, 1) gives the same bits, with every row active at x0 = 0 and
    # some of them at x
    p = make_svm(4, n=6, ell=300, gamma=10.0)
    inst = p.instance
    n = 6
    z = inst.y[:, None] * np.hstack([inst.X, np.ones((300, 1))])
    x = np.zeros(7)
    x[0] = 1.0
    for point in (p.x0, x):
        active = 1.0 - inst.y * (inst.X @ point[:n] + point[n]) > 0.0
        z_act = z[active]
        want = 2.0 * inst.gamma * (z_act.T @ z_act)
        want[np.arange(n), np.arange(n)] += 1.0
        np.testing.assert_array_equal(p.smooth.eval_hess(point), want)
    assert 0 < np.count_nonzero(active) < 300


def test_make_svm_draws_whole_pairs_into_one_store(monkeypatch):
    # an odd n, so Box-Muller pairs straddle rows, and an odd count large
    # enough to split among three threads, whose blocks end mid-row: the
    # features equal one serial draw of the whole matrix
    n = 17
    ell = rng._THREADED_VALUES // n + 1
    assert ell * n % 2 == 1 and ell * n >= rng._THREADED_VALUES
    assert rng._NORMAL_BLOCK % n
    monkeypatch.setattr(rng, "_cpu_count", lambda: 1)
    want = Rng(5).normal((ell, n))
    monkeypatch.setattr(rng, "_cpu_count", lambda: 3)
    inst = make_svm(5, n=n, ell=ell).instance
    want[:, 0] += 1.5 * inst.y
    np.testing.assert_array_equal(inst.X, want)
    # X is the first n columns of a C-contiguous store whose last column is ones
    store = inst.X.base
    assert store.shape == (ell, n + 1) and store.flags.c_contiguous
    assert np.all(store[:, n] == 1.0)
    # an instance given a plain X keeps a copy in a store of its own
    plain = dataclasses.replace(inst, X=want)
    assert plain.X.base.shape == (ell, n + 1) and not np.shares_memory(plain.X, want)
    np.testing.assert_array_equal(plain.X, want)


def test_threaded_make_svm_draws_only_in_the_calling_thread(monkeypatch):
    # a tracer wraps Rng.normal and Rng.uniform and keeps one span stack
    # for all threads, so only the calling thread may enter them; a draw
    # splits among the threads it starts and has joined them when it returns
    entered, pools = [], []
    for method in ("normal", "uniform"):
        def spied(self, *args, _draw=getattr(Rng, method), **kwargs):
            before = threading.active_count()
            values = _draw(self, *args, **kwargs)
            entered.append((threading.get_ident(), threading.active_count() - before))
            return values
        monkeypatch.setattr(Rng, method, spied)

    class Pool(rng.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    before = threading.active_count()
    make_svm(1)
    assert threading.active_count() == before
    assert pools == [1]
    assert entered == [(threading.get_ident(), 0)]


def test_svm_memory_holds_one_feature_matrix(monkeypatch):
    # set-up holds the store and small scratch, also at the default size
    # split among the most threads a draw starts, and the Hessian at x0,
    # where every row is active, copies no rows
    monkeypatch.setattr(rng, "_cpu_count", lambda: rng._MAX_THREADS)
    for kw in ({"n": 50, "ell": 4000}, {}):
        tracemalloc.start()
        try:
            p = make_svm(1, **kw)
            peak = tracemalloc.get_traced_memory()[1]
            feats_bytes = p.instance.X.nbytes
            assert peak < 1.5 * feats_bytes, kw
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            p.smooth.eval_hess(p.x0)
            assert tracemalloc.get_traced_memory()[1] - before < 0.1 * feats_bytes, kw
        finally:
            tracemalloc.stop()


def test_svm_labels_must_be_plus_or_minus_one(tmp_path):
    # the Hessian takes y_i^2 = 1, so any other label would make it wrong
    inst = make_svm(1, n=3, ell=8).instance
    for bad in (0.0, 0.5, 2.0, -3.0):
        y = inst.y.copy()
        y[3] = bad
        with pytest.raises(ValueError, match=f"^SvmInstance: labels y must be -1.0 or "
                                             f"\\+1.0, got {bad}$"):
            dataclasses.replace(inst, y=y)
    path = tmp_path / "labels.inst"
    save_instance(path, inst)
    doc = json.loads(path.read_text())
    doc["fields"]["y"][5] = 0.25
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="labels.inst: SvmInstance: labels y must be"):
        load_instance(path)


# --------------------------------------------------------------------- huber

def test_huber_hand_values():
    inst = HuberInstance(seed=0, delta=1.0, ridge=0.0,
                         A=np.array([[1.0]]), b=np.array([0.5]),
                         x0=np.zeros(1))
    p = problem_from_instance(inst)
    # r = 1.5 > delta: linear branch, f = delta*(|r| - delta/2) = 1.0
    assert p.smooth.eval_f(np.array([2.0])) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(p.smooth.eval_grad(np.array([2.0])), [1.0])
    # r = 0.3 <= delta: quadratic branch
    assert p.smooth.eval_f(np.array([0.8])) == pytest.approx(0.045, rel=1e-14)
    np.testing.assert_allclose(p.smooth.eval_grad(np.array([0.8])), [0.3])
    for x, want in ((0.8, [[1.0]]), (2.0, [[0.0]])):
        np.testing.assert_allclose(Regularized(p.smooth.eval_hess(np.array([x])), MetricB()).h,
                                   want)
    # residual hits |r| = delta at x = 1.5
    assert kink_gap(p, np.array([1.5])) == pytest.approx(0.0, abs=1e-15)
    assert kink_gap(p, np.array([0.8])) == pytest.approx(0.7, rel=1e-14)


def test_huber_default_instance():
    p = make_huber(1)
    assert p.instance.A.shape == (500, 50)
    np.testing.assert_array_equal(p.x0, np.zeros(50))
    # ridge shows up in the Hessian diagonal
    h = Regularized(p.smooth.eval_hess(p.x0), MetricB()).h
    np.testing.assert_array_equal(h, h.T)
    assert np.all(np.linalg.eigvalsh(h) >= 0.01 - 1e-9)


# ------------------------------------------------------- residual cache

def oracle_outputs(problem, x):
    smooth = problem.smooth
    h = Regularized(smooth.eval_hess(x), MetricB()).h
    if isinstance(h, BorderedBlocks) and h.is_dense:
        h = h.assemble()
    elif not isinstance(h, np.ndarray):  # matrix-free: compared through H @ v
        h = h @ np.linspace(-1.0, 1.0, problem.dim)
    out = [smooth.eval_f(x), smooth.eval_grad(x), h]
    if problem.eval_f_diff is not None:
        out.append(problem.eval_f_diff(x, np.full(problem.dim, 1e-3)))
    return out


def assert_bitwise_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("make, kw, dense_max", [
    (make_svm, {"n": 6, "ell": 40}, DENSE_DIM_MAX),
    (make_huber, {"m": 30, "n": 6}, DENSE_DIM_MAX),
    (make_nmf, {"d": 7, "n": 5, "r": 3}, DENSE_DIM_MAX),
    (make_nmf, {"d": 7, "n": 5, "r": 3}, 0),
], ids=["make_svm-kw0", "make_huber-kw1", "make_nmf-dense", "make_nmf-matrix-free"])
def test_residual_cache_matches_fresh_oracles(make, kw, dense_max, monkeypatch):
    # SVM's margins and Huber's and NMF's residuals are computed once per
    # point and shared by f, the gradient, the Hessian and the step's
    # decrease.  Every result must equal a fresh oracle's at that
    # point, also after the caller changes the array it passed in place.
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", dense_max)
    problem = make(3, **kw)
    assert (not Regularized(problem.smooth.eval_hess(problem.x0), MetricB()).is_dense) == (
        dense_max == 0)
    inst = problem.instance
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, problem.dim))
    caller = a.copy()
    for x in (a, b, caller):
        assert_bitwise_equal(oracle_outputs(problem, x),
                             oracle_outputs(problem_from_instance(inst), x.copy()))
    caller[: problem.dim // 2] *= -2.0
    assert_bitwise_equal(oracle_outputs(problem, caller),
                         oracle_outputs(problem_from_instance(inst), caller.copy()))


# ---------------------------------------------------------------------- quad

def test_quadratic_spectrum_and_solution():
    p = make_quadratic(5, n=12, cond=1e3)
    a = p.instance.A
    eigs = np.linalg.eigvalsh(a)
    assert eigs[0] == pytest.approx(1.0, rel=1e-9)
    assert eigs[-1] == pytest.approx(1e3, rel=1e-9)
    assert np.all(eigs >= 1.0 - 1e-6) and np.all(eigs <= 1e3 + 1e-6)
    fstar, xstar = quad_optimum(p)
    g = p.smooth.eval_grad(xstar)
    assert np.linalg.norm(g) < 1e-9 * np.linalg.norm(p.instance.b)
    assert p.smooth.eval_f(xstar) == pytest.approx(fstar, abs=1e-9)
    # minimum really is a minimum
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert p.smooth.eval_f(xstar + 0.1 * rng.standard_normal(12)) > fstar
    assert kink_gap(p, p.x0) == np.inf


# ------------------------------------------------------------- kink gaps

@pytest.mark.parametrize("kind", sorted(problems.KINDS))
def test_kink_gap_has_a_rule_for_every_kind(kind):
    # helpers.kink_gap knows every kind, so kink_free_points cannot accept
    # every point of a kind added without a rule; an unknown instance raises
    small = {"nmf": {"d": 4, "n": 3, "r": 2}, "svm": {"n": 4, "ell": 10},
             "huber": {"m": 6, "n": 3}, "quad": {"n": 4}}
    p = problems.KINDS[kind].make(1, **small.get(kind, {}))
    assert kink_gap(p, p.x0) >= 0.0
    with pytest.raises(TypeError, match="no kink rule"):
        kink_gap(dataclasses.replace(p, instance=object()), p.x0)


# -------------------------------------------------------- export / import

def test_instance_round_trip(tmp_path):
    cases = [make_nmf(7, d=5, n=4, r=2), make_svm(7, n=6, ell=20),
             make_huber(7, m=9, n=4), make_quadratic(7, n=5),
             make_nmf(8, d=np.int64(4), n=np.int64(3), r=np.int64(2))]
    for p in cases:
        path = tmp_path / f"{p.name}.inst"
        save_instance(path, p.instance)
        back = load_instance(path)
        assert type(back) is type(p.instance)
        for name, value in vars(p.instance).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(back, name), value,
                                              err_msg=f"{p.name}.{name}")
            else:
                assert getattr(back, name) == value, f"{p.name}.{name}"
                assert type(value) is type(getattr(back, name)), f"{p.name}.{name}"
        # the rebuilt problem computes the same objective
        q = problem_from_instance(back)
        x = p.x0 + 0.25
        assert q.smooth.eval_f(x) == p.smooth.eval_f(x)
        np.testing.assert_array_equal(q.smooth.eval_grad(x), p.smooth.eval_grad(x))
        if p.name == "svm":  # the loaded X is copied into a store of its own
            for point in (p.x0, x):
                np.testing.assert_array_equal(q.smooth.eval_hess(point),
                                              p.smooth.eval_hess(point))


def test_problem_from_instance_copies_the_start():
    inst = make_nmf(2, d=5, n=4, r=2).instance
    problem = problem_from_instance(inst)
    assert (problem.name, problem.instance) == ("nmf", inst)
    np.testing.assert_array_equal(problem.x0, inst.x0)
    assert not np.shares_memory(problem.x0, inst.x0)


def test_load_instance_rejects_garbage(tmp_path):
    good = {"quad": tmp_path / "quad.inst", "nmf": tmp_path / "nmf.inst"}
    save_instance(good["quad"], make_quadratic(1, n=2).instance)
    save_instance(good["nmf"], make_nmf(1, d=4, n=3, r=2).instance)
    assert list(json.loads(good["nmf"].read_text())) == ["format", "kind", "fields"]
    bad = tmp_path / "bad.inst"

    def rejected(text, match):
        bad.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            load_instance(bad)
        assert "bad.inst" in str(info.value)

    def rejected_edit(edit, match, kind="quad"):
        doc = json.loads(good[kind].read_text())
        edit(doc)
        rejected(json.dumps(doc), match)

    # text that is not JSON: garbage, a version-1 text file, a truncated file
    rejected("not a container\n", "Expecting value")
    rejected("gladssn-instance 1\nkind quad\nint seed 1\nend\n", "Expecting value")
    rejected(good["quad"].read_text()[:-1], "Expecting")
    rejected("[1, 2]", "not a 'gladssn-instance 2' file")
    # a wrong format tag or an unknown kind
    rejected_edit(lambda d: d.update(format="gladssn-instance 1"),
                  "not a 'gladssn-instance 2'")
    rejected_edit(lambda d: d.update(kind="nosuch"), "unknown instance kind 'nosuch'")
    rejected_edit(lambda d: d.update(kind=["quad"]), "unknown instance kind")
    # a missing field, an unknown field, or fields that are not an object
    rejected_edit(lambda d: d["fields"].pop("seed"), r"missing fields \['seed'\]")
    rejected_edit(lambda d: d["fields"].update(bogus=2), r"unknown fields \['bogus'\]")
    rejected_edit(lambda d: d.update(fields=[1]), "not an object")
    # scalars of the wrong type: int fields take no float, bool or null,
    # float fields no string, bool, integer beyond the float range, NaN or
    # infinity
    for name, value in (("seed", 1.0), ("seed", True), ("seed", None), ("seed", "x"),
                        ("cond", "1e4"), ("cond", False), ("cond", 10**400),
                        ("cond", math.nan), ("cond", -math.inf)):
        rejected_edit(lambda d: d["fields"].update({name: value}),
                      f"field '{name}' must be")
    # "d": 4.0 once loaded as a float and broke the slicing in eval_f
    rejected_edit(lambda d: d["fields"].update(d=4.0), "field 'd' must be an integer", "nmf")
    # arrays that are ragged, hold a string or a null, or have the wrong shape
    for value in ([[1.0, 2.0], [3.0]], [[1.0, "2"], [3.0, 4.0]], [[1.0, None], [3.0, 4.0]],
                  "A"):
        rejected_edit(lambda d: d["fields"].update(A=value),
                      "field 'A' is not a rectangular array of numbers")
    for value in (math.nan, math.inf):  # json writes these as NaN and Infinity
        rejected_edit(lambda d: d["fields"]["b"].__setitem__(1, value),
                      "field 'b' holds a number that is not finite")
    rejected_edit(lambda d: d["fields"].update(A=[1.0, 2.0, 3.0, 4.0]),
                  r"arrays have shapes \{'A': \(4,\)")
    rejected_edit(lambda d: d["fields"].update(x0=[1.0]), r"'x0': \(1,\)\}, expected")


def test_instances_check_array_shapes():
    # A is 3 x 3 where the other arrays have 3 entries: a flat A of 9 once
    # loaded and failed only later, in problem_from_instance
    quad = make_quadratic(1, n=3).instance
    for a_mat in (np.zeros(9), np.zeros((3, 2)), np.zeros((3, 3, 1))):
        with pytest.raises(ValueError, match=r"QuadInstance arrays have shapes .*'A': \("):
            QuadInstance(seed=1, cond=10.0, A=a_mat, b=quad.b, x0=quad.x0)
    wrong = [  # each edit puts one array off its instance's sizes
        (make_nmf(1, d=4, n=3, r=2), ({"Y": np.zeros((3, 3))}, {"Y": np.zeros(12)},
                                      {"x0": np.zeros(13)})),
        (make_svm(1, n=4, ell=6), ({"X": np.zeros(24)}, {"X": np.zeros((6, 5))},
                                   {"y": np.zeros((6, 1))}, {"x0": np.zeros((5, 1))})),
        (make_huber(1, m=6, n=4), ({"A": np.zeros((4, 6))}, {"b": np.zeros(5)},
                                   {"x0": np.zeros(5)})),
        (make_quadratic(1, n=3), ({"b": np.zeros(2)}, {"x0": np.zeros((3, 1))})),
    ]
    for problem, edits in wrong:
        inst = problem.instance
        dataclasses.replace(inst)  # the generator's own instance passes
        for edit in edits:
            with pytest.raises(ValueError, match=f"{type(inst).__name__} arrays have shapes"):
                dataclasses.replace(inst, **edit)


@pytest.mark.parametrize("make, kw", [
    (make_nmf, {"d": -1}), (make_nmf, {"d": 0}), (make_nmf, {"n": 0}), (make_nmf, {"r": 0}),
    (make_svm, {"n": 0}), (make_svm, {"ell": -5}),
    (make_huber, {"m": 0}), (make_huber, {"n": 0}),
    (make_quadratic, {"n": 1}), (make_quadratic, {"n": 0}),
])
def test_generators_reject_sizes_below_one(make, kw, monkeypatch):
    # rejected before the first draw: Rng is never built; the quadratic
    # pins both ends of its spectrum, so it needs n >= 2
    monkeypatch.setattr(problems, "Rng", None)
    (name, size), = kw.items()
    low = 2 if make is make_quadratic else 1
    with pytest.raises(ValueError,
                       match=f"^{make.__name__}: {name} must be at least {low}, got {size}$"):
        make(1, **kw)


def test_instances_reject_sizes_below_one(tmp_path):
    cases = [
        (NmfInstance, "d", dict(seed=1, d=0, n=2, r=1, alpha=0.1, beta=0.1, sigma=0.0,
                                Y=np.zeros((0, 2)), x0=np.zeros(2))),
        (NmfInstance, "r", dict(seed=1, d=2, n=2, r=0, alpha=0.1, beta=0.1, sigma=0.0,
                                Y=np.zeros((2, 2)), x0=np.zeros(0))),
        (SvmInstance, "n", dict(seed=1, gamma=1.0, X=np.zeros((3, 0)), y=np.ones(3),
                                x0=np.zeros(1))),
        (SvmInstance, "ell", dict(seed=1, gamma=1.0, X=np.zeros((0, 2)), y=np.ones(0),
                                  x0=np.zeros(3))),
        (HuberInstance, "m", dict(seed=1, delta=1.0, ridge=0.1, A=np.zeros((0, 2)),
                                  b=np.zeros(0), x0=np.zeros(2))),
        (HuberInstance, "n", dict(seed=1, delta=1.0, ridge=0.1, A=np.zeros((3, 0)),
                                  b=np.zeros(3), x0=np.zeros(0))),
    ]
    for cls, name, fields in cases:
        with pytest.raises(ValueError, match=f"^{cls.__name__}: {name} must be at least 1"):
            cls(**fields)
    # the quadratic's record needs n >= 2, as make_quadratic does; the empty
    # one once built a problem that solve reported as converged
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"^QuadInstance: n must be at least 2, got {n}$"):
            QuadInstance(seed=1, cond=1.0, A=np.zeros((n, n)), b=np.zeros(n), x0=np.zeros(n))
    # a file whose sizes are consistent but empty loads no instance either
    path = tmp_path / "empty.inst"
    save_instance(path, make_nmf(1, d=2, n=3, r=2).instance)
    doc = json.loads(path.read_text())
    doc["fields"].update(d=0, Y=[], x0=[0.0] * 6)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="empty.inst: NmfInstance: d must be at least 1, got 0"):
        load_instance(path)
    save_instance(path, make_quadratic(1, n=3).instance)
    doc = json.loads(path.read_text())
    doc["fields"].update(A=[], b=[], x0=[])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="empty.inst: QuadInstance: n must be at least 2, got 0"):
        load_instance(path)


SMALL = {make_nmf: {"d": 4, "n": 3, "r": 2}, make_svm: {"n": 3, "ell": 8},
         make_huber: {"m": 6, "n": 3}, make_quadratic: {"n": 4}}
OUT_OF_DOMAIN = [
    (make_nmf, "alpha", -1.0), (make_nmf, "beta", 0.0), (make_nmf, "beta", -0.5),
    (make_nmf, "sigma", -0.02), (make_nmf, "alpha", math.nan),
    (make_svm, "gamma", 0.0), (make_svm, "gamma", -1.0), (make_svm, "gamma", math.nan),
    (make_huber, "delta", 0.0), (make_huber, "ridge", -1.0), (make_huber, "delta", math.nan),
    (make_quadratic, "cond", 0.0), (make_quadratic, "cond", -1.0),
    (make_quadratic, "cond", 0.5), (make_quadratic, "cond", math.nan),
]


@pytest.mark.parametrize("make, name, value", OUT_OF_DOMAIN)
def test_generators_reject_parameters_outside_their_domain(make, name, value, monkeypatch):
    # these once ran to a ZeroDivisionError, an objective unbounded below,
    # or a "converged" run on a degenerate loss; rejected before the first
    # draw, so Rng is never built, and NaN with them
    monkeypatch.setattr(problems, "Rng", None)
    with pytest.raises(ValueError, match=rf"^{make.__name__}: {name} must be (at least|above) "
                                         rf"[01], got {value}$"):
        make(1, **SMALL[make], **{name: value})


@pytest.mark.parametrize("make, name, value", OUT_OF_DOMAIN)
def test_instances_reject_parameters_outside_their_domain(make, name, value, tmp_path):
    inst = make(1, **SMALL[make]).instance
    cls = type(inst).__name__
    with pytest.raises(ValueError, match=f"^{cls}: {name} must be"):
        dataclasses.replace(inst, **{name: value})
    if math.isnan(value):
        return  # a NaN in a file fails its type check first (test_load_instance_rejects_garbage)
    path = tmp_path / "bad.inst"
    save_instance(path, inst)
    doc = json.loads(path.read_text())
    doc["fields"][name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"bad.inst: {cls}: {name} must be"):
        load_instance(path)


WRONG_SIZE = [
    (make_nmf, "d", 4.0, "an integer, got 4.0"), (make_nmf, "r", 2.5, "an integer, got 2.5"),
    (make_svm, "ell", math.inf, "an integer, got inf"), (make_huber, "m", "6", "an integer, got '6'"),
    (make_quadratic, "n", math.inf, "an integer, got inf"),
    (make_quadratic, "n", 10**54, f"at most {sys.maxsize}, got {10**54}"),  # numpy cannot index it
]
WRONG_PARAMETER = [
    (make_quadratic, "cond", "3", "a number, got '3'"),
    (make_quadratic, "cond", math.inf, "finite, got inf"),
    (make_quadratic, "cond", 10**400, "finite, got an integer beyond float range"),
    (make_nmf, "alpha", math.inf, "finite, got inf"), (make_svm, "gamma", "1", "a number, got '1'"),
    (make_huber, "ridge", math.inf, "finite, got inf"),
    (make_nmf, "alpha", True, "a number, got True"),  # a bool is not a number
]


@pytest.mark.parametrize("make, name, value, message", WRONG_SIZE + WRONG_PARAMETER)
def test_generators_reject_parameters_of_the_wrong_type(make, name, value, message, monkeypatch):
    # a size that is not an integer and a parameter that is not a finite real
    # once failed in numpy or a comparison, with an error naming no field,
    # or built a problem that is not finite; rejected before the first draw
    monkeypatch.setattr(problems, "Rng", None)
    with pytest.raises(ValueError, match=rf"^{make.__name__}: {name} must be {re.escape(message)}$"):
        make(1, **{**SMALL[make], name: value})


@pytest.mark.parametrize("make, name, value, message", WRONG_PARAMETER)
def test_instances_reject_parameters_of_the_wrong_type(make, name, value, message):
    # an instance's sizes are its arrays' shapes; its parameters are checked
    inst = make(1, **SMALL[make]).instance
    with pytest.raises(ValueError,
                       match=rf"^{type(inst).__name__}: {name} must be {re.escape(message)}$"):
        dataclasses.replace(inst, **{name: value})


def test_save_instance_rejects_foreign_object(tmp_path):
    with pytest.raises(TypeError):
        save_instance(tmp_path / "x.inst", object())
    with pytest.raises(TypeError):
        problem_from_instance(object())
