import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg

from gladssn import problems
from gladssn.linalg import LinOp, MetricB, Regularized
from gladssn.problems import (DENSE_DIM_MAX, HuberInstance, NmfInstance,
                              QuadInstance, SvmInstance, load_instance, make_huber, make_nmf,
                              make_quadratic, make_svm, penalty_violation,
                              problem_from_instance, save_instance)

from helpers import columns


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
    h = p.smooth.eval_hess(x).dense
    # d2f/du2 = v^2 + 2a + 1/b, d2f/dudv = 2uv - Y, d2f/dv2 = u^2 + 2a
    np.testing.assert_allclose(h, [[104.02, -6.0], [-6.0, 1.02]], rtol=1e-13)
    assert penalty_violation(x, inst) == pytest.approx(50.0, rel=1e-15)
    assert penalty_violation(np.array([1.0, 2.0]), inst) == 0.0
    assert p.kink_gap(np.array([0.3, -0.2])) == pytest.approx(0.2)


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


def test_nmf_dense_threshold_and_hvp_consistency(monkeypatch):
    small = make_nmf(1, d=6, n=5, r=2)
    assert small.smooth.eval_hess(small.x0).is_dense
    big = make_nmf(1)  # (200 + 100) * 12 = 3600 > DENSE_DIM_MAX
    assert big.dim > DENSE_DIM_MAX
    assert not big.smooth.eval_hess(big.x0).is_dense
    h = small.smooth.eval_hess(small.x0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        vv = rng.standard_normal(small.dim)
        np.testing.assert_allclose(h.dense @ vv, h.apply(vv), rtol=1e-12)
    # the closed-form dense Hessian equals the column assembly of the hvp,
    # at a point with negative entries in both U and V (both masks active)
    inst = small.instance
    x = small.x0 + 0.1 * rng.standard_normal(small.dim)
    x[:inst.d * inst.r:3] = -0.3
    x[inst.d * inst.r::4] = -0.2
    dense = small.smooth.eval_hess(x).dense
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    by_hvp = small.smooth.eval_hess(x)  # LinOp.from_matvec(hvp, dim)
    assert not by_hvp.is_dense
    by_columns = columns(by_hvp)
    assert np.max(np.abs(dense - by_columns)) <= 1e-13 * np.max(np.abs(by_columns))


def test_nmf_preconditioner_inverts_gauss_newton_blocks(monkeypatch):
    p = make_nmf(2, d=6, n=5, r=3)
    inst = p.instance
    d, n, r = inst.d, inst.n, inst.r
    x = p.x0 + 0.1 * np.random.default_rng(1).standard_normal(p.dim)
    x[:d * r:3] = -0.3  # negative entries in U and in V: both masks active
    x[d * r::4] = -0.2
    u = x[:d * r].reshape(d, r)
    v = x[d * r:].reshape(n, r)
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    h = p.smooth.eval_hess(x)
    assert not h.is_dense and h.precond is not None
    shift = 2.0 * inst.alpha + np.concatenate([(u < 0).ravel(), (v < 0).ravel()]) / inst.beta
    gauss_newton = np.zeros((p.dim, p.dim))
    gauss_newton[:d * r, :d * r] = np.kron(np.eye(d), v.T @ v)
    gauss_newton[d * r:, d * r:] = np.kron(np.eye(n), u.T @ u)
    gauss_newton += np.diag(shift)
    for lam in (1e-3, 0.7, 30.0):
        m = columns(LinOp.from_matvec(h.precond(lam), p.dim))
        np.testing.assert_array_equal(m, m.T)
        assert np.min(np.linalg.eigvalsh(m)) > 0.0
        err = m @ (gauss_newton + lam * np.eye(p.dim)) - np.eye(p.dim)
        assert np.max(np.abs(err)) <= 1e-12


def test_nmf_preconditioner_cuts_minres_iterations(monkeypatch):
    p = make_nmf(1)
    h = p.smooth.eval_hess(p.x0)
    assert h.precond is not None
    plain = LinOp.from_matvec(h.matvec, h.dim)
    rhs = -p.smooth.eval_grad(p.x0)
    iters = {}
    minres = scipy.sparse.linalg.minres

    def count(xk):
        iters[label] += 1

    def counted(*args, **kwargs):
        return minres(*args, callback=count, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "minres", counted)
    lam = 1.0
    for label, op in (("plain", plain), ("preconditioned", h)):
        iters[label] = 0
        s = Regularized(op, MetricB()).solve(lam, rhs)
        res = np.linalg.norm(h.apply(s) + lam * s - rhs)
        assert res <= max(1e-10, 1e-12 * np.linalg.norm(rhs))
    assert 0 < iters["preconditioned"] < iters["plain"]


def test_svm_and_huber_hessians_stay_dense(monkeypatch):
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    for p in (make_svm(1, n=8, ell=30), make_huber(1, m=12, n=5)):
        assert p.smooth.eval_hess(p.x0).is_dense


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
    assert p.smooth.eval_f_diff(x, s) == pytest.approx(plain, rel=1e-12)


def test_nmf_eval_f_diff_resolves_decrease_below_rounding():
    # a step of norm 1e-10 orthogonal to the gradient changes f by about
    # 0.5 s^T H s, far below one ulp of f: the difference of two values
    # reads 0 or +-1 ulp, while eval_f_diff matches the Taylor expansion
    # (f is quartic and the step stays clear of the kinks, so the cubic
    # remainder is O(||s||^3))
    p = make_nmf(5, d=6, n=4, r=3)
    x = p.x0.copy()
    assert p.kink_gap(x) > 1e-3
    g = p.smooth.eval_grad(x)
    h = p.smooth.eval_hess(x).dense
    w = np.random.default_rng(3).standard_normal(x.size)
    w -= (w @ g) / (g @ g) * g
    x_plus = x + 1e-10 * w / np.linalg.norm(w)
    s = x_plus - x
    taylor = -(float(g @ s) + 0.5 * float(s @ (h @ s)))
    ulp = np.spacing(p.smooth.eval_f(x))
    assert 0.0 < abs(taylor) < ulp
    assert abs(p.smooth.eval_f(x) - p.smooth.eval_f(x_plus)) <= ulp
    assert abs(p.smooth.eval_f_diff(x, s) - taylor) <= 1e-8 * abs(taylor)


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
    assert p.smooth.eval_f_diff(x, s) == pytest.approx(plain, rel=1e-12)


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
    assert abs(p.smooth.eval_f_diff(x, s) - ref) <= 1e-8 * ref


def test_nmf_data_model():
    p = make_nmf(2, d=8, n=6, r=2, sigma=0.0)
    inst = p.instance
    assert inst.Y.shape == (8, 6)
    # noiseless Y from uniform factors is on [0, r]
    assert np.all(inst.Y >= 0.0) and np.all(inst.Y <= 2.0)
    assert abs(np.std(p.x0) - 0.5) < 0.25


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
    np.testing.assert_allclose(p.smooth.eval_hess(np.array([0.8])).dense, [[1.0]])
    np.testing.assert_allclose(p.smooth.eval_hess(np.array([2.0])).dense, [[0.0]])
    # residual hits |r| = delta at x = 1.5
    assert p.kink_gap(np.array([1.5])) == pytest.approx(0.0, abs=1e-15)
    assert p.kink_gap(np.array([0.8])) == pytest.approx(0.7, rel=1e-14)


def test_huber_default_instance():
    p = make_huber(1)
    assert p.instance.A.shape == (500, 50)
    np.testing.assert_array_equal(p.x0, np.zeros(50))
    # ridge shows up in the Hessian diagonal
    h = p.smooth.eval_hess(p.x0).dense
    np.testing.assert_array_equal(h, h.T)
    assert np.all(np.linalg.eigvalsh(h) >= 0.01 - 1e-9)


# ---------------------------------------------------------------------- quad

def test_quadratic_spectrum_and_solution():
    p = make_quadratic(5, n=12, cond=1e3)
    a = p.instance.A
    eigs = np.linalg.eigvalsh(a)
    assert eigs[0] == pytest.approx(1.0, rel=1e-9)
    assert eigs[-1] == pytest.approx(1e3, rel=1e-9)
    assert np.all(eigs >= 1.0 - 1e-6) and np.all(eigs <= 1e3 + 1e-6)
    g = p.smooth.eval_grad(p.known_xstar)
    assert np.linalg.norm(g) < 1e-9 * np.linalg.norm(p.instance.b)
    assert p.smooth.eval_f(p.known_xstar) == pytest.approx(p.known_fstar, abs=1e-9)
    # minimum really is a minimum
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert p.smooth.eval_f(p.known_xstar + 0.1 * rng.standard_normal(12)) \
            > p.known_fstar
    assert p.kink_gap(p.x0) == np.inf
    with pytest.raises(ValueError):
        make_quadratic(1, n=1)


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


def test_save_instance_rejects_foreign_object(tmp_path):
    with pytest.raises(TypeError):
        save_instance(tmp_path / "x.inst", object())
    with pytest.raises(TypeError):
        problem_from_instance(object())
