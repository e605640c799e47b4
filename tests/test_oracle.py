import numpy as np
import pytest

from gladssn.linalg import MetricB
from gladssn.oracle import CompositeProblem, SeparableProx, SmoothOracle, ZeroPart

from helpers import check_gradient_fd, check_hvp_fd


def quad_problem(a, b):
    """f(x) = x^T a x - b^T x with exact oracles (a symmetric)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return CompositeProblem(
        smooth=SmoothOracle(
            dim=b.shape[0],
            eval_f=lambda x: float(x @ (a @ x) - b @ x),
            eval_grad=lambda x: 2.0 * (a @ x) - b,
            eval_hess=lambda x: 2.0 * a,
        ),
        psi=ZeroPart(),
        name="testquad",
    )


def test_zero_part():
    z = ZeroPart()
    v = np.array([1.0, -2.0])
    assert z.is_zero
    assert z.eval_psi(v) == 0.0


def test_separable_prox_soft_threshold():
    # psi = ||.||_1, prox is coordinatewise soft-thresholding
    psi = SeparableProx(
        prox=lambda v, t: np.sign(v) * np.maximum(np.abs(v) - t, 0.0),
        eval_psi=lambda x: float(np.sum(np.abs(x))),
    )
    assert not psi.is_zero
    assert psi.eval_psi(np.array([1.0, -2.0])) == 3.0
    np.testing.assert_allclose(psi.prox(np.array([3.0, -0.2, 1.0]), 0.5),
                               [2.5, 0.0, 0.5], atol=1e-15)
    # prox optimality: 0 in subdiff at the output, checked against a grid
    v, t = 1.7, 0.6
    ys = np.linspace(-3, 3, 4001)
    obj = np.abs(ys) + (ys - v) ** 2 / (2 * t)
    y_grid = ys[np.argmin(obj)]
    assert abs(float(psi.prox(np.array([v]), t)[0]) - y_grid) < 2e-3


def test_composite_eval_F():
    p = quad_problem(np.eye(2), np.zeros(2))
    assert p.dim == 2


def test_check_gradient_fd_accepts_exact_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    p = quad_problem(a + a.T, rng.standard_normal(5))
    x = rng.standard_normal(5)
    assert check_gradient_fd(p, x) < 1e-8


def test_check_gradient_fd_flags_wrong_oracle():
    p = quad_problem(np.eye(3), np.zeros(3))
    broken = CompositeProblem(
        smooth=SmoothOracle(dim=3,
                            eval_f=p.smooth.eval_f,
                            eval_grad=lambda x: 2.0 * x + 0.05,  # off by a constant
                            eval_hess=p.smooth.eval_hess),
        psi=ZeroPart())
    assert check_gradient_fd(broken, np.ones(3)) > 1e-3


def test_check_hvp_fd_accepts_exact_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    p = quad_problem(a + a.T, np.zeros(4))
    assert check_hvp_fd(p, rng.standard_normal(4), rng.standard_normal(4)) < 1e-8


def test_check_hvp_fd_flags_wrong_oracle():
    p = quad_problem(np.eye(3), np.zeros(3))
    broken = CompositeProblem(
        smooth=SmoothOracle(dim=3,
                            eval_f=p.smooth.eval_f,
                            eval_grad=p.smooth.eval_grad,
                            eval_hess=lambda x: 2.5 * np.eye(3)),
        psi=ZeroPart())
    assert check_hvp_fd(broken, np.ones(3), np.ones(3)) > 1e-2


def test_default_metric_is_identity():
    p = quad_problem(np.eye(2), np.zeros(2))
    assert isinstance(p.metric, MetricB)
    assert p.metric.is_identity
