"""Problem oracles: smooth part, simple convex part, and their composite.

A problem is F = f + psi with f twice differentiable (gradient and Hessian
handles supplied by the user) and psi a "simple" convex term: either
identically zero or separable with a cheap proximal map.  The solver only
ever touches psi through prox evaluations and the subgradients it certifies
itself, so no subgradient oracle for psi is required here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .linalg import ActiveGram, BorderedBlocks, MetricB

__all__ = [
    "SmoothOracle",
    "ZeroPart",
    "SeparableProx",
    "CompositeProblem",
    "check_gradient_fd",
    "check_hvp_fd",
]


@dataclass(frozen=True)
class SmoothOracle:
    """Twice-differentiable part of the objective.

    The callables must be pure functions of x, because the solver may call
    them in any order: it evaluates f at a trial point before its gradient,
    and the gradient only for a trial that passes the decrease test.
    eval_hess returns the Hessian as a dense square ndarray, as a
    matrix-free scipy LinearOperator of shape (dim, dim) and matvec
    v -> H v when it is too large to assemble, as an ActiveGram
    rows[mask]^T rows[mask] + shift I, which the solver assembles from the
    previous refresh of the same solve, or as a BorderedBlocks, block
    diagonal in its leading variables (each group of blocks a shared base
    plus a diagonal per block, and the coupling an array or its two
    products), which the solver solves by eliminating the blocks
    (linalg.Regularized).  The solver never writes into a returned array,
    so an oracle may return one it keeps.
    Nothing in this package reads lipschitz_L, an optional bound L/2 on the
    Hessian operator norm: the solver adapts its regularizer instead.
    """

    dim: int
    eval_f: Callable[[np.ndarray], float]
    eval_grad: Callable[[np.ndarray], np.ndarray]
    eval_hess: Callable[[np.ndarray],
                        np.ndarray | LinearOperator | ActiveGram | BorderedBlocks]
    lipschitz_L: float | None = None


class ZeroPart:
    """psi identically zero."""

    is_zero = True

    def eval_psi(self, x: np.ndarray) -> float:
        return 0.0


class SeparableProx:
    """Separable convex psi given by value and proximal map.

    prox(v, t) must return argmin_y psi(y) + ||y - v||^2 / (2 t), applied
    coordinatewise; eval_psi returns the (finite) value of psi.
    """

    is_zero = False

    def __init__(self, prox: Callable[[np.ndarray, float], np.ndarray],
                 eval_psi: Callable[[np.ndarray], float]):
        self._prox = prox
        self._eval = eval_psi

    def eval_psi(self, x: np.ndarray) -> float:
        return float(self._eval(x))

    def prox(self, v: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self._prox(v, t), dtype=np.float64)


@dataclass
class CompositeProblem:
    """F = f + psi together with the metric the solver should work in.

    kink_gap, when provided, maps a point to its distance from the nearest
    nondifferentiability of the Hessian field (used to pick safe
    finite-difference test points).  eval_f_diff(x, s), when provided,
    returns the decrease f(x) - f(x + s) of the smooth part computed from
    the step itself, so that it stays accurate when the decrease is far
    below the rounding error eps * |f| of eval_f.  The solver consults it
    only where the decrease test would otherwise be decided by that
    rounding (see ssn); without it the rounding decides.  Both are
    functions of f's data: a caller who replaces smooth with another f must
    replace them too, or the problem keeps the old ones.  x0 is the
    canonical starting point for harness runs, and instance keeps the
    generator record so the problem can be exported and replayed elsewhere.
    """

    smooth: SmoothOracle
    psi: ZeroPart | SeparableProx
    metric: MetricB = field(default_factory=MetricB)
    known_fstar: float | None = None
    known_xstar: np.ndarray | None = None
    name: str = ""
    kink_gap: Callable[[np.ndarray], float] | None = None
    eval_f_diff: Callable[[np.ndarray, np.ndarray], float] | None = None
    x0: np.ndarray | None = None
    instance: object | None = None

    @property
    def dim(self) -> int:
        return self.smooth.dim


def check_gradient_fd(problem: CompositeProblem, x: np.ndarray, h: float = 1e-6) -> float:
    """Worst relative mismatch between the gradient oracle and central differences.

    Per-coordinate error |fd_i - g_i| / max(1, |fd_i|, |g_i|); the max over
    coordinates is returned.  Meaningful only at points where f is smooth on
    an h-neighbourhood (check kink_gap first for piecewise oracles).
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(problem.smooth.eval_grad(x), dtype=np.float64)
    worst = 0.0
    e = np.zeros_like(x)
    for i in range(x.shape[0]):
        e[i] = h
        fd = (problem.smooth.eval_f(x + e) - problem.smooth.eval_f(x - e)) / (2.0 * h)
        e[i] = 0.0
        err = abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i]))
        worst = max(worst, err)
    return worst


def check_hvp_fd(problem: CompositeProblem, x: np.ndarray, v: np.ndarray,
                 h: float = 1e-6) -> float:
    """Relative mismatch between H(x) v and a central difference of gradients.

    Returns ||H v - (grad(x + h v) - grad(x - h v)) / (2 h)|| / max(1, ||H v||).
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    hv = problem.smooth.eval_hess(x) @ v
    fd = (np.asarray(problem.smooth.eval_grad(x + h * v), dtype=np.float64)
          - np.asarray(problem.smooth.eval_grad(x - h * v), dtype=np.float64)) / (2.0 * h)
    return float(np.linalg.norm(hv - fd) / max(1.0, np.linalg.norm(hv)))
