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

    eval_f_diff(x, s), when provided, returns the decrease f(x) - f(x + s)
    of the smooth part computed from the step itself, so that it stays
    accurate when the decrease is far below the rounding error eps * |f| of
    eval_f.  The solver consults it only where the decrease test would
    otherwise be decided by that rounding (see ssn); without it the rounding
    decides.  It is a function of f's data: a caller who replaces smooth
    with another f must replace it too, or the problem keeps the old one.
    x0 is the canonical starting point for harness runs, and instance keeps
    the generator record so the problem can be exported and replayed
    elsewhere.
    """

    smooth: SmoothOracle
    psi: ZeroPart | SeparableProx
    metric: MetricB = field(default_factory=MetricB)
    name: str = ""
    eval_f_diff: Callable[[np.ndarray, np.ndarray], float] | None = None
    x0: np.ndarray | None = None
    instance: object | None = None

    @property
    def dim(self) -> int:
        return self.smooth.dim

