"""Metric-aware linear algebra kernels shared by the solver.

MetricB is the metric B, and Regularized the regularized models of one
Hessian refresh, for any lam: the linear systems H + lam B of a zero psi
and the composite model solve of a nonzero one.  An oracle's curvature
operator H is a dense square array, a matrix-free scipy LinearOperator,
an ActiveGram that Regularized assembles, or a BorderedBlocks, whose
groups of blocks are each one shared base plus a diagonal per block, and
which Regularized solves by eliminating its diagonal blocks; its Schur
complement is then factored when the coupling is an array, and solved by
MINRES, preconditioned by the tail's diagonal, when it is a pair of
products; a Regularized builds the pieces its route needs, and each solve
picks the route from them.  All four are applied as H @ v.  Every route,
direct or iterative, stops at the one forcing rule documented at THETA
and returns an InnerSolve of what it did beside its step.  Vectors are
1-d float64 arrays.  Nothing here mutates its inputs.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import LinearOperator

__all__ = [
    "THETA",
    "SolverStallError",
    "MetricError",
    "InnerSolve",
    "sym_part",
    "MetricB",
    "ActiveGram",
    "BorderedBlocks",
    "Regularized",
]

# Non-PD detection for the Cholesky path: a pivot this small relative to the
# mean diagonal is treated as numerically semidefinite.
_PIVOT_REL = 1e-14

# Forcing term of the inner solves.  A trial's model solve at x returns a
# step s and a subgradient v of psi at x + s, so that f'(x + s) + v lies in
# dF(x + s), and v is exact on every route: v = 0 for a zero psi, its only
# subgradient, whether H is solved directly or by MINRES (Regularized.solve),
# and FISTA's last prox step for a nonzero psi (prox_solve).  Every route
# stops once the model residual rho = f'(x) + (H + lam B) s + v meets the
# forcing rule
#
#     ||rho||_*  <=  THETA lam ||s||_B,
#
# a forcing term tied to the regularizer, as in inexact Newton (Dembo,
# Eisenstat & Steihaug 1982) and proximal Newton with an adaptive
# subproblem stop (Lee, Sun & Saunders 2014).  Acceptance is checked after
# the fact, so an inexact step is never accepted on trust; the rule only
# keeps a large enough lam passing.  For f quadratic and B = I,
# F'(x + s) = f'(x) + H s + v = rho - lam s, so with r = ||s||
#
#     <F'(x + s), -s>  =  lam r^2 - <rho, s>  >=  (1 - THETA) lam r^2,
#     ||F'(x + s)||    <=  ||rho|| + lam r    <=  (1 + THETA) lam r,
#
# and the pairing test holds once 2 (1 - THETA) >= (1 + THETA)^2, that is
# for every THETA <= sqrt(5) - 2 (about 0.236).  The forcing term shrinks
# with lam, like g_k^p in ssn, so the local order 1 + p survives (see
# tests/test_ssn.py for the orders observed).
THETA = 0.1

# rtol of a solve's first MINRES call.  scipy stops once its residual
# estimate is within rtol ||A|| ||s||, not THETA lam ||s||, so the step is
# then checked against the rule itself.  On the Schur complement of the
# matrix-free NMF Hessian (make_nmf seeds 1-17 at the benchmark's config,
# grad_tol = 1, 1 BLAS thread, Jacobi preconditioned), THETA**2 misses the
# rule on the first call in 224 of 1025 solves; THETA**3 in 28 of 1029, each
# met by one correction, at a median first-call ||rho|| / (lam ||s||) of
# 0.0017.  Those figures hold only at that loose tolerance: scipy's stop
# scales with ||A|| ||s||, while the target THETA lam ||s|| shrinks as
# lam ~ g^p falls, so a run to a tight tolerance corrects about half its
# first calls (make_nmf(1) at grad_tol = 1e-8: 257 of 531 solves miss,
# with 344 corrections and 18243 iterations in all).
_MINRES_RTOL = THETA**3

# FISTA sweeps per composite model solve (Regularized.prox_solve).
_PROX_MAX_SWEEPS = 500

class SolverStallError(RuntimeError):
    """An inner solve missed its residual target.

    Carries the best residual reached so callers can report how close the
    solve got before giving up.
    """

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = float(best_residual)


class MetricError(ValueError):
    """The supplied metric matrix is not symmetric positive definite."""


class InnerSolve(NamedTuple):
    """What one inner solve did, returned beside its step: the route that ran (path:
    "cholesky" or "lu", of H + lam B or a Schur complement, "minres" or "prox"), its
    MINRES iterations over all calls or prox sweeps with backtracking tries (iters; 0
    otherwise), its refinement corrections (0 to 3), and ratio = ||rho||_* / (THETA lam
    ||s||_B) at the returned step, at most 1 (0 when rho is)."""

    path: str
    iters: int
    corrections: int
    ratio: float


def sym_part(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a.T) / 2 of a square matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


class MetricB:
    """Inner-product metric: identity by default, or a dense SPD matrix.

    The primal norm is ||v|| = sqrt(v^T B v) and the dual norm of a gradient
    is ||g||_* = sqrt(g^T B^{-1} g), one formula for either metric (for the
    identity, the ddot np.linalg.norm runs); duality pairings stay plain dot
    products.  A dense metric must be finite and is validated by Cholesky
    at construction.
    """

    def __init__(self, matrix: np.ndarray | None = None):
        self.matrix = None
        if matrix is not None:
            m = np.asarray(matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise MetricError(f"metric must be square, got shape {m.shape}")
            if not np.isfinite(m).all():
                raise MetricError("metric has an entry that is not finite")
            if not np.allclose(m, m.T, rtol=1e-12, atol=1e-12):
                raise MetricError("metric must be symmetric")
            m = sym_part(m)
            self._inverse = _cholesky_solver(m)
            if self._inverse is None:
                raise MetricError("metric is not numerically positive definite")
            self.matrix = m

    @property
    def is_identity(self) -> bool:
        return self.matrix is None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """B v."""
        if self.matrix is None:
            return np.asarray(v, dtype=np.float64)
        return self.matrix @ v

    def solve(self, g: np.ndarray) -> np.ndarray:
        """B^{-1} g."""
        if self.matrix is None:
            return np.asarray(g, dtype=np.float64)
        return self._inverse(g)

    def norm(self, v: np.ndarray) -> float:
        return math.sqrt(max(float(v @ self.apply(v)), 0.0))

    def dual_norm(self, g: np.ndarray) -> float:
        return math.sqrt(max(float(g @ self.solve(g)), 0.0))


class ActiveGram:
    """The Gram rows[mask]^T rows[mask] + shift I, unassembled.

    The generalized Hessian of a piecewise-quadratic loss has this form and
    depends on x only through the boolean mask of rows on their quadratic
    piece.  It exposes shape and @ the way an array does; Regularized
    assembles it once per refresh, from the previous refresh's Gram when the
    masks are close.  rows must be a 2-d array and mask a 1-d boolean array
    with one entry per row, checked here.
    """

    def __init__(self, rows: np.ndarray, mask: np.ndarray, shift: float = 0.0):
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2):
            raise ValueError(f"rows must be a 2-d array, got shape {_shape(rows)}")
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.shape == rows.shape[:1]):
            got = f"{mask.dtype} {mask.shape}" if isinstance(mask, np.ndarray) else _shape(mask)
            raise ValueError(f"mask must be a boolean array of shape ({rows.shape[0]},), "
                             f"one entry per row, got {got}")
        self.rows = rows.astype(np.float64, copy=False)  # a float64 array is kept as is
        self.mask = mask
        self.shift = float(shift)
        self.shape = (rows.shape[1], rows.shape[1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.rows.T @ np.where(self.mask, self.rows @ v, 0.0) + self.shift * v

    def assemble(self) -> np.ndarray:
        """The dense Gram, exactly symmetric (syrk on the active rows, uncopied if all are)."""
        act = self.rows if self.mask.all() else self.rows[self.mask]
        dense = act.T @ act
        dense[np.diag_indices_from(dense)] += self.shift
        return dense


class BorderedBlocks:
    """The symmetric [[blockdiag(A_i), C], [C^T, T]], unassembled.

    A Hessian that is block diagonal in one group of variables has this
    form.  Each block group is one shared symmetric base plus one diagonal
    per block: blocks is a pair (base, diags) of a (b, b) base and a (k, b)
    array, with A_i = base + diag(diags[i]), and tail a pair of the same
    kind for the blocks of a block-diagonal T.  The coupling C is either the
    (k b, m) array (the dense form) or the pair (matvec, rmatvec) of
    callables p -> C p and q -> C^T q (the matrix-free form); nothing else
    differs between the forms, and nothing else is kept.  The parts are
    checked for sizes that fit and for symmetric bases here; split = k b is
    the first row of the tail.  It exposes shape and @ the way an array
    does, one product for both forms; Regularized eliminates the blocks per
    solve (see solve), and assemble() is the dense array.
    """

    def __init__(self, blocks, coupling, tail):
        self.split = _shifted_size("blocks", blocks)
        m = _shifted_size("tail", tail)
        if isinstance(coupling, np.ndarray):
            if coupling.shape != (self.split, m):
                raise ValueError(f"block groups of {self.split} and {m} rows take a coupling "
                                 f"of shape ({self.split}, {m}), got {coupling.shape}")
            coupling = coupling.astype(np.float64, copy=False)
        elif not (isinstance(coupling, tuple) and len(coupling) == 2
                  and all(map(callable, coupling))):
            raise ValueError("coupling is an array or a (matvec, rmatvec) pair, "
                             f"got {type(coupling).__name__}")
        self.blocks, self.tail = (tuple(a.astype(np.float64, copy=False) for a in group)
                                  for group in (blocks, tail))  # float64 arrays are kept as is
        self.coupling = coupling
        self.shape = (self.split + m,) * 2

    @property
    def is_dense(self) -> bool:
        return isinstance(self.coupling, np.ndarray)

    @property
    def arrays(self) -> tuple:
        """Every stored array: the matrix-free coupling is not one."""
        return self.blocks + self.tail + ((self.coupling,) if self.is_dense else ())

    @property
    def _products(self) -> tuple:
        """The pair (p -> C p, q -> C^T q): an array coupling's @ and .T @."""
        c = self.coupling
        return (c.__matmul__, c.T.__matmul__) if self.is_dense else c

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        head, rest = v[:self.split], v[self.split:]
        matvec, rmatvec = self._products
        return np.concatenate([_shifted_apply(self.blocks, head) + matvec(rest),
                               rmatvec(head) + _shifted_apply(self.tail, rest)])

    def assemble(self) -> np.ndarray:
        """The dense array, exactly symmetric (the bases are)."""
        kb = self.split
        dense = np.zeros(self.shape)
        _block_diagonal(dense[:kb, :kb], _shifted_blocks(*self.blocks))
        _block_diagonal(dense[kb:, kb:], _shifted_blocks(*self.tail))
        dense[:kb, kb:] = (self.coupling if self.is_dense else
                           np.stack([self.coupling[0](e) for e in np.eye(self.shape[0] - kb)],
                                    axis=1))
        dense[kb:, :kb] = dense[:kb, kb:].T
        return dense


def _shape(a):
    """a.shape for an array, else the name of a's type, for error messages."""
    return a.shape if isinstance(a, np.ndarray) else type(a).__name__


def _shifted_size(name: str, group) -> int:
    """The rows k b of a block group (base, diags), checked."""
    if not (isinstance(group, tuple) and len(group) == 2):
        raise ValueError(f"a {name} group is a (base, diags) pair, "
                         f"got {type(group).__name__}")
    base, diags = group
    if not (isinstance(base, np.ndarray) and base.ndim == 2 and base.shape[0] == base.shape[1]):
        raise ValueError(f"the {name} base must be square, got shape {_shape(base)}")
    if not np.array_equal(base, base.T, equal_nan=True):
        raise ValueError(f"the {name} base must be symmetric")
    if not (isinstance(diags, np.ndarray) and diags.ndim == 2
            and diags.shape[1] == base.shape[0]):
        raise ValueError(f"the {name} diagonals must be rows of width {base.shape[0]}, "
                         f"got shape {_shape(diags)}")
    return diags.size


def _block_apply(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """blockdiag(blocks) @ v for a (k, b, b) stack."""
    k, b, _ = blocks.shape
    return np.matmul(blocks, v.reshape(k, b, 1)).ravel()


def _shifted_apply(group: tuple, v: np.ndarray) -> np.ndarray:
    """blockdiag(base + diag(diags[i])) @ v for a pair (base, diags), by one
    gemm on the (k, b) view Q of v: Q base + diags * Q, as base is symmetric."""
    base, diags = group
    q = v.reshape(diags.shape)
    return (q @ base + diags * q).ravel()


def _shifted_blocks(base: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """The (k, b, b) stack of base + diag(diags[i]), one block per row of diags."""
    k, b = diags.shape
    blocks = np.repeat(base[None], k, axis=0)
    blocks.reshape(k, b * b)[:, ::b + 1] += diags
    return blocks


def _block_diagonal(out: np.ndarray, blocks: np.ndarray) -> None:
    """Add the (k, b, b) stack blocks onto the diagonal blocks of the (k b, k b) out."""
    k, b, _ = blocks.shape
    out.reshape(k, b, k, b)[np.arange(k), :, np.arange(k), :] += blocks


class Regularized:
    """H + lam B for every lam > 0, built once per Hessian refresh.

    H is a dense array, which is replaced by its symmetric part (H + H^T) / 2
    (a new array; the caller's is never written), a matrix-free scipy
    LinearOperator, an ActiveGram, which is assembled here (see _assemble),
    or a BorderedBlocks, assembled only when dense with a metric other than
    the identity.  A refresh keeps data, no function or method, so that
    reference counting alone frees it.  For a BorderedBlocks with the
    identity metric that is the keys of its diagonal blocks (_blocks: the
    distinct rows of the diags of its pair (base, diags), and each block's
    index among them) and, on the dense form only, its tail as one
    block-diagonal array (_tail); solve picks the route from them on each
    call, and the matrix-free route reads the tail's diagonal from h at each
    solve.  solve and apply set nothing on the refresh, so no step depends
    on an earlier solve; prox_solve keeps only FISTA's last accepted step
    size.  prev is the previous refresh, from which an ActiveGram is built
    and that step size is taken; it is not kept.
    """

    # parts that are not finite build pieces that are not either, without a
    # warning: is_finite reports them, and ssn.solve raises NonFiniteError
    @np.errstate(invalid="ignore", over="ignore")
    def __init__(self, h: np.ndarray | LinearOperator | ActiveGram | BorderedBlocks,
                 metric: MetricB, prev: Regularized | None = None):
        self.metric = metric
        self._t = prev._t if prev is not None else None  # FISTA's last accepted step
        self.gram = h if isinstance(h, ActiveGram) else None
        if isinstance(h, BorderedBlocks) and h.is_dense and not metric.is_identity:
            h = h.assemble()  # its blocks are not blocks of the pencil (H, B)
        if self.gram is not None:
            h = self._assemble(prev)
        elif isinstance(h, np.ndarray):
            h = sym_part(h)
        elif not isinstance(h, (LinearOperator, BorderedBlocks)):
            raise TypeError(f"eval_hess must return an ndarray, a LinearOperator, an "
                            f"ActiveGram or a BorderedBlocks, got {type(h).__name__}")
        self.h = h
        self.is_dense = isinstance(h, np.ndarray) or (isinstance(h, BorderedBlocks) and h.is_dense)
        self._blocks = None
        if isinstance(h, BorderedBlocks) and metric.is_identity:
            self._blocks = _distinct(h.blocks[1])
            if h.is_dense:
                m = h.shape[0] - h.split
                self._tail = np.zeros((m, m))  # blockdiag(tail), for the Schur complement
                _block_diagonal(self._tail, _shifted_blocks(*h.tail))

    def _assemble(self, prev: Regularized | None) -> np.ndarray:
        """The dense H of self.gram, from prev's when both share rows and shift.

        An unchanged mask keeps prev's array.  A churn of at most half the
        active rows copies prev's array, adds A_add^T A_add and subtracts
        A_rem^T A_rem, which keeps it exactly symmetric; a larger one, which
        would let the rounding of the updates build up, assembles in full.
        """
        gram = self.gram
        old = prev.gram if prev is not None else None
        if old is None or old.rows is not gram.rows or old.shift != gram.shift:
            return gram.assemble()
        changed = gram.mask != old.mask
        churn = np.count_nonzero(changed)
        if churn == 0:
            return prev.h
        if churn > 0.5 * np.count_nonzero(gram.mask):
            return gram.assemble()
        added = gram.rows[changed & gram.mask]
        removed = gram.rows[changed & old.mask]
        h = prev.h + added.T @ added
        h -= removed.T @ removed
        return h

    @property
    def is_finite(self) -> bool:
        """Whether every stored entry of H is finite; matrix-free parts are not read."""
        h = self.h
        parts = ((h,) if isinstance(h, np.ndarray) else h.arrays if isinstance(h, BorderedBlocks)
                 else ())
        return all(np.all(np.isfinite(part)) for part in parts)

    def apply(self, lam: float, v: np.ndarray) -> np.ndarray:
        """(H + lam B) v."""
        return self.h @ v + lam * self.metric.apply(v)

    def _forcing(self, lam: float, s: np.ndarray) -> float:
        """THETA lam ||s||_B, the bound of the forcing rule (see THETA) at step s."""
        return THETA * lam * self.metric.norm(s)

    def prox_solve(self, lam: float, x: np.ndarray, f_grad: np.ndarray, psi,
                   s0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, InnerSolve]:
        """Minimize the regularized model with nonzero psi inexactly, by FISTA with restart.

        Accelerated proximal gradient (Beck & Teboulle 2009) from x + s0 (x
        when s0 is None).  Each sweep takes the prox step
        y = prox_{t psi}(z - t grad m(z)) from the extrapolated point z, whose
        optimality condition makes v = (z - y) / t - grad m(z) an exact
        subgradient of psi at y.  The momentum restarts, theta = 1 and z = y,
        whenever the step from the previous y points against the
        prox-gradient mapping z - y (O'Donoghue & Candes 2015).  The model is
        quadratic, so grad m(y) - grad m(z) = (H + lam B)(y - z) is its exact
        curvature, on which t backtracks (Beck & Teboulle 2009, sec. 4): a
        sweep with <grad m(y) - grad m(z), z - y> < -||z - y||^2 / t halves t
        and takes the prox again from z, a try that counts as a sweep.  A
        call starts at twice the last step accepted on this refresh or the
        previous one, else at 1 / lam; a curvature that is not finite (say, a
        matrix-free H whose products are not) raises SolverStallError at once.

        Returns (y, v, InnerSolve) once the model residual rho = grad m(y) + v =
        f'(x) + (H + lam B)(y - x) + v meets the forcing rule
        ||rho||_* <= THETA lam ||y - x||_B.  grad m is affine, so grad m(z) is
        combined from the gradients at the last two prox points and a sweep
        applies H once.  Exhausting the sweep budget raises SolverStallError.
        """
        _check_lam(lam)
        t = 1.0 / lam if self._t is None else 2.0 * self._t
        y = x if s0 is None else x + s0
        z, grad_y = y, f_grad + self.apply(lam, y - x)
        grad_z = grad_y
        theta = 1.0
        resid = np.inf
        for sweep in range(1, _PROX_MAX_SWEEPS + 1):
            y_new = psi.prox(z - t * grad_z, t)
            gap = z - y_new
            s_new = y_new - x
            grad_new = f_grad + self.apply(lam, s_new)
            curv = float((grad_new - grad_z) @ gap)
            if not math.isfinite(curv):
                raise SolverStallError(f"model curvature is {curv}", best_residual=np.inf)
            if curv < -float(gap @ gap) / t:
                t *= 0.5
                continue
            self._t = t
            v = gap / t - grad_z
            resid, goal = self.metric.dual_norm(grad_new + v), self._forcing(lam, s_new)
            if resid <= goal:
                return y_new, v, InnerSolve("prox", sweep, 0, resid / goal if resid else 0.0)
            step = y_new - y
            if float(gap @ step) > 0.0:
                theta = 1.0
                z, grad_z = y_new, grad_new
            else:
                theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
                beta = (theta - 1.0) / theta_new
                z = y_new + beta * step
                grad_z = grad_new + beta * (grad_new - grad_y)
                theta = theta_new
            y, grad_y = y_new, grad_new
        raise SolverStallError(
            f"model prox-gradient stalled at model residual {resid:.3e}",
            best_residual=resid,
        )

    def solve(self, lam: float, rhs: np.ndarray) -> tuple[np.ndarray, InnerSolve]:
        """Solve (H + lam B) s = rhs by the route the refresh's pieces pick.

        The one dispatch of a regularized solve: a refresh with _blocks set
        eliminates them (_elimination_solver), a dense array H is factored as H +
        lam B (_direct_solver: Cholesky, then LU; a singular one raises
        SolverStallError), and any other H goes to MINRES on H + lam B
        (_minres_solver, capped at 10 n iterations per call).  From s = 0 and rho =
        rhs (a zero rhs too), each of up to four attempts sets s += once(rho), rho =
        rhs - (H + lam B) s by apply; all after the first are corrections.  The
        first s whose residual meets the forcing rule ||rho||_* <= THETA lam ||s||_B
        that prox_solve shares is returned, with the InnerSolve of the route and of
        the loop.  With rhs = -f'(x) and psi = 0, -rho is the model residual f'(x) +
        (H + lam B) s.  When no attempt meets the rule (a NaN residual never does),
        SolverStallError carries the smallest residual.
        """
        _check_lam(lam)
        rhs = np.asarray(rhs, dtype=np.float64)
        n = self.h.shape[0]
        if rhs.shape != (n,):
            raise ValueError(f"operator dim {n} takes an rhs of shape ({n},), got {rhs.shape}")
        ticks = itertools.count()  # one tick per MINRES iteration
        if self._blocks is not None:
            once, path = self._elimination_solver(lam, ticks)
        elif isinstance(self.h, np.ndarray):
            shift = np.eye(n) if self.metric.is_identity else self.metric.matrix
            once, path = _direct_solver(self.h + lam * shift, f"H + {lam:.3e} B")
        else:
            once, path = _minres_solver(lambda v: self.apply(lam, v), n, ticks)
        s, r = np.zeros(n), rhs
        for attempt in range(4):
            s = s + once(r)
            r = rhs - self.apply(lam, s)
            res, goal = self.metric.dual_norm(r), self._forcing(lam, s)
            if res <= goal:
                return s, InnerSolve(path, next(ticks), attempt, res / goal if res else 0.0)
            best = res if attempt == 0 else min(best, res)
        raise SolverStallError(
            f"regularized solve stalled at residual {best:.3e} (target {goal:.3e})",
            best_residual=best,
        )

    def _elimination_solver(self, lam: float, ticks):
        """(r -> a step for (H + lam I) s = r, path), H a BorderedBlocks, by block elimination.

        With A = blockdiag(blocks) + lam I and C the coupling, the Schur
        complement S = tail + lam I - C^T A^{-1} C carries all of the
        coupling (Golub & Van Loan, Matrix Computations, secs. 3.2 and 4.2):
        S s_2 = r_2 - C^T A^{-1} r_1, and s_1 = A^{-1} r_1 - A^{-1} C s_2.
        A^{-1} is exact, inverted at this lam from the shared base and the
        refresh's distinct diagonals (_inverse), so the whole residual lies
        in the tail rows.  The forms differ only in how S is solved: the
        dense form forms it as (T - C^T A^{-1} C) + lam I, T the refresh's
        block-diagonal tail array, and factors it (_direct_solver; LU means
        H + lam I is indefinite, as A is positive definite for positive
        definite blocks), and the matrix-free form runs MINRES on it, applying
        S p = (tail + lam I) p - C^T A^{-1} C p matrix-free, tail + lam I by
        one gemm (_shifted_apply).  S is preconditioned by Jacobi on the
        tail, 1 / ((diag(base) + diags) + lam) from the tail's pair at this
        solve's lam, which MINRES needs positive definite (so it stays valid
        for an indefinite S): an entry of diag(tail) + lam that is not
        positive, NaN included, raises SolverStallError, and a larger lam may
        then solve.
        """
        h = self.h
        kb = h.split
        distinct, which = self._blocks
        inv = _inverse(h.blocks[0], distinct, lam)[which]
        matvec, rmatvec = h._products
        if h.is_dense:
            inv_c = np.matmul(inv, h.coupling.reshape(*inv.shape[:2], -1)).reshape(kb, -1)
            schur = self._tail - h.coupling.T @ inv_c
            schur.reshape(-1)[::schur.shape[0] + 1] += lam  # a view: schur is new
            schur_solve, path = _direct_solver(schur, f"Schur complement of H + {lam:.3e} I")
            inv_c_apply = inv_c.__matmul__
        else:
            diag = (np.diagonal(h.tail[0]) + h.tail[1]).reshape(-1) + lam
            if not np.all(diag > 0.0):
                raise SolverStallError("the tail diagonal of H + lam I is not positive",
                                       best_residual=np.inf)
            shifted_tail = (h.tail[0], h.tail[1] + lam)  # tail + lam I
            inv_c_apply = lambda q: _block_apply(inv, matvec(q))
            schur_solve, path = _minres_solver(
                lambda p: _shifted_apply(shifted_tail, p) - rmatvec(inv_c_apply(p)),
                diag.size, ticks, 1.0 / diag)

        def once(r):
            head = _block_apply(inv, r[:kb])
            rest = schur_solve(r[kb:] - rmatvec(head))
            return np.concatenate([head - inv_c_apply(rest), rest])
        return once, path


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, which) for a (k, b) array: its distinct rows, compared
    bit for bit, and the index of each row among them.

    The rows are sorted as byte strings, and each run of equal neighbours
    is one distinct row; np.unique on the same byte strings takes about
    four times as long (0.34 against 0.09 ms for 200 blocks of 12 x 12).
    """
    k = rows.shape[0]
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    bits = rows.view(np.int64)
    order = np.argsort(bits.view(f"V{bits.shape[1] * 8}").ravel(), kind="stable")
    ordered = bits[order]
    starts = np.ones(k, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    which = np.empty(k, dtype=np.intp)
    which[order] = np.cumsum(starts) - 1
    return rows[order[starts]], which


def _inverse(base: np.ndarray, diags: np.ndarray, lam: float) -> np.ndarray:
    """(base + diag(diags[i]) + lam I)^{-1}, one block per row of diags.

    The blocks are built from the pair (_shifted_blocks) and lam is added
    on their diagonals, then all are inverted in one batched call; raises
    SolverStallError when one of them is singular or an inverse is not
    finite.
    """
    k, b = diags.shape
    shifted = _shifted_blocks(base, diags)
    shifted.reshape(k, b * b)[:, ::b + 1] += lam  # the diagonal of each block
    try:
        inv = np.linalg.inv(shifted)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.isfinite(inv).all():
        raise SolverStallError("a diagonal block of H + lam I is singular", best_residual=np.inf)
    return inv


def _minres_solver(matvec, n: int, ticks, scale: np.ndarray | None = None):
    """(r -> MINRES solution of the n x n system whose product is matvec, "minres").

    The one place a MINRES operator or preconditioner is built; a call is
    one step of a solve's refinement loop.  The first call runs to scipy's
    rtol _MINRES_RTOL, and each correction tightens it by that factor again,
    so a step that misses the forcing rule (an ill-scaled operator, whose
    ||H|| dwarfs lam) is corrected more tightly each time.  MINRES's M is
    the Jacobi preconditioner diag(scale), scale positive, or None, and its
    callback advances the counter ticks once per iteration.
    """
    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    precond = (None if scale is None else
               LinearOperator((n, n), matvec=lambda q: scale * q, dtype=np.float64))
    calls = itertools.count(1)
    return (lambda r: scipy.sparse.linalg.minres(op, r, rtol=_MINRES_RTOL ** next(calls),
                                                 maxiter=10 * n, M=precond,
                                                 callback=lambda xk: next(ticks))[0]), "minres"


def _check_lam(lam: float) -> None:
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"regularizer must be positive and finite, got {lam}")


def _direct_solver(m: np.ndarray, name: str):
    """(r -> m^{-1} r, path) for a dense symmetric m, by Cholesky, or by LU
    when Cholesky declines m (it is then indefinite or near singular).
    Raises SolverStallError, naming m, when LU declines it too."""
    once, path = _cholesky_solver(m), "cholesky"
    if once is None:
        once, path = _lu_solver(m), "lu"
    if once is None:
        raise SolverStallError(f"{name} is singular", best_residual=np.inf)
    return once, path


def _lu_solver(m: np.ndarray):
    """r -> m^{-1} r by LU with partial pivoting; None when a pivot is not
    finite or is below _PIVOT_REL times the mean pivot size."""
    lu, piv, _ = scipy.linalg.lapack.dgetrf(m)
    pivots = np.abs(np.diag(lu))
    if not np.min(pivots) > _PIVOT_REL * np.mean(pivots):
        return None
    return lambda r: scipy.linalg.lapack.dgetrs(lu, piv, r)[0]


def _cholesky_solver(m: np.ndarray):
    """r -> m^{-1} r by Cholesky; None when a pivot is not finite or fails the test."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    if not chol.diagonal().min() ** 2 > _PIVOT_REL * (m.trace() / m.shape[0]):
        return None
    # LAPACK's potrs, which scipy.linalg.cho_solve calls, on a Fortran-ordered
    # copy made once here rather than on every solve
    chol = np.asfortranarray(chol)
    return lambda r: scipy.linalg.lapack.dpotrs(chol, r, lower=1)[0]
