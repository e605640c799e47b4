"""Built-in benchmark problems.

KINDS maps each problem kind to its frozen instance record, its seeded
make_* generator (see rng for the bit-exact recipe; each generator documents
its draw order) and its oracle builder, which problem_from_instance applies.
save_instance writes an instance as JSON with floats by repr, and
load_instance reads it back bit for bit, each field checked against its
declared type and every array against the instance's sizes, so runs replay
across machines.

Hessians come back dense, except NMF's above DENSE_DIM_MAX variables,
which is a matvec handle with a block-Jacobi preconditioner.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .linalg import LinOp
from .oracle import CompositeProblem, SmoothOracle, ZeroPart
from .rng import Rng

__all__ = [
    "DENSE_DIM_MAX",
    "KINDS",
    "NmfInstance",
    "SvmInstance",
    "HuberInstance",
    "QuadInstance",
    "make_nmf",
    "make_svm",
    "make_huber",
    "make_quadratic",
    "problem_from_instance",
    "penalty_violation",
    "dataclass_from_json",
    "save_instance",
    "load_instance",
]

DENSE_DIM_MAX = 1500


# ---------------------------------------------------------------- instances

def _check_shapes(inst, **want: tuple) -> None:
    got = {name: np.shape(getattr(inst, name)) for name in want}
    if got != want:
        raise ValueError(f"{type(inst).__name__} arrays have shapes {got}, expected {want}")


@dataclass(frozen=True, eq=False)
class NmfInstance:
    seed: int
    d: int
    n: int
    r: int
    alpha: float
    beta: float
    sigma: float
    Y: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        _check_shapes(self, Y=(self.d, self.n), x0=((self.d + self.n) * self.r,))


@dataclass(frozen=True, eq=False)
class SvmInstance:
    seed: int
    gamma: float
    X: np.ndarray
    y: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        ell, n = np.size(self.y), np.size(self.x0) - 1
        _check_shapes(self, X=(ell, n), y=(ell,), x0=(n + 1,))


@dataclass(frozen=True, eq=False)
class HuberInstance:
    seed: int
    delta: float
    ridge: float
    A: np.ndarray
    b: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        m, n = np.size(self.b), np.size(self.x0)
        _check_shapes(self, A=(m, n), b=(m,), x0=(n,))


@dataclass(frozen=True, eq=False)
class QuadInstance:
    seed: int
    cond: float
    A: np.ndarray
    b: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        n = np.size(self.x0)
        _check_shapes(self, A=(n, n), b=(n,), x0=(n,))


# ----------------------------------------------------------------------- nmf

def make_nmf(seed: int, d: int = 200, n: int = 100, r: int = 12,
             alpha: float = 1e-2, beta: float = 1e-2,
             sigma: float = 0.02) -> CompositeProblem:
    """Penalized matrix factorization: recover Y ~ U V^T with U, V >= 0 soft.

    Draw order from Rng(seed): U_true (d x r, uniform), V_true (n x r,
    uniform), noise Z (d x n, normal), then x0 = 0.5 * normal(d r + n r).
    Y = U_true V_true^T + sigma Z.  Objective over x = (vec U, vec V):

        0.5 ||U V^T - Y||_F^2 + alpha (||U||_F^2 + ||V||_F^2)
        + 1/(2 beta) (||min(U, 0)||_F^2 + ||min(V, 0)||_F^2)
    """
    rng = Rng(seed)
    u_true = rng.uniform((d, r))
    v_true = rng.uniform((n, r))
    noise = rng.normal((d, n))
    x0 = 0.5 * rng.normal(d * r + n * r)
    inst = NmfInstance(seed=int(seed), d=int(d), n=int(n), r=int(r), alpha=float(alpha),
                       beta=float(beta), sigma=float(sigma),
                       Y=u_true @ v_true.T + sigma * noise, x0=x0)
    return problem_from_instance(inst)


def _nmf_problem(inst: NmfInstance) -> CompositeProblem:
    d, n, r = inst.d, inst.n, inst.r
    alpha, beta, y_obs = inst.alpha, inst.beta, inst.Y
    dim = (d + n) * r

    def unpack(x):
        return x[:d * r].reshape(d, r), x[d * r:].reshape(n, r)

    def eval_f(x):
        u, v = unpack(x)
        resid = u @ v.T - y_obs
        neg_u = np.minimum(u, 0.0)
        neg_v = np.minimum(v, 0.0)
        return (0.5 * float(np.sum(resid * resid))
                + alpha * (float(np.sum(u * u)) + float(np.sum(v * v)))
                + 0.5 / beta * (float(np.sum(neg_u * neg_u)) + float(np.sum(neg_v * neg_v))))

    def eval_grad(x):
        u, v = unpack(x)
        resid = u @ v.T - y_obs
        gu = resid @ v + 2.0 * alpha * u + np.minimum(u, 0.0) / beta
        gv = resid.T @ u + 2.0 * alpha * v + np.minimum(v, 0.0) / beta
        return np.concatenate([gu.ravel(), gv.ravel()])

    def eval_f_diff(x, s):
        # f(x) - f(x + s) from the step: every term is a difference of
        # squares a^2 - (a + b)^2 = -b (2 a + b), with b the change of a.
        # The residual changes by D = dU V^T + U dV^T + dU dV^T, and the
        # negative part by dU wherever it stays negative.
        u, v = unpack(x)
        du, dv = unpack(s)
        resid = u @ v.T - y_obs
        dresid = du @ v.T + u @ dv.T + du @ dv.T
        rise = float(np.sum(dresid * (resid + 0.5 * dresid)))
        for a, b in ((u, du), (v, dv)):
            neg = np.minimum(a, 0.0)
            a_plus = a + b
            dneg = np.where((a < 0.0) & (a_plus < 0.0), b, np.minimum(a_plus, 0.0) - neg)
            rise += (alpha * float(np.sum(b * (2.0 * a + b)))
                     + 0.5 / beta * float(np.sum(dneg * (2.0 * neg + dneg))))
        return -rise

    def eval_hess(x):
        u, v = unpack(x)
        resid = u @ v.T - y_obs
        mask_u = (u < 0.0).astype(np.float64)
        mask_v = (v < 0.0).astype(np.float64)
        if dim <= DENSE_DIM_MAX:
            # Closed form, rows and columns ordered (row, factor):
            #   H_UU = I_d (x) V^T V,  H_VV = I_n (x) U^T U,
            #   H_UV[(i,a),(j,b)] = U[i,b] V[j,a] + R[i,j] delta_ab,
            # plus the diagonal 2 alpha + mask / beta.  The blocks are
            # written through 4-d views of the one dense array.
            du = d * r
            dense = np.zeros((dim, dim))
            h_uu = dense[:du, :du].reshape(d, r, d, r)
            h_uv = dense[:du, du:].reshape(d, r, n, r)
            h_vv = dense[du:, du:].reshape(n, r, n, r)
            h_uu[np.arange(d), :, np.arange(d), :] = v.T @ v
            h_vv[np.arange(n), :, np.arange(n), :] = u.T @ u
            h_uv[...] = u[:, None, None, :] * v.T[None, :, :, None]
            h_uv[:, np.arange(r), :, np.arange(r)] += resid
            dense[du:, :du] = dense[:du, du:].T
            diag = np.concatenate([mask_u.ravel(), mask_v.ravel()]) / beta + 2.0 * alpha
            dense[np.arange(dim), np.arange(dim)] += diag
            return LinOp.from_dense(dense)

        # Gram form: the Gauss-Newton part (dU V^T + U dV^T) V, and its
        # transpose with U, is regrouped around V^T V and U^T U, so one
        # product with H costs two d x n products (the R terms), not six.
        gram_u = u.T @ u
        gram_v = v.T @ v
        shift_u = 2.0 * alpha + mask_u / beta
        shift_v = 2.0 * alpha + mask_v / beta

        def hvp(p):
            pu, pv = unpack(p)
            hu = pu @ gram_v + u @ (pv.T @ v) + resid @ pv + shift_u * pu
            hv = pv @ gram_u + v @ (pu.T @ u) + resid.T @ pu + shift_v * pv
            return np.concatenate([hu.ravel(), hv.ravel()])

        def precond(lam):
            # Block Jacobi: the inverse of the diagonal r x r blocks of
            # H + lam I, V^T V + diag(shift_u[i] + lam) for row i of U and
            # U^T U + diag(shift_v[j] + lam) for row j of V.  All d + n are
            # SPD and inverted in one batched call.
            blocks = np.empty((d + n, r, r))
            blocks[:d] = gram_v
            blocks[d:] = gram_u
            diag = np.arange(r)
            blocks[:d, diag, diag] += shift_u + lam
            blocks[d:, diag, diag] += shift_v + lam
            inv = np.linalg.inv(blocks)
            np.add(inv, inv.transpose(0, 2, 1), out=blocks)  # exactly symmetric
            blocks *= 0.5
            return lambda q: np.matmul(blocks, q.reshape(d + n, r, 1)).ravel()

        return LinOp.from_matvec(hvp, dim, precond=precond)

    return CompositeProblem(
        smooth=SmoothOracle(dim=dim, eval_f=eval_f, eval_grad=eval_grad,
                            eval_hess=eval_hess, eval_f_diff=eval_f_diff),
        psi=ZeroPart(), kink_gap=lambda x: float(np.min(np.abs(x))))


def penalty_violation(x: np.ndarray, inst: NmfInstance) -> float:
    """Value of the negative-part penalty 1/(2 beta) (||U_-||^2 + ||V_-||^2) at x."""
    neg = np.minimum(x, 0.0)  # x = (vec U, vec V)
    return 0.5 / inst.beta * float(np.sum(neg * neg))


# ----------------------------------------------------------------------- svm

def make_svm(seed: int, n: int = 200, ell: int = 10000,
             gamma: float = 1e4) -> CompositeProblem:
    """L2-hinge SVM on two gaussian blobs separated along the first axis.

    Draw order from Rng(seed): features G (ell x n, normal).  Labels are +1
    for the first ceil(ell/2) rows and -1 for the rest; the first feature is
    shifted by 1.5 * label.  Variables x = (omega, b):

        0.5 ||omega||^2 + gamma * sum_i max(0, 1 - y_i (omega^T x_i + b))^2
    """
    rng = Rng(seed)
    feats = rng.normal((ell, n))
    labels = np.ones(ell)
    labels[(ell + 1) // 2:] = -1.0
    feats[:, 0] += 1.5 * labels
    inst = SvmInstance(seed=int(seed), gamma=float(gamma), X=feats, y=labels,
                       x0=np.zeros(n + 1))
    return problem_from_instance(inst)


def _svm_problem(inst: SvmInstance) -> CompositeProblem:
    feats, labels, gamma = inst.X, inst.y, inst.gamma
    ell, n = feats.shape
    dim = n + 1
    # z_i = y_i * (x_i, 1); the Hessian is I_n (+) 0 plus 2 gamma Z_act^T Z_act.
    z_all = np.hstack([labels[:, None] * feats, labels[:, None]])

    def margins_resid(x):
        return 1.0 - labels * (feats @ x[:n] + x[n])

    def eval_f(x):
        relu = np.maximum(margins_resid(x), 0.0)
        return 0.5 * float(x[:n] @ x[:n]) + gamma * float(relu @ relu)

    def eval_grad(x):
        relu = np.maximum(margins_resid(x), 0.0)
        g = np.empty(dim)
        g[:n] = x[:n] - 2.0 * gamma * (feats.T @ (labels * relu))
        g[n] = -2.0 * gamma * float(labels @ relu)
        return g

    def eval_hess(x):
        active = margins_resid(x) > 0.0
        z_act = z_all[active]
        dense = 2.0 * gamma * (z_act.T @ z_act)
        dense[np.arange(n), np.arange(n)] += 1.0
        return LinOp.from_dense(dense)

    return CompositeProblem(
        smooth=SmoothOracle(dim=dim, eval_f=eval_f, eval_grad=eval_grad,
                            eval_hess=eval_hess),
        psi=ZeroPart(), kink_gap=lambda x: float(np.min(np.abs(margins_resid(x)))))


# --------------------------------------------------------------------- huber

def make_huber(seed: int, m: int = 500, n: int = 50, delta: float = 1.0,
               ridge: float = 1e-2) -> CompositeProblem:
    """Huber regression with a ridge term (strongly convex, modulus = ridge).

    Draw order from Rng(seed): A (m x n, normal), b (m, normal).  Objective:

        sum_i huber_delta(a_i^T x - b_i) + ridge/2 ||x||^2

    with huber_delta(t) = t^2/2 for |t| <= delta, else delta (|t| - delta/2).
    """
    rng = Rng(seed)
    a_mat = rng.normal((m, n))
    b_vec = rng.normal(m)
    inst = HuberInstance(seed=int(seed), delta=float(delta), ridge=float(ridge),
                         A=a_mat, b=b_vec, x0=np.zeros(n))
    return problem_from_instance(inst)


def _huber_problem(inst: HuberInstance) -> CompositeProblem:
    a_mat, b_vec, delta, ridge = inst.A, inst.b, inst.delta, inst.ridge
    m, n = a_mat.shape

    def huber(r):
        absr = np.abs(r)
        return np.where(absr <= delta, 0.5 * r * r, delta * (absr - 0.5 * delta))

    def eval_f(x):
        return float(np.sum(huber(a_mat @ x - b_vec))) + 0.5 * ridge * float(x @ x)

    def eval_grad(x):
        r = a_mat @ x - b_vec
        return a_mat.T @ np.clip(r, -delta, delta) + ridge * x

    def eval_f_diff(x, s):
        # f(x) - f(x + s) from the step, with d = A s the change of the
        # residual r: a row that stays quadratic drops by -d (r + d/2), one
        # that stays linear on the same side by -delta sign(r) d, and one
        # that crosses a kink by the plain difference of its two values.
        r = a_mat @ x - b_vec
        d = a_mat @ s
        r_plus = r + d
        quad = (np.abs(r) <= delta) & (np.abs(r_plus) <= delta)
        linear = (np.minimum(r, r_plus) > delta) | (np.maximum(r, r_plus) < -delta)
        cross = ~(quad | linear)
        drop = (-float(d[quad] @ (r[quad] + 0.5 * d[quad]))
                - delta * float(np.sign(r[linear]) @ d[linear])
                + float(np.sum(huber(r[cross]) - huber(r_plus[cross]))))
        return drop - ridge * float(s @ (x + 0.5 * s))

    def eval_hess(x):
        quad = np.abs(a_mat @ x - b_vec) <= delta
        a_act = a_mat[quad]
        dense = a_act.T @ a_act
        dense[np.arange(n), np.arange(n)] += ridge
        return LinOp.from_dense(dense)

    return CompositeProblem(
        smooth=SmoothOracle(dim=n, eval_f=eval_f, eval_grad=eval_grad,
                            eval_hess=eval_hess, eval_f_diff=eval_f_diff),
        psi=ZeroPart(),
        kink_gap=lambda x: float(np.min(np.abs(np.abs(a_mat @ x - b_vec) - delta))))


# ---------------------------------------------------------------------- quad

def make_quadratic(seed: int, n: int = 50, cond: float = 1e4) -> CompositeProblem:
    """Convex quadratic 0.5 x^T A x - b^T x with prescribed condition number.

    Draw order from Rng(seed): G (n x n, normal) whose sign-fixed QR gives
    the eigenbasis, then n - 2 log-uniform interior eigenvalues (endpoints
    pinned to 1 and cond), then b (normal), then x0 (normal).
    """
    if n < 2:
        raise ValueError("need n >= 2 to pin both ends of the spectrum")
    rng = Rng(seed)
    gauss = rng.normal((n, n))
    q, rr = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(rr))[None, :]
    eigs = np.empty(n)
    eigs[0] = 1.0
    eigs[n - 1] = float(cond)
    eigs[1:n - 1] = np.exp(rng.uniform(n - 2) * np.log(cond))
    a_mat = (q * eigs) @ q.T
    a_mat = 0.5 * (a_mat + a_mat.T)
    b_vec = rng.normal(n)
    x0 = rng.normal(n)
    inst = QuadInstance(seed=int(seed), cond=float(cond), A=a_mat, b=b_vec, x0=x0)
    return problem_from_instance(inst)


def _quad_problem(inst: QuadInstance) -> CompositeProblem:
    a_mat, b_vec = inst.A, inst.b
    n = a_mat.shape[0]
    xstar = np.linalg.solve(a_mat, b_vec)

    def eval_f(x):
        return 0.5 * float(x @ (a_mat @ x)) - float(b_vec @ x)

    return CompositeProblem(
        smooth=SmoothOracle(
            dim=n, eval_f=eval_f,
            eval_grad=lambda x: a_mat @ x - b_vec,
            eval_hess=lambda x: LinOp.from_dense(a_mat),
            eval_f_diff=lambda x, s: -float(s @ (a_mat @ x - b_vec + 0.5 * (a_mat @ s)))),
        psi=ZeroPart(), known_fstar=-0.5 * float(b_vec @ xstar), known_xstar=xstar,
        kink_gap=lambda x: np.inf)


# --------------------------------------------------------------------- kinds

class Kind(NamedTuple):
    """One problem kind: its instance record, seeded generator and oracle builder."""

    instance: type
    make: Callable[..., CompositeProblem]
    build: Callable[..., CompositeProblem]


KINDS = {
    "nmf": Kind(NmfInstance, make_nmf, _nmf_problem),
    "svm": Kind(SvmInstance, make_svm, _svm_problem),
    "huber": Kind(HuberInstance, make_huber, _huber_problem),
    "quad": Kind(QuadInstance, make_quadratic, _quad_problem),
}


def _kind_of(inst) -> str:
    for name, kind in KINDS.items():
        if type(inst) is kind.instance:
            return name
    raise TypeError(f"not a known instance type: {type(inst).__name__}")


def problem_from_instance(inst) -> CompositeProblem:
    """Rebuild the CompositeProblem for a (possibly imported) instance."""
    name = _kind_of(inst)
    return replace(KINDS[name].build(inst), name=name, x0=inst.x0.copy(), instance=inst)


# ------------------------------------------------------- export / import

_FORMAT = "gladssn-instance 2"
_hints = functools.cache(get_type_hints)


def dataclass_from_json(cls, values, where: str):
    """cls(**values) for json values, each checked against its field's annotation.

    An int field takes an integer and a float field a finite number, neither
    a bool; an np.ndarray field takes a rectangular nested list of finite
    numbers, kept as float64.  Anything else raises ValueError naming where.
    """
    if not isinstance(values, dict):
        raise ValueError(f"{where} is not an object of fields")
    hints = _hints(cls)
    missing, unknown = hints.keys() - values.keys(), values.keys() - hints.keys()
    if missing or unknown:
        raise ValueError(f"{where} has missing fields {sorted(missing)} "
                         f"and unknown fields {sorted(unknown)}")
    return cls(**{name: _typed(values[name], hint, f"{where} field {name!r}")
                  for name, hint in hints.items()})


def _typed(value, hint, what: str):
    if hint is np.ndarray:
        try:
            arr = np.array(value)
        except ValueError:  # ragged
            arr = None
        if arr is None or arr.dtype.kind not in "iuf":
            raise ValueError(f"{what} is not a rectangular array of numbers")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what} holds a number that is not finite")
        return arr.astype(np.float64, copy=False)
    try:
        if type(value) is not bool and isinstance(value, int if hint is int else numbers.Real):
            if hint is int or math.isfinite(value):
                return hint(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{what} must be {'an integer' if hint is int else 'a finite float'}, "
                     f"got {value!r}")


def save_instance(path, inst) -> None:
    """Write {"format": "gladssn-instance 2", "kind": ..., "fields": {...}} to path."""
    doc = {"format": _FORMAT, "kind": _kind_of(inst),
           "fields": {name: value.tolist() if isinstance(value, np.ndarray) else value
                      for name, value in vars(inst).items()}}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_instance(path):
    """Read an instance file written by save_instance.

    Raises ValueError naming path for text that is not JSON, a wrong format
    tag or kind, or a field that is missing, unknown, not of its declared
    type (see dataclass_from_json) or of the wrong shape.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
            raise ValueError(f"not a {_FORMAT!r} file")
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in KINDS:
            raise ValueError(f"unknown instance kind {kind!r}")
        return dataclass_from_json(KINDS[kind].instance, doc.get("fields"), "instance")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
