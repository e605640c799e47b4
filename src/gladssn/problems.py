"""Built-in benchmark problems.

KINDS maps each problem kind to its frozen instance record, its seeded
make_* generator (see rng for the bit-exact recipe; each generator documents
its draw order) and its oracle builder, which problem_from_instance applies.
save_instance writes an instance as JSON with floats by repr, and
load_instance reads it back bit for bit, each field checked against its
declared type and every array against the instance's sizes, so runs replay
across machines.  Generators and instance records alike reject a size or
parameter outside its domain (_DOMAIN).

An SVM instance keeps its features once: X is the first n columns of one
C-contiguous (ell, n+1) array whose last column is ones, which make_svm
draws into and any other X is copied into.  The SVM Hessian is I_n (+) 0
plus 2 gamma times the Gram of that store's active rows, which needs labels
of +-1; the instance rejects any other.  The oracle forms it densely by
ActiveGram.assemble, which copies no row when every row is active.

Hessians come back as dense arrays for SVM and the quadratic.  NMF's is a
BorderedBlocks whose diagonal blocks, one per row of U, the solver
eliminates.  Each group of blocks is one Gram plus a diagonal per row
(V^T V for the rows of U, U^T U for those of V).  The coupling of U and V
is an array up to DENSE_DIM_MAX variables, and above it is applied by
products with the factors.  Huber's is an
ActiveGram, its rows on the quadratic piece, which the solver assembles
from the previous refresh's Hessian.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .linalg import ActiveGram, BorderedBlocks, sym_part
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


# The lower bound of each size and parameter that has one, and whether the
# bound itself is allowed.  Outside it a problem is empty, divides by zero
# (beta), is unbounded below (alpha, gamma, ridge), or is degenerate: a zero
# loss (gamma, delta) or no condition number (cond).
_DOMAIN = {**dict.fromkeys(("d", "n", "r", "ell", "m", "cond"), (1, True)),
           **dict.fromkeys(("alpha", "sigma", "ridge"), (0, True)),
           **dict.fromkeys(("beta", "gamma", "delta"), (0, False))}
# The quadratic pins both ends of its spectrum, so it needs two variables.
_QUAD_DOMAIN = {**_DOMAIN, "n": (2, True)}
# The sizes among them, which count rows or columns and so are integers.
_SIZES = frozenset(("d", "n", "r", "ell", "m"))


def _check_domain(where: str, domain: dict = _DOMAIN, /, **values) -> None:
    """Raise ValueError naming the first value of the wrong type or outside its
    domain.  A size (_SIZES) must be an integer of at most sys.maxsize, which
    numpy can index, and any other parameter a finite real number, neither a
    bool; the bound is checked before finiteness, so NaN, which is in no
    domain, is reported against its bound."""
    for name, value in values.items():
        size = name in _SIZES
        kind = numbers.Integral if size else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{where}: {name} must be {'an integer' if size else 'a number'}, "
                             f"got {value!r}")
        low, closed = domain[name]
        if not (value >= low if closed else value > low):
            raise ValueError(f"{where}: {name} must be {'at least' if closed else 'above'} "
                             f"{low}, got {value}")
        if size and value > sys.maxsize:
            raise ValueError(f"{where}: {name} must be at most {sys.maxsize}, got {value}")
        if not (size or value <= sys.float_info.max):  # exact for an int of any size
            got = "an integer beyond float range" if isinstance(value, numbers.Integral) else value
            raise ValueError(f"{where}: {name} must be finite, got {got}")


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
        _check_domain(type(self).__name__, d=self.d, n=self.n, r=self.r, alpha=self.alpha,
                      beta=self.beta, sigma=self.sigma)
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
        _check_domain(type(self).__name__, n=n, ell=ell, gamma=self.gamma)
        _check_shapes(self, X=(ell, n), y=(ell,), x0=(n + 1,))
        # The Hessian drops y_i^2 (see _svm_problem), which holds only for labels of +-1.
        labels = np.asarray(self.y)
        bad = labels[(labels != 1.0) & (labels != -1.0)]
        if bad.size:
            raise ValueError(f"{type(self).__name__}: labels y must be -1.0 or +1.0, "
                             f"got {float(bad[0])!r}")
        object.__setattr__(self, "X", _bordered_store(self.X)[:, :n])


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
        _check_domain(type(self).__name__, m=m, n=n, delta=self.delta, ridge=self.ridge)
        _check_shapes(self, A=(m, n), b=(m,), x0=(n,))


@dataclass(frozen=True, eq=False)
class QuadInstance:
    seed: int
    cond: float
    A: np.ndarray
    b: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        n = np.size(self.b)
        _check_domain(type(self).__name__, _QUAD_DOMAIN, n=n, cond=self.cond)
        _check_shapes(self, A=(n, n), b=(n,), x0=(n,))


def _last_point(fn):
    """fn(x) cached for the last point x, which is compared by value.

    The solver asks for the value, gradient and Hessian at one point in
    turn, and each needs the same residual.  The cache holds its own copy of
    x, so a caller that changes its array in place cannot get a stale
    result, and the cached array is read-only.
    """
    last_x, last_out = None, None

    def cached(x):
        nonlocal last_x, last_out
        if last_x is None or x.shape != last_x.shape or not (x == last_x).all():
            out = fn(x)
            out.setflags(write=False)
            last_x, last_out = np.array(x, dtype=np.float64), out
        return last_out
    return cached


# ----------------------------------------------------------------------- nmf

def make_nmf(seed: int, d: int = 200, n: int = 100, r: int = 12,
             alpha: float = 1e-2, beta: float = 1e-2,
             sigma: float = 0.02) -> CompositeProblem:
    """Penalized matrix factorization: recover Y ~ U V^T with U, V >= 0 soft.

    Draw order from Rng(seed): U_true (d x r, uniform), V_true (n x r,
    uniform), noise Z (d x n, normal), then x0 = 0.5 * normal(d r + n r).
    Both factors come from one uniform draw of (d + n) x r, split by rows:
    the uniform stream is sequential, so the values and the order are
    those of two separate draws.
    Y = U_true V_true^T + sigma Z.  Objective over x = (vec U, vec V):

        0.5 ||U V^T - Y||_F^2 + alpha (||U||_F^2 + ||V||_F^2)
        + 1/(2 beta) (||min(U, 0)||_F^2 + ||min(V, 0)||_F^2)
    """
    _check_domain("make_nmf", d=d, n=n, r=r, alpha=alpha, beta=beta, sigma=sigma)
    rng = Rng(seed)
    factors = rng.uniform((d + n, r))  # U_true's rows, then V_true's
    noise = rng.normal((d, n))
    x0 = 0.5 * rng.normal(d * r + n * r)
    inst = NmfInstance(seed=int(seed), d=int(d), n=int(n), r=int(r), alpha=float(alpha),
                       beta=float(beta), sigma=float(sigma),
                       Y=factors[:d] @ factors[d:].T + sigma * noise, x0=x0)
    return problem_from_instance(inst)


def _nmf_problem(inst: NmfInstance) -> CompositeProblem:
    d, n, r = inst.d, inst.n, inst.r
    alpha, beta, y_obs = inst.alpha, inst.beta, inst.Y
    dim = (d + n) * r

    def unpack(x):
        return x[:d * r].reshape(d, r), x[d * r:].reshape(n, r)

    @_last_point
    def resid(x):
        u, v = unpack(x)
        return u @ v.T - y_obs

    def eval_f(x):
        u, v = unpack(x)
        res = resid(x)
        neg_u = np.minimum(u, 0.0)
        neg_v = np.minimum(v, 0.0)
        return (0.5 * float((res * res).sum())
                + alpha * (float((u * u).sum()) + float((v * v).sum()))
                + 0.5 / beta * (float((neg_u * neg_u).sum()) + float((neg_v * neg_v).sum())))

    def eval_grad(x):
        u, v = unpack(x)
        res = resid(x)
        gu = res @ v + 2.0 * alpha * u + np.minimum(u, 0.0) / beta
        gv = res.T @ u + 2.0 * alpha * v + np.minimum(v, 0.0) / beta
        return np.concatenate([gu.ravel(), gv.ravel()])

    def eval_f_diff(x, s):
        # f(x) - f(x + s) from the step: every term is a difference of
        # squares a^2 - (a + b)^2 = -b (2 a + b), with b the change of a.
        # The residual changes by D = dU V^T + U dV^T + dU dV^T, and the
        # negative part by dU wherever it stays negative.
        u, v = unpack(x)
        du, dv = unpack(s)
        dresid = du @ v.T + u @ dv.T + du @ dv.T
        rise = float(np.sum(dresid * (resid(x) + 0.5 * dresid)))
        for a, b in ((u, du), (v, dv)):
            neg = np.minimum(a, 0.0)
            a_plus = a + b
            dneg = np.where((a < 0.0) & (a_plus < 0.0), b, np.minimum(a_plus, 0.0) - neg)
            rise += (alpha * float(np.sum(b * (2.0 * a + b)))
                     + 0.5 / beta * float(np.sum(dneg * (2.0 * neg + dneg))))
        return -rise

    def eval_hess(x):
        # Rows and columns ordered (row, factor):
        #   H_UU = I_d (x) V^T V,  H_VV = I_n (x) U^T U,
        #   H_UV[(i,a),(j,b)] = U[i,b] V[j,a] + R[i,j] delta_ab,
        # plus the diagonal 2 alpha + mask / beta.  Each block group is its
        # Gram plus one diagonal per row: (V^T V, shift_u) for the U rows,
        # whose d blocks the solver eliminates, and (U^T U, shift_v) for the
        # V rows.  Only the coupling H_UV depends on the size.
        u, v = unpack(x)
        res = resid(x)
        gram_u, gram_v = u.T @ u, v.T @ v
        shift_u, shift_v = (2.0 * alpha + (a < 0.0) / beta for a in (u, v))
        if dim <= DENSE_DIM_MAX:  # the array H_UV, built with 4-d indices
            diag = np.arange(r)
            h_uv = u[:, None, None, :] * v.T[None, :, :, None]
            h_uv[:, diag, :, diag] += res
            coupling = h_uv.reshape(d * r, n * r)
        else:
            # H_UV applied as C pV = U (pV^T V) + R pV and
            # C^T pU = V (pU^T U) + R^T pU, one d x n product (the R term) each
            def matvec(pv):
                pv = pv.reshape(n, r)
                return (u @ (pv.T @ v) + res @ pv).ravel()

            def rmatvec(pu):
                pu = pu.reshape(d, r)
                return (v @ (pu.T @ u) + res.T @ pu).ravel()
            coupling = (matvec, rmatvec)
        return BorderedBlocks((gram_v, shift_u), coupling, (gram_u, shift_v))

    return CompositeProblem(
        smooth=SmoothOracle(dim=dim, eval_f=eval_f, eval_grad=eval_grad,
                            eval_hess=eval_hess),
        psi=ZeroPart(), eval_f_diff=eval_f_diff)


# ----------------------------------------------------------------------- svm

def _bordered_store(feats) -> np.ndarray:
    """The C-contiguous (ell, n+1) store whose first n columns are feats and last ones.

    feats that is already the first n columns of such a store gives that
    store back; anything else is copied into a new one.
    """
    ell, n = np.shape(feats)
    store = getattr(feats, "base", None)
    if (isinstance(store, np.ndarray) and store.shape == (ell, n + 1)
            and store.dtype == np.float64 and store.flags.c_contiguous
            and feats.strides == store.strides and feats.ctypes.data == store.ctypes.data
            and np.all(store[:, n] == 1.0)):
        return store
    store = np.empty((ell, n + 1))
    store[:, :n] = feats
    store[:, n] = 1.0
    return store


def make_svm(seed: int, n: int = 200, ell: int = 10000,
             gamma: float = 1e4) -> CompositeProblem:
    """L2-hinge SVM on two gaussian blobs separated along the first axis.

    Draw order from Rng(seed): features G (ell x n, normal), drawn straight
    into the instance's bordered store.  Labels are +1 for the first
    ceil(ell/2) rows and -1 for the rest; the first feature is shifted by
    1.5 * label.  Variables x = (omega, b):

        0.5 ||omega||^2 + gamma * sum_i max(0, 1 - y_i (omega^T x_i + b))^2
    """
    _check_domain("make_svm", n=n, ell=ell, gamma=gamma)
    rng = Rng(seed)
    store = np.empty((ell, n + 1))
    rng.normal(out=store[:, :n])
    store[:, n] = 1.0
    labels = np.ones(ell)
    labels[(ell + 1) // 2:] = -1.0
    store[:, 0] += 1.5 * labels
    inst = SvmInstance(seed=int(seed), gamma=float(gamma), X=store[:, :n], y=labels,
                       x0=np.zeros(n + 1))
    return problem_from_instance(inst)


def _svm_problem(inst: SvmInstance) -> CompositeProblem:
    feats, labels, gamma = inst.X, inst.y, inst.gamma
    ell, n = feats.shape
    dim = n + 1
    # With z_i = y_i (x_i, 1) the Hessian is I_n (+) 0 plus 2 gamma Z_act^T Z_act.
    # As y_i = +-1, Z_act^T Z_act is the Gram of the rows (x_i, 1) themselves,
    # bit for bit, so it is the ActiveGram of the bordered store that inst.X views.
    store = feats.base

    @_last_point
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
        dense = 2.0 * gamma * ActiveGram(store, margins_resid(x) > 0.0).assemble()
        dense[np.arange(n), np.arange(n)] += 1.0
        return dense

    return CompositeProblem(
        smooth=SmoothOracle(dim=dim, eval_f=eval_f, eval_grad=eval_grad,
                            eval_hess=eval_hess),
        psi=ZeroPart())


# --------------------------------------------------------------------- huber

def make_huber(seed: int, m: int = 500, n: int = 50, delta: float = 1.0,
               ridge: float = 1e-2) -> CompositeProblem:
    """Huber regression with a ridge term (strongly convex, modulus = ridge).

    Draw order from Rng(seed): A (m x n, normal), b (m, normal).  Objective:

        sum_i huber_delta(a_i^T x - b_i) + ridge/2 ||x||^2

    with huber_delta(t) = t^2/2 for |t| <= delta, else delta (|t| - delta/2).
    """
    _check_domain("make_huber", m=m, n=n, delta=delta, ridge=ridge)
    rng = Rng(seed)
    a_mat = rng.normal((m, n))
    b_vec = rng.normal(m)
    inst = HuberInstance(seed=int(seed), delta=float(delta), ridge=float(ridge),
                         A=a_mat, b=b_vec, x0=np.zeros(n))
    return problem_from_instance(inst)


def _huber_problem(inst: HuberInstance) -> CompositeProblem:
    a_mat, b_vec, delta, ridge = inst.A, inst.b, inst.delta, inst.ridge
    n = a_mat.shape[1]

    def huber(r):
        absr = np.abs(r)
        return np.where(absr <= delta, 0.5 * r * r, delta * (absr - 0.5 * delta))

    @_last_point
    def resid(x):
        return a_mat @ x - b_vec

    def eval_f(x):
        return float(np.sum(huber(resid(x)))) + 0.5 * ridge * float(x @ x)

    def eval_grad(x):
        return a_mat.T @ np.clip(resid(x), -delta, delta) + ridge * x

    def eval_f_diff(x, s):
        # f(x) - f(x + s) from the step, with d = A s the change of the
        # residual r: a row that stays quadratic drops by -d (r + d/2), one
        # that stays linear on the same side by -delta sign(r) d, and one
        # that crosses a kink by the plain difference of its two values.
        r = resid(x)
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
        return ActiveGram(a_mat, np.abs(resid(x)) <= delta, shift=ridge)

    return CompositeProblem(
        smooth=SmoothOracle(dim=n, eval_f=eval_f, eval_grad=eval_grad,
                            eval_hess=eval_hess),
        psi=ZeroPart(), eval_f_diff=eval_f_diff)


# ---------------------------------------------------------------------- quad

def make_quadratic(seed: int, n: int = 50, cond: float = 1e4) -> CompositeProblem:
    """Convex quadratic 0.5 x^T A x - b^T x with prescribed condition number.

    Draw order from Rng(seed): G (n x n, normal) whose sign-fixed QR gives
    the eigenbasis, then n - 2 log-uniform interior eigenvalues (endpoints
    pinned to 1 and cond), then b (normal), then x0 (normal).
    """
    _check_domain("make_quadratic", _QUAD_DOMAIN, n=n, cond=cond)
    rng = Rng(seed)
    gauss = rng.normal((n, n))
    q, rr = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(rr))[None, :]
    eigs = np.empty(n)
    eigs[0] = 1.0
    eigs[n - 1] = float(cond)
    eigs[1:n - 1] = np.exp(rng.uniform(n - 2) * np.log(cond))
    a_mat = sym_part((q * eigs) @ q.T)
    b_vec = rng.normal(n)
    x0 = rng.normal(n)
    inst = QuadInstance(seed=int(seed), cond=float(cond), A=a_mat, b=b_vec, x0=x0)
    return problem_from_instance(inst)


def _quad_problem(inst: QuadInstance) -> CompositeProblem:
    a_mat, b_vec = inst.A, inst.b
    n = a_mat.shape[0]

    def eval_f(x):
        return 0.5 * float(x @ (a_mat @ x)) - float(b_vec @ x)

    def eval_grad(x):
        return a_mat @ x - b_vec

    return CompositeProblem(
        smooth=SmoothOracle(dim=n, eval_f=eval_f, eval_grad=eval_grad,
                            eval_hess=lambda x: a_mat),
        psi=ZeroPart(),
        eval_f_diff=lambda x, s: -float(s @ (eval_grad(x) + 0.5 * (a_mat @ s))))


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
    problem = KINDS[name].build(inst)
    problem.name, problem.x0, problem.instance = name, inst.x0.copy(), inst
    return problem


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
