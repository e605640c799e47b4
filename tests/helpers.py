"""Shared helpers for the test suite."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from gladssn import linalg, ssn
from gladssn.linalg import ActiveGram, SolverStallError
from gladssn.oracle import SeparableProx
from gladssn.problems import HuberInstance, NmfInstance, QuadInstance, SvmInstance, make_svm
from gladssn.rng import _mix_in_place
from gladssn.ssn import TraceRecord

# The seams the spies below wrap, as the library defines them: a spy
# installed twice in one test replaces the first instead of wrapping it.
_MINRES_SOLVER, _TRIAL_STEP = linalg._minres_solver, ssn.trial_step
_INVERSE, _DISTINCT, _ASSEMBLE = linalg._inverse, linalg._distinct, ActiveGram.assemble
_EIGH = {mod: mod.eigh for mod in (np.linalg, scipy.linalg)}

# Factors on a run's Lambda0: itself, and one part in 2^40 above it.  A test
# that runs at both shows that its property does not hang on the last bits
# of a trajectory, as a run decided at the rounding floor would.
LAMBDA0_NUDGES = (1.0, 1.0 + 2.0**-40)


def svm_with_f_diff(problem):
    """A make_svm problem with eval_f_diff: f(x) - f(x + s) from the step.

    The ridge term is -<dw, w + dw / 2>.  The change of each margin residual
    r is d = -y (X dw + db), and its hinge term relu(r)^2 - relu(r + d)^2 is
    -d (2 r + d) where both are positive, so that no difference of two
    rounded values of F enters.
    """
    inst = problem.instance
    feats, labels, gamma = inst.X, inst.y, inst.gamma
    n = feats.shape[1]

    def diff(x, s):
        r = 1.0 - labels * (feats @ x[:n] + x[n])
        d = -labels * (feats @ s[:n] + s[n])
        r_new = r + d
        hinge = np.where((r > 0.0) & (r_new > 0.0), -d * (2.0 * r + d),
                         np.maximum(r, 0.0)**2 - np.maximum(r_new, 0.0)**2)
        return -float(s[:n] @ (x[:n] + 0.5 * s[:n])) + gamma * float(hinge.sum())
    return dataclasses.replace(problem, eval_f_diff=diff)


# Lambda0 of svm_far_start's runs
FAR_START_LAMBDA0 = 1e-2


def svm_far_start():
    """make_svm(2, n=10, ell=200, gamma=1) started at w = 3 e_1, along the
    feature that separates the classes, where 29 of the 200 margins are active.

    The model sees only their hinge terms, so at Lambda0 = FAR_START_LAMBDA0
    the first trial, whose lam is far below the curvature, steps to where
    most margins are active and F rises: it fails the decrease by about
    1e15 times the rounding error of F.  gamma = 1 keeps F near 1e2, so a
    run to grad_tol = 1e-6 ends far above the rounding floor.
    """
    problem = make_svm(2, n=10, ell=200, gamma=1.0)
    x0 = np.zeros(problem.dim)
    x0[0] = 3.0
    return dataclasses.replace(problem, x0=x0)

def synthetic_trace(gs, lam=1.0):
    """Minimal trace whose g_k column follows the given sequence."""
    rows = []
    F = 10.0
    for i, g in enumerate(gs):
        rows.append(TraceRecord(k=i, j_k=0, lambda_k=lam, Lambda_k=lam,
                                f_val=F, F_val=F, g_k=float(g), r_k=1e-3,
                                inner_prod=1e-3, hess_evals=i + 1, trials=i + 1,
                                wall_ns=1000 * (i + 1)))
        F *= 0.5
    return rows


def minres_handed(monkeypatch, scale=True):
    """Spy on linalg._minres_solver, the one place a MINRES solve is built:
    record (matvec, n, scale), what the library hands it, once per solve.
    With scale=False the solve runs without the Jacobi scale (scipy's M is
    None), while the record keeps the scale the library handed."""
    handed = []

    def spied(matvec, n, ticks, given=None):
        handed.append((matvec, n, given))
        return _MINRES_SOLVER(matvec, n, ticks, given if scale else None)

    monkeypatch.setattr(linalg, "_minres_solver", spied)
    return handed


def trial_outcomes(monkeypatch):
    """Spy on ssn.trial_step: record (reg, lam, outcome) per trial, outcome
    "solved" or the message of the SolverStallError the trial raised."""
    seen = []

    def spied(x, f_grad, reg, lam, *args, **kwargs):
        try:
            step = _TRIAL_STEP(x, f_grad, reg, lam, *args, **kwargs)
        except SolverStallError as exc:
            seen.append((reg, lam, str(exc)))
            raise
        seen.append((reg, lam, "solved"))
        return step

    monkeypatch.setattr(ssn, "trial_step", spied)
    return seen


def block_inversions(monkeypatch, dedupe=True):
    """Spy on a block group's two seams: record the lam of each
    linalg._inverse call, made per solve, and the shape of the rows handed
    to each linalg._distinct call, made per refresh; (lams, shapes).  With
    dedupe=False every block is taken as distinct."""
    lams, shapes = [], []

    def inverse(base, diags, lam):
        lams.append(lam)
        return _INVERSE(base, diags, lam)

    def distinct(rows):
        shapes.append(rows.shape)
        return _DISTINCT(rows) if dedupe else (rows, np.arange(len(rows)))

    monkeypatch.setattr(linalg, "_inverse", inverse)
    monkeypatch.setattr(linalg, "_distinct", distinct)
    return lams, shapes


def full_assemblies(monkeypatch):
    """Spy on ActiveGram.assemble: record each Gram assembled in full."""
    grams = []

    def assemble(gram):
        grams.append(gram)
        return _ASSEMBLE(gram)

    monkeypatch.setattr(ActiveGram, "assemble", assemble)
    return grams


def eigh_calls(monkeypatch) -> dict:
    """Count eigh calls, numpy's and scipy's, from here on: no route runs one."""
    calls = {"eigh": 0}
    for mod, eigh in _EIGH.items():
        def counted(*args, _eigh=eigh, **kwargs):
            calls["eigh"] += 1
            return _eigh(*args, **kwargs)
        monkeypatch.setattr(mod, "eigh", counted)
    return calls


def counted_l1(weight):
    """||.||_1 times weight as a SeparableProx, with its prox calls counted."""
    calls = [0]

    def prox(v, t):
        calls[0] += 1
        return np.sign(v) * np.maximum(np.abs(v) - weight * t, 0.0)
    return SeparableProx(prox, lambda x: weight * float(np.sum(np.abs(x)))), calls


def load_spans():
    """perfbench/spans.py, the benchmark's span tracer, loaded as it is."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_phase_seconds(result):
    """result.seconds has every phase and total, none negative, and the
    phases, timed apart within the call, add up to at most its total."""
    seconds = result.seconds
    assert set(seconds) == {*ssn.PHASES, "total"}, seconds
    assert all(value >= 0.0 for value in seconds.values()), seconds
    assert sum(seconds[phase] for phase in ssn.PHASES) <= seconds["total"], seconds


def block_stack(group):
    """The blocks base + diag(row) of a matrix-free block group (base, diags), stacked."""
    base, diags = group
    return np.stack([base + np.diag(row) for row in diags])


def columns(op):
    """Materialize an operator with shape and @ by applying it to the basis vectors."""
    return np.column_stack([op @ e for e in np.eye(op.shape[0])])


# Per instance type, the distance of x from the nearest point where the
# problem's Hessian field jumps: a sign change of a factor entry (the NMF
# penalty), a margin residual 1 - y (w^T x_i + b) of zero (the SVM hinge),
# a residual of |a_i^T x - b_i| = delta (Huber), and none for the quadratic.
_KINK_GAPS = {
    NmfInstance: lambda inst, x: float(np.min(np.abs(x))),
    SvmInstance: lambda inst, x: float(np.min(np.abs(
        1.0 - inst.y * (inst.X @ x[:-1] + x[-1])))),
    HuberInstance: lambda inst, x: float(np.min(np.abs(
        np.abs(inst.A @ x - inst.b) - inst.delta))),
    QuadInstance: lambda inst, x: math.inf,
}


def kink_gap(problem, x):
    """Distance of x from the nearest nondifferentiability of the problem's
    Hessian field, from problem.instance; raises TypeError for an instance
    of a type that has no rule."""
    rule = _KINK_GAPS.get(type(problem.instance))
    if rule is None:
        raise TypeError(f"no kink rule for {type(problem.instance).__name__}")
    return rule(problem.instance, x)


def quad_optimum(problem):
    """(fstar, xstar) of a make_quadratic problem: xstar solves A x = b."""
    inst = problem.instance
    xstar = np.linalg.solve(inst.A, inst.b)
    return -0.5 * float(inst.b @ xstar), xstar


def penalty_violation(x, inst):
    """Value of the negative-part penalty 1/(2 beta) (||U_-||^2 + ||V_-||^2)
    of an NmfInstance at x = (vec U, vec V)."""
    neg = np.minimum(x, 0.0)
    return 0.5 / inst.beta * float(np.sum(neg * neg))


def check_gradient_fd(problem, x, h=1e-6):
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


def check_hvp_fd(problem, x, v, h=1e-6):
    """Relative mismatch between H(x) v and a central difference of gradients.

    Returns ||H v - (grad(x + h v) - grad(x - h v)) / (2 h)|| / max(1, ||H v||).
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    hv = problem.smooth.eval_hess(x) @ v
    fd = (np.asarray(problem.smooth.eval_grad(x + h * v), dtype=np.float64)
          - np.asarray(problem.smooth.eval_grad(x - h * v), dtype=np.float64)) / (2.0 * h)
    return float(np.linalg.norm(hv - fd) / max(1.0, np.linalg.norm(hv)))


def kink_free_points(problem, seed, count, scale=0.3, min_gap=1e-5):
    """Sample `count` points around x0 where the nonsmooth seams are far away.

    Uses numpy's RNG (test-only, does not need the package stream) and
    resamples until kink_gap clears min_gap.
    """
    rng = np.random.default_rng(seed)
    pts = []
    tries = 0
    while len(pts) < count:
        tries += 1
        if tries > 200 * count:
            raise RuntimeError("could not find enough kink-free points")
        x = problem.x0 + scale * rng.standard_normal(problem.dim)
        if kink_gap(problem, x) > min_gap:
            pts.append(x)
    return pts


def opnorm_est(matvec, n: int, iters: int = 50) -> float:
    """Power-iteration estimate of the operator norm of a symmetric matvec.

    Deterministic: the start vector is derived from a fixed integer hash, so
    repeated calls agree bitwise.  The estimate is a lower bound on the true
    norm; callers that need an upper bound should add their own headroom.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    _mix_in_place(z, np.empty_like(z))
    v = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53 - 0.5
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iters):
        w = np.asarray(matvec(v), dtype=np.float64)
        nw = np.linalg.norm(w)
        if nw == 0.0 or not np.isfinite(nw):
            return float(nw) if np.isfinite(nw) else float("inf")
        est = max(est, nw)
        v = w / nw
    return float(est)
