"""Shared helpers for the test suite."""

import numpy as np

from gladssn.rng import mix64
from gladssn.ssn import TraceRecord

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


def block_stack(group):
    """The blocks base + diag(row) of a matrix-free block group (base, diags), stacked."""
    base, diags = group
    return np.stack([base + np.diag(row) for row in diags])


def columns(op):
    """Materialize an operator with shape and @ by applying it to the basis vectors."""
    return np.column_stack([op @ e for e in np.eye(op.shape[0])])


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
        if problem.kink_gap(x) > min_gap:
            pts.append(x)
    return pts


def opnorm_est(matvec, n: int, iters: int = 50) -> float:
    """Power-iteration estimate of the operator norm of a symmetric matvec.

    Deterministic: the start vector is derived from a fixed integer hash, so
    repeated calls agree bitwise.  The estimate is a lower bound on the true
    norm; callers that need an upper bound should add their own headroom.
    """
    z = mix64(np.arange(1, n + 1, dtype=np.uint64))
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
