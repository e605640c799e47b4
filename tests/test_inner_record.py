"""SolveResult.inner agrees with the benchmark's span tracer.

ssn.solve totals the InnerSolve record of every trial whose inner solve
returned; perfbench/spans.py counts the same work from outside the package,
by wrapping np.linalg.cholesky, scipy.sparse.linalg.minres (whose callback
it chains to the library's) and the problem's prox.  On a small instance of
each benchmark workload, with no failed inner solve, the two must agree:
each Cholesky or LU solve factors once after one Cholesky call, each MINRES
solve and each of its corrections is one MINRES call, and each prox sweep is
one prox call.  The tracer's prox count also holds the one prox call with
which ssn.solve checks that 0 is a subgradient of psi at x0, when no
psi_sub0 is given, as the benchmark gives none.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from gladssn import problems, ssn
from gladssn.oracle import SeparableProx
from gladssn.problems import make_huber, make_nmf, make_svm
from gladssn.ssn import SolverConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inner_totals_match_the_tracer(monkeypatch):
    spans = load_spans()
    l1 = SeparableProx(lambda v, t: np.sign(v) * np.maximum(np.abs(v) - 0.5 * t, 0.0),
                       lambda x: 0.5 * float(np.sum(np.abs(x))))
    # each workload's shape and config at a size that solves in well under a second
    cases = {
        "nmf-dense-lazy": (make_nmf(1, d=16, n=8, r=3), SolverConfig(m=5, grad_tol=1e-2),
                           "cholesky"),
        "nmf-matfree": (make_nmf(2, d=20, n=10, r=3), SolverConfig(m=1, grad_tol=1e-4),
                        "minres"),
        "svm": (make_svm(1, n=30, ell=500), SolverConfig(m=1, grad_tol=1e-6), "cholesky"),
        "huber-l1": (dataclasses.replace(make_huber(1, m=80, n=10), psi=l1),
                     SolverConfig(m=1, grad_tol=1e-8), "prox"),
    }
    dense_dim_max = problems.DENSE_DIM_MAX
    for name, (problem, config, path) in cases.items():
        monkeypatch.setattr(problems, "DENSE_DIM_MAX",
                            0 if name == "nmf-matfree" else dense_dim_max)
        tracer = spans.Tracer()
        with tracer.installed():
            res = ssn.solve(tracer.traced_problem(problem), config)
        calls, _, _ = tracer.totals()
        counts = tracer.counts
        assert counts["ssn.inner_failures"] == 0, name
        assert res.inner[path][0] > 0, name
        assert sum(solves for solves, _, _ in res.inner.values()) == res.trials, name
        zero = (0, 0, 0)
        minres, prox = res.inner.get("minres", zero), res.inner.get("prox", zero)
        assert minres[1] == counts["linalg.minres.iters"], name
        assert minres[0] + minres[2] == counts["linalg.minres.calls"], name
        assert (res.inner.get("cholesky", zero)[0] + res.inner.get("lu", zero)[0]
                == calls["linalg.cholesky"]), name
        assert prox[1] + (path == "prox") == counts["ssn.prox.sweeps"], name
