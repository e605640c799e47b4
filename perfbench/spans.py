"""Span tracing of gladssn from outside the package.

A Tracer records one span per call into a layer: its name, start and end
(perf_counter_ns), the enclosing span and the id of the solve it belongs to.
Spans stay in memory until the run writes them out.  `Tracer.installed()`
swaps wrappers into the module and class attributes the solver looks up at
call time and restores the originals on exit, even when the body raises.
`traced_problem` rebuilds a CompositeProblem whose oracle callables and
(for a nonzero psi) prox are wrapped, since those live on the instance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse.linalg

from gladssn import ssn
from gladssn.linalg import SolverStallError
from gladssn.oracle import CompositeProblem, SeparableProx, SmoothOracle
from gladssn.rng import Rng

_NAME, _START, _END, _PARENT, _SOLVE = range(5)

# Attributes the solver resolves at call time: ssn's module globals, the
# scipy and numpy module attributes linalg calls through, and Rng's methods.
PATCH_TARGETS = [
    (ssn, "trial_step"),
    (ssn, "solve_regularized"),
    (ssn, "acceptance_test"),
    (scipy.sparse.linalg, "minres"),
    (np.linalg, "cholesky"),
    (Rng, "normal"),
    (Rng, "uniform"),
]


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, solve]
        self.counts: Counter = Counter()
        self.solve = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.solve]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # ------------------------------------------------------------ patching

    def _wrappers(self, orig: dict) -> dict:
        """Wrapper for each of PATCH_TARGETS, given the original attributes."""

        def trial_step(*args, **kwargs):
            try:
                return self.call("ssn.trial_step", orig[ssn, "trial_step"], *args, **kwargs)
            except SolverStallError:
                self.counts["ssn.inner_failures"] += 1
                raise

        def solve_regularized(h, *args, **kwargs):
            minres_before = self.counts["linalg.minres.calls"]
            try:
                return self.call("linalg.solve_regularized",
                                 orig[ssn, "solve_regularized"], h, *args, **kwargs)
            finally:
                if h.is_dense:
                    self.counts["linalg.dense_solves"] += 1
                    if self.counts["linalg.minres.calls"] > minres_before:
                        self.counts["linalg.dense_fallbacks"] += 1

        def minres(*args, callback=None, **kwargs):
            def count_iteration(xk):
                self.counts["linalg.minres.iters"] += 1
                if callback is not None:
                    callback(xk)
            self.counts["linalg.minres.calls"] += 1
            return self.call("linalg.minres", orig[scipy.sparse.linalg, "minres"],
                             *args, callback=count_iteration, **kwargs)

        def draw(method):
            def traced(rng, *args, **kwargs):
                out = self.call("rng.draw", orig[Rng, method], rng, *args, **kwargs)
                self.counts["rng.values"] += int(np.size(out))
                return out
            return traced

        return {
            (ssn, "trial_step"): trial_step,
            (ssn, "solve_regularized"): solve_regularized,
            (ssn, "acceptance_test"): self.wrap("ssn.acceptance_test",
                                                orig[ssn, "acceptance_test"]),
            (scipy.sparse.linalg, "minres"): minres,
            (np.linalg, "cholesky"): self.wrap("linalg.cholesky",
                                               orig[np.linalg, "cholesky"]),
            (Rng, "normal"): draw("normal"),
            (Rng, "uniform"): draw("uniform"),
        }

    @contextlib.contextmanager
    def installed(self):
        """Trace the solver's entry points for the duration of the block."""
        orig = {(owner, attr): vars(owner)[attr] for owner, attr in PATCH_TARGETS}
        try:
            for (owner, attr), wrapper in self._wrappers(orig).items():
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for (owner, attr), fn in orig.items():
                setattr(owner, attr, fn)

    def traced_problem(self, problem: CompositeProblem) -> CompositeProblem:
        """Copy of problem whose oracle callables (and prox) record spans."""
        smooth = problem.smooth
        traced_smooth = SmoothOracle(
            dim=smooth.dim,
            eval_f=self.wrap("oracle.eval_f", smooth.eval_f),
            eval_grad=self.wrap("oracle.eval_grad", smooth.eval_grad),
            eval_hess=self.wrap("oracle.eval_hess", smooth.eval_hess),
            lipschitz_L=smooth.lipschitz_L)
        psi = problem.psi
        if isinstance(psi, SeparableProx):
            prox = psi.prox

            def counted_prox(v, t):
                self.counts["ssn.prox.sweeps"] += 1
                return prox(v, t)
            psi = SeparableProx(counted_prox, psi.eval_psi)
        return dataclasses.replace(problem, smooth=traced_smooth, psi=psi)

    # ------------------------------------------------------------ summaries

    def totals(self) -> tuple[Counter, defaultdict, defaultdict]:
        """Per span name: call count, summed duration and summed self time (s)."""
        calls: Counter = Counter()
        dur: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for span in self.spans:
            d = (span[_END] - span[_START]) * 1e-9
            calls[span[_NAME]] += 1
            dur[span[_NAME]] += d
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += d
        self_s: defaultdict = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_s[span[_NAME]] += (span[_END] - span[_START]) * 1e-9 - child[i]
        return calls, dur, self_s

    def write(self, path) -> None:
        """One JSON object per span: id, name, start_ns, end_ns, parent, solve."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[_NAME], "start_ns": s[_START],
                                     "end_ns": s[_END], "parent": s[_PARENT],
                                     "solve": s[_SOLVE]}) + "\n")

