import dataclasses
import math

import numpy as np
import pytest

from gladssn.baselines import armijo_gd
from gladssn.harness import (COLUMNS, SOLVERS, ConfigError, NotEstimableError, RunConfig,
                             compare, estimate_order, read_trace, run, verify,
                             write_trace)
from gladssn.problems import make_huber, make_nmf, make_quadratic
from gladssn.ssn import SolverConfig, next_Lambda, solve

from helpers import quad_optimum, synthetic_trace


@pytest.fixture(scope="module")
def quad_result():
    return solve(make_quadratic(1), SolverConfig(p=0.5, m=1, grad_tol=1e-10))


@pytest.fixture(scope="module")
def huber_lazy_result():
    return solve(make_huber(1), SolverConfig(p=0.0, m=5, grad_tol=0.0, max_outer=12))


@pytest.fixture(scope="module")
def nmf_rule_results():
    """One small NMF instance solved under each update rule: with its
    eval_f_diff (keep) and without it (the paper's)."""
    problem = make_nmf(2, d=20, n=10, r=3)
    config = SolverConfig(p=0.5, m=1, grad_tol=1e-6)
    return {"keep": solve(problem, config),
            "paper": solve(dataclasses.replace(problem, eval_f_diff=None), config)}


# ------------------------------------------------------------------ trace IO

def test_trace_round_trip_csv(tmp_path, quad_result):
    path = tmp_path / "trace.csv"
    write_trace(path, quad_result.trace)
    back = read_trace(path)
    assert len(back) == len(quad_result.trace)
    for a, b in zip(quad_result.trace, back):
        for col in dataclasses.asdict(a):
            va, vb = getattr(a, col), getattr(b, col)
            assert va == vb, col
            assert type(vb) is type(va)


def test_trace_round_trip_extreme_values(tmp_path):
    rows = synthetic_trace([1e300, 1.2345678901234567e-308, 7.1e-12])
    rows[1].lambda_k = 0.1 + 0.2  # a float with an ugly repr
    path = tmp_path / "t.csv"
    write_trace(path, rows)
    back = read_trace(path)
    assert back[1].lambda_k == rows[1].lambda_k
    assert back[0].g_k == 1e300
    assert back[1].g_k == 1.2345678901234567e-308


def test_read_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    for text in ("a,b,c\n1,2,3\n", '[{"k": 0}]\n'):  # a JSON trace is no trace
        path.write_text(text)
        with pytest.raises(ValueError, match="header"):
            read_trace(path)
    # a well-formed trace with its second row changed: one field too many or
    # too few; an integer column holding a fraction, an integral float, a
    # bool or a Python-only literal; a float column holding a bool, a
    # string, a null, a list or a number that is not finite
    write_trace(path, synthetic_trace([1.0, 0.5, 0.25]))
    head, row0, row1, row2 = path.read_text().splitlines()
    toks = row1.split(",")
    edits = [toks + ["0"], toks[:-1]]
    for col, token in [("k", t) for t in ("0.7", "1.0", "true", "null", "1_0")] + \
            [("hess_evals", "true")] + \
            [("g_k", t) for t in ("true", '"0.5"', "null", "[1]", "nan", "NaN",
                                  "inf", "Infinity", "-Infinity", "1e400")]:
        edits.append(toks.copy())
        edits[-1][COLUMNS.index(col)] = token
    for edit in edits:
        path.write_text("\n".join([head, row0, ",".join(edit), row2]) + "\n")
        with pytest.raises(ValueError, match="row 1"):
            read_trace(path)


def test_read_trace_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert read_trace(path) == []


# -------------------------------------------------------------------- verify

def quad_lipschitz(p):
    """L = 2 ||A|| for the quadratic, so that ||f''|| <= L / 2."""
    return 2.0 * float(np.linalg.eigvalsh(p.instance.A)[-1])


def test_verify_passes_on_solver_trace(quad_result):
    p = make_quadratic(1)
    lip = quad_lipschitz(p)
    report = verify(quad_result.trace, L=lip, fstar=quad_optimum(p)[0])
    assert report.passed, report.summary()
    for name in ("pairing", "decrease", "step_grad", "no_overshoot",
                 "value_gain", "lambda_cap", "newton_count", "envelope",
                 "hessian_schedule"):
        assert name in report.checks
    assert report.lambda_bar == max(4.0 * lip, quad_result.trace[0].lambda_k)
    assert "PASS" in report.summary()


def test_verify_checks_last_transition_of_a_result(quad_result):
    assert quad_result.status == "converged"
    assert verify(quad_result).passed
    last = quad_result.trace[-1]
    overshoot = dataclasses.replace(quad_result, g_final=3.0 * last.g_k)
    report = verify(overshoot)
    assert not report.checks["no_overshoot"].passed
    assert report.checks["no_overshoot"].worst_row == last.k
    miscounted = dataclasses.replace(quad_result,
                                     Lambda_final=4.0 * quad_result.Lambda_final)
    assert not verify(miscounted).checks["newton_count"].passed
    # a terminal state that is not finite fails the check that reads it
    unbounded = dataclasses.replace(quad_result, g_final=math.inf)
    assert not verify(unbounded).checks["no_overshoot"].passed
    uncounted = dataclasses.replace(quad_result, Lambda_final=math.nan)
    assert not verify(uncounted).checks["newton_count"].passed
    # the last row's update is checked with no slack
    ulps = [dataclasses.replace(quad_result, Lambda_final=np.nextafter(
        quad_result.Lambda_final, direction)) for direction in (0.0, np.inf)]
    for off in ulps:
        check = verify(off).checks["newton_count"]
        assert (check.violations, check.worst_row) == (1, last.k)
    # a bare trace has no terminal state, so none of these changes shows in it
    for tampered in (overshoot, miscounted, unbounded, uncounted, *ulps):
        assert verify(tampered.trace).passed


def test_verify_from_file(tmp_path, quad_result):
    path = tmp_path / "t.csv"
    write_trace(path, quad_result.trace)
    assert verify(path).passed


def test_verify_one_row_trace_from_file(tmp_path, quad_result):
    # a bare one-row trace holds no transition: each transition check
    # reports checked 0 and passes, while the per-row checks still run
    path = tmp_path / "t.csv"
    write_trace(path, quad_result.trace[:1])
    report = verify(path)
    assert report.passed and report.rows == 1
    for name in ("pairing", "decrease", "step_grad", "no_overshoot", "value_gain"):
        check = report.checks[name]
        assert (check.checked, check.violations) == (0, 0)
        line = next(ln for ln in report.summary().splitlines() if ln.split()[0] == name)
        assert line.split() == [name, "pass", "checked", "0", "violations", "0"]
    for name in ("finite", "newton_count", "hessian_schedule"):
        assert report.checks[name].checked == 1


def test_verify_empty_trace():
    report = verify([])
    assert report.passed
    assert report.rows == 0
    assert any("empty" in n for n in report.notes)


def test_verify_skips_baseline_traces():
    res = armijo_gd(make_quadratic(1, n=10, cond=100.0),
                    SolverConfig(grad_tol=1e-6, max_outer=2000))
    report = verify(res.trace)
    assert report.passed
    assert list(report.checks) == ["finite"]
    assert any("baseline" in n for n in report.notes)
    res.trace[3].f_val = math.nan
    assert not verify(res.trace).checks["finite"].passed


def test_verify_flags_increased_objective(quad_result):
    rows = [dataclasses.replace(r) for r in quad_result.trace]
    rows[2].F_val = rows[1].F_val + 5.0
    report = verify(rows)
    assert not report.passed
    assert not report.checks["decrease"].passed
    assert report.checks["decrease"].worst_row in (1, 2)
    assert not report.checks["value_gain"].passed


def test_verify_flags_tampered_gradient(quad_result):
    rows = [dataclasses.replace(r) for r in quad_result.trace]
    rows[3].g_k *= 1e3
    report = verify(rows)
    assert not report.passed
    # an inflated g_{k+1} breaks the transition 2 -> 3 bounds
    bad = {n for n, c in report.checks.items() if not c.passed}
    assert {"pairing", "step_grad", "no_overshoot"} & bad


def test_verify_flags_tampered_inner_counter(quad_result):
    rows = [dataclasses.replace(r) for r in quad_result.trace]
    rows[2].j_k += 1
    report = verify(rows)
    assert not report.checks["newton_count"].passed
    # under the paper's rule a row accepted at j_k = 1 leaves Lambda as it
    # was, so with one deleted every Lambda_{k+1} is still the rule's value and
    # the refresh schedule still fits m = 5: only the step in k gives the
    # missing trial away.  (Under keep such a row quadruples Lambda, so its
    # deletion shows in Lambda too; without eval_f_diff the paper's rule runs.)
    problem = dataclasses.replace(make_huber(1), eval_f_diff=None)
    res = solve(problem, SolverConfig(p=0.0, m=5, grad_tol=0.0, max_outer=12))
    assert "update rule: paper" in verify(res).notes
    rows = res.trace
    assert rows[2].j_k == 1 and rows[2].hess_evals == rows[1].hess_evals
    cut = rows[:2] + rows[3:]
    for trace in (cut, dataclasses.replace(res, trace=cut)):
        report = verify(trace)
        assert "update rule: paper" in report.notes
        check = report.checks["newton_count"]
        assert (check.checked, check.violations, check.worst_row) == (len(cut), 1, rows[1].k)
        assert report.checks["hessian_schedule"].passed


def test_verify_flags_tampered_lambda(tmp_path, quad_result):
    p = make_quadratic(1)
    rows = [dataclasses.replace(r) for r in quad_result.trace]
    rows[4].lambda_k = 1e12
    report = verify(rows, L=quad_lipschitz(p))
    assert not report.checks["lambda_cap"].passed
    # the update rule holds with no slack: a Lambda_k one ulp off breaks it
    # into its row and out of it, in a list of rows and in their file alike
    rows = [dataclasses.replace(r) for r in quad_result.trace]
    rows[2].Lambda_k = np.nextafter(rows[2].Lambda_k, np.inf)
    path = tmp_path / "t.csv"
    write_trace(path, rows)
    for trace in (rows, path):
        check = verify(trace).checks["newton_count"]
        assert (check.checked, check.violations) == (len(rows), 2)
        assert check.worst_row in (1, 2) and check.worst_slack > 0.0


def test_verify_checks_one_update_rule_throughout(nmf_rule_results, quad_result):
    # each pure trace passes and its notes name its rule; rows that no j_k >= 1
    # tells apart fit both, and then the paper's cap is checked
    for rule, res in nmf_rule_results.items():
        assert any(r.j_k >= 1 for r in res.trace[:-1]), rule
        for trace in (res, res.trace):
            report = verify(trace, L=1e6)
            assert report.passed, (rule, report.summary())
            assert f"update rule: {rule}" in report.notes
            # under keep a first trial after j >= 1 sits at up to 2^p lambda_k
            assert report.lambda_bar == (8e6 if rule == "keep" else 4e6)
    assert all(r.j_k == 0 for r in quad_result.trace)
    report = verify(quad_result, L=1e6)
    assert "update rule: paper or keep (no row tells them apart)" in report.notes
    assert report.lambda_bar == 4e6
    # a trace with one row's update rewritten to the other rule's value, and
    # the rows after it rescaled to follow its own rule again: every row fits
    # one rule, but no rule fits every row
    for rule, scale in (("keep", 0.25), ("paper", 4.0)):
        res = nmf_rule_results[rule]
        rows = [dataclasses.replace(r) for r in res.trace]
        i = max(i for i, r in enumerate(rows[:-1]) if r.j_k >= 1)
        for r in rows[i + 1:]:
            r.Lambda_k *= scale
        assert rows[i + 1].Lambda_k == next_Lambda(rows[i].Lambda_k, rows[i].j_k,
                                                   rule == "paper")
        for trace in (rows, dataclasses.replace(res, trace=rows,
                                                Lambda_final=scale * res.Lambda_final)):
            check = verify(trace).checks["newton_count"]
            assert (check.violations, check.worst_row) == (1, rows[i].k), rule
    # the last row's update, from Lambda_final, is checked the same way: each
    # run's last row is accepted at j_k >= 1, and the other rule's value fails
    for rule, res in nmf_rule_results.items():
        last = res.trace[-1]
        assert last.j_k >= 1
        other = dataclasses.replace(
            res, Lambda_final=next_Lambda(last.Lambda_k, last.j_k, rule == "paper"))
        check = verify(other).checks["newton_count"]
        assert (check.violations, check.worst_row) == (1, last.k), rule


@pytest.mark.parametrize("col, value, check", [
    ("inner_prod", math.nan, "pairing"), ("lambda_k", math.nan, "pairing"),
    ("g_k", math.nan, "pairing"), ("g_k", math.inf, "pairing"),
    ("F_val", math.nan, "decrease"), ("r_k", math.nan, "decrease"),
    ("Lambda_k", math.nan, "newton_count"), ("f_val", math.nan, "finite"),
    ("r_k", 1e300, "decrease"),  # finite, but lambda r^2 / 4 overflows
])
def test_verify_fails_on_non_finite_values(quad_result, col, value, check):
    rows = [dataclasses.replace(r) for r in quad_result.trace]
    setattr(rows[1], col, value)
    report = verify(rows)
    assert not report.passed
    assert not report.checks[check].passed
    finite = report.checks["finite"]
    assert finite.passed == math.isfinite(value)
    assert finite.worst_row == (0 if finite.passed else 1)


def test_verify_hessian_schedule_inference(huber_lazy_result):
    report = verify(huber_lazy_result.trace)
    assert report.checks["hessian_schedule"].passed
    assert any("m=5" in n for n in report.notes)
    rows = [dataclasses.replace(r) for r in huber_lazy_result.trace]
    for r in rows[7:]:
        r.hess_evals += 1  # an extra, off-schedule refresh
    assert not verify(rows).checks["hessian_schedule"].passed


def test_verify_hessian_schedule_rejects_counter_jumps(huber_lazy_result):
    # m = 5 over k = 0..11: the counter reads 1, 2, 3 from k = 0, 5, 10
    rows = [dataclasses.replace(r) for r in huber_lazy_result.trace]
    for r in rows[5:]:
        r.hess_evals += 1  # the refresh at k = 5 steps the counter by 2
    report = verify(rows)
    assert not report.checks["hessian_schedule"].passed
    assert not any("consistent" in n for n in report.notes)
    # the one refresh of rows k = 0..4 steps the counter by 2
    rows = [dataclasses.replace(r, hess_evals=2) for r in huber_lazy_result.trace[:5]]
    assert not verify(rows).checks["hessian_schedule"].passed
    # every step of the counter sits on the m = 5 schedule, but the last row
    # jumps to k = 16, where the counter should read 4 and reads 3
    rows = [dataclasses.replace(r) for r in huber_lazy_result.trace]
    assert [r.hess_evals for r in rows[-2:]] == [3, 3]
    rows[-1].k = 16
    report = verify(rows)
    assert not report.checks["hessian_schedule"].passed
    assert not any("consistent" in n for n in report.notes)


def test_verify_hessian_schedule_counts_off_schedule_rows(huber_lazy_result):
    # every counter from the refresh at k = 5 on reads one too many
    rows = [dataclasses.replace(r) for r in huber_lazy_result.trace]
    for r in rows[5:]:
        r.hess_evals += 1
    sched = verify(rows).checks["hessian_schedule"]
    assert (sched.checked, sched.violations, sched.worst_slack, sched.worst_row) == \
           (12, 7, 1.0, 5)
    # k = 0..9, 11, 12, 13 with refreshes at k = 0, 5 and 11: every counter
    # reads (k - k_0) // 5 + 1, but the refresh at k = 11 is off the schedule
    ks = list(range(10)) + [11, 12, 13]
    rows = [dataclasses.replace(r, k=k, hess_evals=1 + (k >= 5) + (k >= 11))
            for r, k in zip(synthetic_trace([0.5**i for i in range(13)]), ks)]
    sched = verify(rows).checks["hessian_schedule"]
    assert (sched.violations, sched.worst_slack, sched.worst_row) == (1, 1.0, 11)


def test_verify_envelope_uses_observed_lambda_without_L(quad_result):
    p = make_quadratic(1)
    report = verify(quad_result.trace, fstar=quad_optimum(p)[0])
    assert report.checks["envelope"].passed
    assert any("max observed" in n for n in report.notes)
    # an fstar above F_0 leaves no gap to bound
    report = verify(quad_result.trace, fstar=quad_result.trace[0].F_val + 1.0)
    assert "envelope" not in report.checks
    assert "F_0 < fstar: envelope skipped" in report.notes


@pytest.mark.parametrize("option, value", [("L", -5.0), ("L", math.inf), ("L", math.nan),
                                           ("fstar", math.inf), ("fstar", -math.inf),
                                           ("fstar", math.nan),
                                           # a string or a bool is not a number
                                           ("L", "1"), ("fstar", "0"), ("L", True)])
def test_verify_rejects_an_option_it_cannot_use(quad_result, option, value):
    # a bad L or fstar would otherwise fail (or skip) a check of a valid trace
    with pytest.raises(ValueError, match=f"{option} must be"):
        verify(quad_result, **{option: value})


# -------------------------------------------------------------- estimate_order

def test_estimate_order_quadratic_decay():
    # g halves its exponent each step: slope of the log-log fit is 2
    est = estimate_order(synthetic_trace([1e-1, 1e-2, 1e-4, 1e-8]), tail=3)
    assert est.q == pytest.approx(2.0, abs=0.05)
    assert est.fit_residual < 1e-12


def test_estimate_order_geometric_decay():
    est = estimate_order(synthetic_trace([0.5**i for i in range(9)]), tail=6)
    assert est.q == pytest.approx(1.0, abs=1e-9)
    assert est.fit_residual < 1e-12


def test_estimate_order_real_fit_residual():
    # slight curvature: residual is small but nonzero
    gs = [10.0 ** -(1.5**i) for i in range(8)]
    est = estimate_order(synthetic_trace(gs), tail=6)
    assert est.q == pytest.approx(1.5, abs=0.1)
    assert 0.0 < est.fit_residual < 0.5


def test_estimate_order_needs_enough_rows():
    with pytest.raises(NotEstimableError):
        estimate_order(synthetic_trace([1.0, 0.1, 0.01]), tail=6)
    for tail in (1, 3.0, "3", True):  # tail counts transitions: an integer of at least 2
        with pytest.raises(ValueError, match="tail must be"):
            estimate_order(synthetic_trace([1.0, 0.1, 0.01, 1e-3, 1e-4]), tail=tail)


def test_estimate_order_rejects_floor_noise():
    # tail rows sit below 100 eps g_0 and must be dropped
    gs = [1.0, 0.1, 0.01] + [1e-18] * 6
    with pytest.raises(NotEstimableError):
        estimate_order(synthetic_trace(gs), tail=3)


def test_estimate_order_rejects_non_decreasing_tail():
    with pytest.raises(NotEstimableError):
        estimate_order(synthetic_trace([1.0, 0.5, 0.6, 0.4, 0.7, 0.3, 0.8]),
                       tail=3)


def test_estimate_order_takes_a_result(quad_result):
    # like verify, it takes a SolveResult; only the rows are fitted
    assert estimate_order(quad_result, tail=4) == estimate_order(quad_result.trace, tail=4)


# ----------------------------------------------------------------------- run

def test_run_quadratic_writes_short_trace(tmp_path):
    out = tmp_path / "quad.csv"
    code, result, path = run(RunConfig(problem="quad", seed=7, grad_tol=1e-10,
                                       out_path=str(out)))
    assert code == 0
    assert path == str(out)
    rows = read_trace(out)
    assert 1 <= len(rows) <= 30
    assert rows[-1].k == result.iters - 1
    assert verify(out).passed


def test_run_default_out_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _result, path = run(RunConfig(problem="huber", grad_tol=1e-8))
    assert code == 0
    assert path == "gladssn-trace.csv"
    assert (tmp_path / path).exists()
    assert len(read_trace(path)) >= 1


def test_run_exit_code_maxiter(tmp_path):
    code, result, _ = run(RunConfig(problem="quad", max_outer=2, grad_tol=1e-12,
                                    out_path=str(tmp_path / "t.csv")))
    assert code == 2
    assert result.status == "maxiter"


def test_run_armijo_solver(tmp_path):
    code, result, path = run(RunConfig(problem="quad", solver="armijo",
                                       grad_tol=1e-4, max_outer=4000,
                                       problem_kwargs={"cond": 100.0},
                                       out_path=str(tmp_path / "t.csv")))
    assert code == 0
    assert result.hess_evals == 0
    assert verify(path).passed  # baseline: checks skipped, still a clean report


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solvers_check_the_shape_of_x0(solver):
    with pytest.raises(ValueError, match=r"x0 must have shape \(50,\), got \(3,\)"):
        SOLVERS[solver](make_quadratic(1), SolverConfig(), x0=np.zeros(3))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(problem="nosuch")
    with pytest.raises(ConfigError):
        RunConfig(problem="quad", solver="bfgs")
    # a field of the wrong type is a ConfigError, not a TypeError or a late failure
    for kw in ({"problem": ["x"]}, {"problem": "quad", "solver": ["x"]},
               {"problem": "quad", "problem_kwargs": 5}):
        with pytest.raises(ConfigError):
            RunConfig(**kw)
    for unknown in ("lambda_zero", "emit"):  # emit: traces are CSV only
        with pytest.raises(ConfigError, match=unknown):
            RunConfig.from_dict({"problem": "quad", unknown: "csv"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"solver": "gladssn"})
    with pytest.raises(ConfigError):
        run(RunConfig(problem="quad", problem_kwargs={"bogus_kw": 3}))
    # a seed must be an integer value: not a fraction, a string, null or a bool
    # or an integer beyond float range
    for seed in (1.5, "7", None, float("nan"), True, 10**400, -10**400):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"problem": "quad", "seed": seed})
    # out_path is None or a string, checked before any run
    for out_path in (5, ["a"], b"t.csv"):
        with pytest.raises(ConfigError, match="out_path"):
            RunConfig.from_dict({"problem": "quad", "out_path": out_path})
    cfg = RunConfig.from_dict({"problem": "quad", "p": 0.0, "m": 2, "seed": 7.0})
    assert cfg.p == 0.0 and cfg.m == 2
    assert cfg.seed == 7 and isinstance(cfg.seed, int)


# -------------------------------------------------------------------- compare

def test_compare_runs_each_config(tmp_path, capsys):
    # compare only returns the summaries; the CLI prints the table
    base = dict(problem="huber", grad_tol=1e-8,
                problem_kwargs={"m": 80, "n": 10})
    out = tmp_path / "m1.csv"
    summaries = compare([RunConfig(m=1, out_path=str(out), **base), RunConfig(m=4, **base),
                         RunConfig(solver="armijo", max_outer=3000, **base)])
    assert len(summaries) == 3
    assert summaries[0]["status"] == "converged"
    assert summaries[1]["status"] == "converged"
    # lazier refresh -> no more Hessian factorizations than eager
    assert summaries[1]["hess_evals"] <= summaries[0]["hess_evals"]
    assert summaries[2]["hess_evals"] == 0
    assert capsys.readouterr().out == ""
    assert len(read_trace(out)) == summaries[0]["iters"]  # the one out_path set
    for s in summaries:
        assert set(s) == {"problem", "solver", "p", "m", "seed", "status",
                          "iters", "trials", "hess_evals", "g_final", "wall_s"}


def test_compare_wall_time_covers_rejected_trials(tmp_path):
    # this run stalls after 52 trials, 24 of them past its last accepted
    # step (the last rounds to x_k), so the last trace row's wall_ns covers
    # only part of the solve
    out = tmp_path / "svm.csv"
    [stalled] = compare([RunConfig(problem="svm", seed=3, grad_tol=1e-12,
                                   out_path=str(out),
                                   problem_kwargs={"n": 50, "ell": 2000})])
    last = read_trace(out)[-1]
    assert stalled["status"] == "stalled" and stalled["trials"] > last.trials
    assert stalled["wall_s"] > last.wall_ns / 1e9
    # a run with no accepted step still reports the time of its solver call
    [idle] = compare([RunConfig(problem="quad", max_outer=0)])
    assert idle["iters"] == 0 and idle["wall_s"] > 0.0
