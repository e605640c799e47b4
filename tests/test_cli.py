import argparse
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gladssn
from gladssn.cli import _build_parser, main
from gladssn.harness import RunConfig, read_trace, write_trace
from gladssn.ssn import PHASES

from helpers import LAMBDA0_NUDGES, synthetic_trace


def test_run_quad(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "quad", "--solver", "gladssn",
                 "--p", "0.5", "--m", "1", "--seed", "7",
                 "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    rows = read_trace(out)
    assert 1 <= len(rows) <= 30
    msg = capsys.readouterr().out
    assert "converged" in msg and str(out) in msg


def test_run_requires_problem(capsys):
    assert main(["run", "--solver", "gladssn"]) == 1
    assert "problem" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_bad_flag_value_is_exit_1(tmp_path, capsys):
    # argparse normally exits the process with 2; the wrapper maps usage
    # problems to a plain return of 1
    assert main(["run", "--problem", "quad", "--m", "two"]) == 1
    assert main(["run", "--problem", "nosuch"]) == 1
    # a NaN tolerance is a config error, not a run that stalls at the floor
    assert main(["run", "--problem", "quad", "--tol", "nan",
                 "--out", str(tmp_path / "t.csv")]) == 1
    assert "grad_tol" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    # an integer beyond float range is a config error too, as a flag or in
    # a config file, reported in one line and not as a traceback (each
    # field's rule is pinned in test_harness and test_ssn)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problem": "quad", "m": 1' + "0" * 400 + "}")
    for argv in (["--problem", "quad", "--m", "1" + "0" * 400], ["--config", str(cfg)]):
        assert main(["run", *argv, "--out", str(tmp_path / "t.csv")]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("gladssn: ") and "Traceback" not in err, argv
    assert not (tmp_path / "t.csv").exists()


def test_run_maxiter_exit_code(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["run", "--problem", "quad", "--tol", "1e-12",
                 "--max-outer", "2", "--out", str(out)])
    assert code == 2


def test_module_entry_point_exit_codes(tmp_path):
    # python -m gladssn.cli exits with main's code: 0 converged, 1 a config
    # error, 2 at the iteration cap and 3 stalled.  This SVM run stalls at
    # its rounding floor after 11 iterations, as it does at nudged Lambda0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "svm", "seed": 1, "grad_tol": 1e-12,
                               "problem_kwargs": {"n": 10, "ell": 200}}))
    src = str(Path(gladssn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    for code, argv in ((0, ["--problem", "quad", "--p", "0.5", "--m", "1", "--seed", "7",
                            "--tol", "1e-10"]),
                       (1, ["--problem", "quad", "--m", "0"]),
                       (2, ["--problem", "quad", "--max-outer", "0"]),
                       (3, ["--config", str(cfg)])):
        done = subprocess.run([sys.executable, "-m", "gladssn.cli", "run", *argv,
                               "--out", str(tmp_path / "t.csv")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, (argv, done.stdout, done.stderr)


def test_run_with_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "huber", "grad_tol": 1e-6,
                               "problem_kwargs": {"m": 40, "n": 6},
                               "out_path": str(tmp_path / "a.csv")}))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "a.csv").exists()
    # explicit flags win over the file
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b.csv"),
                 "--seed", "3"]) == 0
    assert (tmp_path / "b.csv").exists()
    a = read_trace(tmp_path / "a.csv")
    b = read_trace(tmp_path / "b.csv")
    assert [r.g_k for r in a] != [r.g_k for r in b]  # different seed


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("solver", ["gladssn", "armijo"])
def test_run_non_finite_problem_is_exit_1(tmp_path, capsys, solver):
    # both solvers refuse a non-finite start alike, in one line and with no trace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "nmf", "out_path": str(tmp_path / "t.csv"),
                               "solver": solver,
                               "problem_kwargs": {"d": 4, "n": 3, "r": 2,
                                                  "sigma": 1e308}}))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gladssn: ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("problem, kwargs, message", [
    ("nmf", {"d": 0}, "bad problem_kwargs for nmf: make_nmf: d must be at least 1, got 0"),
    ("quad", {"n": 4.5}, "bad problem_kwargs for quad: make_quadratic: n must be an integer, "
                         "got 4.5"),
    ("quad", {"n": 10**9}, "problem_kwargs {'n': 1000000000} too large for quad: ")],
    ids=["bound", "type", "allocation"])
def test_run_with_bad_problem_kwargs_is_exit_1(tmp_path, capsys, problem, kwargs, message):
    # one case per route by which a generator's refusal reaches the user: a
    # bound, a type, and numpy's MemoryError at the first allocation (so the
    # test allocates nothing).  Each once ended in a traceback; the values
    # each rule refuses are pinned where it is applied, in test_problems
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": problem, "problem_kwargs": kwargs,
                               "out_path": str(tmp_path / "t.csv")}))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    if message.endswith(": "):  # the MemoryError's own text follows
        assert err.startswith(f"gladssn: {message}") and err.count("\n") == 1
    else:
        assert err == f"gladssn: {message}\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("problem, path, flags", [
    ("quad", "cholesky", []), ("nmf", "minres", ["--tol", "1e-2"])])
def test_run_prints_the_inner_solve_totals(tmp_path, capsys, problem, path, flags):
    # one line after the status line totals the inner solves of the run's
    # trials by route: direct factors for quad, and MINRES for the
    # default-size nmf, which is matrix-free, with its iterations and any
    # corrections.  No trial fails its inner solve here, so the solves
    # number the trials the trace counts.  The last line gives the run's
    # time: its total, each phase, and the rest as other
    out = tmp_path / "t.csv"
    assert main(["run", "--problem", problem, *flags, "--out", str(out)]) == 0
    status, inner, time = capsys.readouterr().out.splitlines()
    assert status.startswith(f"{problem}/gladssn: converged")
    counts = re.fullmatch(rf"inner: {path} (\d+) solves(?:, (\d+) iterations)?"
                          r"(?:, (\d+) corrections?)?", inner)
    assert counts is not None, inner
    assert int(counts[1]) == read_trace(out)[-1].trials
    assert (counts[2] is not None) == (path == "minres")
    assert time.startswith("time: ")
    ms = dict(item.removesuffix(" ms").split(" ")
              for item in time.removeprefix("time: ").split(", "))
    assert list(ms) == ["total", *PHASES, "other"]
    assert float(ms["other"]) >= 0.0
    assert sum(float(ms[phase]) for phase in PHASES) <= float(ms["total"])


def test_run_flags_cover_run_config_fields():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["run"]._actions} - {"config", "help"}
    assert dests == {f.name for f in dataclasses.fields(RunConfig)} - {"problem_kwargs"}


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "quad", "bogus": 1}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "bogus" in capsys.readouterr().err
    # a list of configs is for compare, not run
    cfg.write_text(json.dumps([{"problem": "quad"}]))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "single JSON object" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["run", "--problem", "quad", "--tol", "1e-9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert "verify: PASS" in capsys.readouterr().out
    # corrupt one objective value: verification must fail with exit 1
    text = out.read_text().splitlines()
    head, rows = text[0], text[1:]
    cols = head.split(",")
    broken = rows[2].split(",")
    broken[cols.index("F_val")] = repr(float(rows[1].split(",")[cols.index("F_val")]) + 9.0)
    rows[2] = ",".join(broken)
    out.write_text("\n".join([head] + rows) + "\n")
    assert main(["verify", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_names_the_update_rule(tmp_path, capsys):
    # NMF certifies its decrease from the step (eval_f_diff) and keeps Lambda's
    # level; SVM decides on rounded values and follows the paper's rule; the
    # quadratic accepts every first trial, where the two rules agree.  Each
    # run converges whatever the last bits of Lambda0: gamma = 1 keeps the
    # SVM's F small enough that its decrease is not decided at the rounding
    # floor
    runs = {"keep": {"problem": "nmf", "seed": 2, "grad_tol": 1e-6,
                     "problem_kwargs": {"d": 20, "n": 10, "r": 3}},
            "paper": {"problem": "svm", "seed": 2, "grad_tol": 1e-6,
                      "problem_kwargs": {"n": 10, "ell": 200, "gamma": 1.0}},
            "paper or keep (no row tells them apart)": {"problem": "quad", "seed": 7,
                                                        "grad_tol": 1e-10}}
    for rule, cfg in runs.items():
        for nudge in LAMBDA0_NUDGES:
            out, cfg_path = tmp_path / "t.csv", tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({**cfg, "Lambda0": nudge}))
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["verify", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert f"  note: update rule: {rule}" in lines, (nudge, lines)
            assert lines[-1] == "verify: PASS"


def test_verify_reports_a_bad_option_in_one_line(tmp_path, capsys):
    # the README's quad seed-7 trace passes verify with no options; the
    # values each option refuses are pinned in test_harness
    out = tmp_path / "t.csv"
    assert main(["run", "--problem", "quad", "--seed", "7", "--tol", "1e-10",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()
    for flag, value in (("--L", "-5"), ("--fstar", "nan")):
        assert main(["verify", str(out), flag, value]) == 1
        captured = capsys.readouterr()
        assert f"gladssn: {flag[2:]} must be" in captured.err, (flag, value)
        assert "verify:" not in captured.out


def test_run_and_compare_reject_a_non_string_out_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "quad", "out_path": 5}))
    assert main(["run", "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps([{"problem": "quad", "out_path": ["a"]}]))
    assert main(["compare", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.count("gladssn: out_path must be a string") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]  # no trace written


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/trace.csv"]) == 1
    assert "gladssn:" in capsys.readouterr().err


def test_verify_malformed_csv_trace(tmp_path, capsys):
    path = tmp_path / "t.csv"
    write_trace(path, synthetic_trace([1e-1, 1e-2]))
    head, row0, row1 = path.read_text().splitlines()
    cols = head.split(",")
    # a row of one field, and a row whose g_k is not finite
    for bad in ("1", ",".join("NaN" if c == "g_k" else t
                              for c, t in zip(cols, row0.split(",")))):
        path.write_text("\n".join([head, bad, row1]) + "\n")
        assert main(["verify", str(path)]) == 1
        assert "row 0" in capsys.readouterr().err


def test_readme_cli_quick_start(tmp_path, monkeypatch, capsys):
    # every line of README's CLI quick start: run, verify and estimate-order,
    # then the heredoc's runs.json, which compare runs to one row per config
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (CLI)")[1].split("```sh\n")[1].split("```")[0]
    before, heredoc = block.split("cat > runs.json <<'JSON'\n")
    runs_json, after = heredoc.split("\nJSON\n")
    lines = [shlex.split(ln, comments=True) for ln in (before + after).splitlines()]
    commands = [ln[1:] for ln in lines if ln[:1] == ["gladssn"]]
    assert [c[0] for c in commands] == ["run", "verify", "estimate-order", "compare"]
    assert commands[-1] == ["compare", "--config", "runs.json"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.json").write_text(runs_json)
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, (argv, capsys.readouterr())
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("problem") and set(rule) == {"-"}
    assert [row.split()[:2] for row in rows] == [[c["problem"], c.get("solver", "gladssn")]
                                                 for c in json.loads(runs_json)]


def test_readme_library_quick_start(capsys):
    # README's library quick start converges and its run passes verify
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (library)")[1].split("```python\n")[1].split("```")[0]
    scope = {}
    exec(block, scope)
    assert scope["res"].status == "converged"
    assert scope["verify"](scope["res"]).passed
    assert capsys.readouterr().out.startswith("converged")


def test_estimate_order_command(tmp_path, capsys):
    path = tmp_path / "synt.csv"
    write_trace(path, synthetic_trace([1e-1, 1e-2, 1e-4, 1e-8]))
    assert main(["estimate-order", str(path), "--tail", "3"]) == 0
    assert "q=2.0000" in capsys.readouterr().out
    # too short for the default tail of 6
    assert main(["estimate-order", str(path)]) == 1
    assert "gladssn:" in capsys.readouterr().err


def test_compare_command(tmp_path, capsys):
    cfg = tmp_path / "cmp.json"
    base = {"problem": "huber", "grad_tol": 1e-7,
            "problem_kwargs": {"m": 40, "n": 6}}
    cfg.write_text(json.dumps([dict(base, m=1), dict(base, m=3),
                               dict(base, solver="armijo", max_outer=3000)]))
    assert main(["compare", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("problem")
    assert "huber" in out and "converged" in out and "armijo" in out
    assert len(out.splitlines()) == 2 + 3  # header, rule, one line per run
    # a bare dict instead of a list is a config error
    cfg.write_text(json.dumps(base))
    assert main(["compare", "--config", str(cfg)]) == 1


def test_a_config_file_that_is_not_json_is_named(tmp_path, capsys):
    # text that is not JSON, or bytes that are not UTF-8, in a --config
    # file is a config error of either command, reported in one line that
    # names the file
    cfg = tmp_path / "bad.json"
    for text in (b"{bad", b"\xff{}"):
        cfg.write_bytes(text)
        for command in ("run", "compare"):
            assert main([command, "--config", str(cfg)]) == 1, (command, text)
            err = capsys.readouterr().err
            assert err.startswith("gladssn: ") and "Traceback" not in err, (command, text)
            assert err.count("\n") == 1 and str(cfg) in err, (command, text)


def test_compare_rejects_non_object_entry(tmp_path, capsys):
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps([{"problem": "quad"}, 1]))
    assert main(["compare", "--config", str(cfg)]) == 1
    assert "gladssn:" in capsys.readouterr().err
