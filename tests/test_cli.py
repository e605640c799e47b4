import argparse
import dataclasses
import json
import shlex
from pathlib import Path

import pytest

from gladssn.cli import _build_parser, main
from gladssn.harness import RunConfig, read_trace, write_trace

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


def test_run_maxiter_exit_code(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["run", "--problem", "quad", "--tol", "1e-12",
                 "--max-outer", "2", "--out", str(out)])
    assert code == 2


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
def test_run_non_finite_problem_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "nmf", "out_path": str(tmp_path / "t.csv"),
                               "problem_kwargs": {"d": 4, "n": 3, "r": 2,
                                                  "sigma": 1e308}}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("gladssn: ")


@pytest.mark.parametrize("problem, kwargs", [
    ("nmf", {"d": -1}), ("nmf", {"d": 0}), ("svm", {"n": 0}), ("huber", {"m": 0})])
def test_run_with_a_size_below_one_is_exit_1(tmp_path, capsys, problem, kwargs):
    # these once ended in an OverflowError, an IndexError or a reshape
    # error at the first trial, each with a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": problem, "problem_kwargs": kwargs,
                               "out_path": str(tmp_path / "t.csv")}))
    assert main(["run", "--config", str(cfg)]) == 1
    (name, size), = kwargs.items()
    assert capsys.readouterr().err == (f"gladssn: bad problem_kwargs for {problem}: "
                                       f"make_{problem}: {name} must be at least 1, got {size}\n")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("problem, kwargs", [
    ("nmf", {"beta": 0}), ("nmf", {"alpha": -1}), ("nmf", {"sigma": -1}),
    ("svm", {"gamma": 0}), ("svm", {"gamma": -1}),
    ("huber", {"delta": 0}), ("huber", {"ridge": -1}),
    ("quad", {"cond": 0}), ("quad", {"cond": -1})])
def test_run_with_a_parameter_outside_its_domain_is_exit_1(tmp_path, capsys, problem, kwargs):
    # these once ended in a ZeroDivisionError traceback, ran to maxiter on an
    # objective unbounded below, or "converged" on a degenerate loss
    sizes = {"nmf": {"d": 4, "n": 3, "r": 2}, "svm": {"n": 3, "ell": 8},
             "huber": {"m": 6, "n": 3}, "quad": {"n": 4}}[problem]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": problem, "problem_kwargs": {**sizes, **kwargs},
                               "out_path": str(tmp_path / "t.csv")}))
    assert main(["run", "--config", str(cfg)]) == 1
    (name, value), = kwargs.items()
    err = capsys.readouterr().err
    assert err.startswith(f"gladssn: bad problem_kwargs for {problem}: make_")
    assert f": {name} must be " in err and err.endswith(f", got {value}\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


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


def test_verify_rejects_an_option_it_cannot_use(tmp_path, capsys):
    # the README's quad seed-7 trace passes verify with no options
    out = tmp_path / "t.csv"
    assert main(["run", "--problem", "quad", "--seed", "7", "--tol", "1e-10",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()
    for flag, value in (("--L", "-5"), ("--L", "inf"), ("--L", "nan"),
                        ("--fstar", "inf"), ("--fstar", "nan")):
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
    # the run, verify and estimate-order lines of README's CLI quick start
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (CLI)")[1].split("```sh\n")[1].split("```")[0]
    lines = [shlex.split(ln, comments=True) for ln in block.splitlines()]
    commands = [ln[1:] for ln in lines if ln[1:2] in (["run"], ["verify"], ["estimate-order"])]
    assert [c[0] for c in commands] == ["run", "verify", "estimate-order"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr())


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


def test_compare_rejects_non_object_entry(tmp_path, capsys):
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps([{"problem": "quad"}, 1]))
    assert main(["compare", "--config", str(cfg)]) == 1
    assert "gladssn:" in capsys.readouterr().err
