import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SAME_TRAJECTORIES = SCRIPTS / "same_trajectories.py"


def report(path, solves, workload="nmf-matfree"):
    path.write_text(json.dumps({"workload": workload, "seed": 1, "solves": solves}))
    return str(path)


def solve_record(seed, **edits):
    record = {"seed": seed, "status": "converged", "iters": 37, "trials": 75,
              "hess_evals": 37, "g_final": 0.9285766240197252, "F_final": 88563.5686572787,
              "digest": f"{seed:064x}", "solve_s": 0.4, "errors": []}
    return {**record, **edits}


def same_trajectories(*paths):
    return subprocess.run([sys.executable, str(SAME_TRAJECTORIES), *paths],
                          capture_output=True, text=True, timeout=60)


def test_same_trajectories_lists_every_seed_that_moved(tmp_path):
    parent = report(tmp_path / "parent.json", [solve_record(s) for s in (1, 2, 3, 4)])
    # wall time is not compared: only the solve time differs here
    same = report(tmp_path / "same.json", [solve_record(s, solve_s=9.0) for s in (1, 2, 3, 4)])
    out = same_trajectories(parent, same)
    assert (out.returncode, out.stdout) == (0, "4 solves agree in status, iters, trials, "
                                               "hess_evals, digest, g_final, F_final\n")
    # one last bit of F_final, a digest and an iteration count, and a seed
    # that only the change solved
    change = report(tmp_path / "change.json", [
        solve_record(1), solve_record(2, F_final=88563.56865727871),
        solve_record(3, digest="ab" * 32, iters=38), solve_record(4), solve_record(5)])
    out = same_trajectories(parent, change)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "seed 2: F_final 88563.5686572787 -> 88563.56865727871",
        f"seed 3: iters 37 -> 38; digest '{3:064x}' -> '{'ab' * 32}'",
        "seed 5: solved only in the change",
    ]


def test_same_trajectories_tolerance_mode_fails_only_on_status_seed_or_value(tmp_path):
    parent = report(tmp_path / "parent.json", [solve_record(s) for s in (1, 2, 3)])
    # other iterates, digests and counts, and F_final within 1e-6: passes
    moved = report(tmp_path / "moved.json", [
        solve_record(1, iters=38, trials=77, digest="ab" * 32, g_final=0.5),
        solve_record(2, F_final=88563.5686572787 * (1 + 5e-7), iters=35, trials=71),
        solve_record(3)])
    out = same_trajectories("--rel-tol", "1e-6", parent, moved)
    assert (out.returncode, out.stdout.splitlines()) == (0, [
        "seed 1: converged; iters +1, trials +2; F_final rel diff 0.00e+00",
        "seed 2: converged; iters -2, trials -4; F_final rel diff 5.00e-07",
        "seed 3: converged; iters +0, trials +0; F_final rel diff 0.00e+00",
        "3 solves in both: iters 111 -> 110, trials 225 -> 223; "
        "all within F_final rel-tol 1e-06 with the same status; "
        "largest F_final rel diff 5.00e-07 at seed 2"])
    # bit for bit stays the default
    assert same_trajectories(parent, moved).returncode == 1
    # a status change, an F_final beyond the tolerance and a seed that only
    # the change solved each fail
    failing = report(tmp_path / "failing.json", [
        solve_record(1, status="stalled"), solve_record(2, F_final=9e4), solve_record(3),
        solve_record(4)])
    out = same_trajectories("--rel-tol", "1e-6", parent, failing)
    assert (out.returncode, out.stdout.splitlines()) == (1, [
        "seed 1: converged -> stalled; iters +0, trials +0; F_final rel diff 0.00e+00 "
        "(status changed)",
        "seed 2: converged; iters +0, trials +0; F_final rel diff 1.62e-02 "
        "(F_final beyond 1e-06)",
        "seed 3: converged; iters +0, trials +0; F_final rel diff 0.00e+00",
        "seed 4: solved only in the change",
        "3 solves in both: iters 111 -> 111, trials 225 -> 225; "
        "not all within F_final rel-tol 1e-06 with the same status; "
        "status changes: converged -> stalled 1; "
        "largest F_final rel diff 1.62e-02 at seed 2"])
    # the totals count the status changes by direction, the most common first
    stalled = report(tmp_path / "stalled.json",
                     [solve_record(s, status="stalled") for s in (1, 2, 3)] + [solve_record(4)])
    flipped = report(tmp_path / "flipped.json", [
        solve_record(1), solve_record(2), solve_record(3, status="stalled"),
        solve_record(4, status="stalled")])
    out = same_trajectories("--rel-tol", "1e-6", stalled, flipped)
    assert out.returncode == 1
    assert out.stdout.splitlines()[-1] == (
        "4 solves in both: iters 148 -> 148, trials 300 -> 300; "
        "not all within F_final rel-tol 1e-06 with the same status; "
        "status changes: stalled -> converged 2, converged -> stalled 1; "
        "largest F_final rel diff 0.00e+00 at seed 1")


def test_same_trajectories_rejects_a_negative_or_nan_tolerance(tmp_path):
    # a tolerance no difference can meet is a usage error, even for two
    # identical reports, and so is one that is not a number
    parent = report(tmp_path / "parent.json", [solve_record(s) for s in (1, 2)])
    for rel in ("-1", "nan", "-0.5e-6", "x"):
        out = same_trajectories("--rel-tol", rel, parent, parent)
        assert out.returncode == 2 and out.stdout == "", rel
        assert "argument --rel-tol" in out.stderr, rel
    assert same_trajectories("--rel-tol", "0", parent, parent).returncode == 0


def test_same_trajectories_refuses_reports_of_two_workloads(tmp_path):
    # the same seeds of two workloads are different instances: a usage
    # error naming both, in either mode
    parent = report(tmp_path / "svm.json", [solve_record(s) for s in (1, 2)], workload="svm")
    change = report(tmp_path / "nmf.json", [solve_record(s) for s in (1, 2)],
                    workload="nmf-dense-lazy")
    for mode in ([], ["--rel-tol", "1e-6"]):
        out = same_trajectories(*mode, parent, change)
        assert out.returncode == 2 and out.stdout == "", mode
        assert f"different workloads: svm ({parent}) and nmf-dense-lazy ({change})" in out.stderr


def repository_files(root):
    """Every path git lists under root, tracked, untracked or ignored, with its state."""
    out = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--ignored",
                          "--untracked-files=all"], capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines())


@pytest.mark.skipif(subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse", "HEAD"],
                                   capture_output=True).returncode != 0,
                    reason="needs a git checkout to archive the parent from")
def test_bench_pairs_runs_both_sides_and_compares_trajectories(tmp_path):
    # HEAD against the working tree of a local clone of HEAD, so that both
    # sides are the committed tree whatever this checkout's uncommitted
    # edits: they solve the same instances, their digests agree, and only
    # the ignored perfbench/out/ is written, in the clone or in the checkout
    root = SCRIPTS.parent
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "--quiet", str(root), str(clone)],
                   capture_output=True, check=True)
    before = {tree: repository_files(tree) for tree in (root, clone)}
    out = subprocess.run([sys.executable, str(clone / "scripts" / "bench_pairs.py"), "HEAD",
                          "--workload", "nmf-dense-lazy", "--pairs", "1", "--seconds", "1"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    runs = [line for line in lines if re.match(r"pair \d+ run \d+: ", line)]
    assert [line.split()[4] for line in runs] == ["parent", "change"]
    for line in runs:
        assert all(f" {name} " in line for name in ("solve_rel", "setup_s", "peak_rss_mb"))
        assert line.endswith("correct true")
    assert re.fullmatch(r"pair 1 trajectories: \d+ solves agree in .*", lines[lines.index(runs[-1]) + 1])
    for name in ("solve_rel", "setup_s", "peak_rss_mb"):
        # one pair of identical trees claims no gain, whatever the noise
        verdict = next(line for line in lines
                       if line.startswith(f"{name} ") and "sign-test p" in line)
        assert re.fullmatch(rf"{name} +change (lower|higher) in [01] of 1 pairs; .*; median gain "
                            r"\S+ (>|<=) parent IQR \S+; .*; claim rule not met", verdict), verdict
    counts = [line for line in lines if line.startswith(("src/gladssn lines:", "tests lines:"))]
    assert re.fullmatch(r"largest failed: parent (\d+), change \1",
                        lines[lines.index(counts[-1]) + 1])
    src, tests = (sum(len(path.read_text().splitlines()) for path in (clone / tree).glob("*.py"))
                  for tree in ("src/gladssn", "tests"))
    assert counts == [f"src/gladssn lines: parent {src}, change {src}, +0",
                      f"tests lines: parent {tests}, change {tests}, +0"]
    assert lines[-1] == "trajectories: every pair agrees"
    for tree, entries in before.items():
        added = {entry for entry in repository_files(tree) - entries
                 if not entry.startswith("!! perfbench/out/")}
        assert not added, (tree, added)


@pytest.mark.skipif(subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse", "HEAD"],
                                   capture_output=True).returncode != 0,
                    reason="needs a git checkout to archive the parent from")
@pytest.mark.parametrize("moved", [[], ["svm"]])
def test_bench_pairs_all_runs_every_workload_and_fails_if_one_differs(moved, capsys,
                                                                       monkeypatch):
    # `--workload all` prints each workload's pairs and summary as one
    # workload does, and exits 1 when a pair of any workload differs; the
    # bench runs are stubbed, the change moving one digest on `moved`
    monkeypatch.syspath_prepend(str(SCRIPTS))
    bench_pairs = importlib.import_module("bench_pairs")
    workloads = [w["name"] for w in bench_pairs.BENCHMARK["workloads"]]

    def bench(tree, workload, args, keep):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        moves = side == "change" and workload in moved
        keep.write_text(json.dumps({
            "workload": workload, "seed": args.seed,
            "solves": [solve_record(1, **({"digest": "f" * 64} if moves else {}))],
            "environment": {"src_gladssn_lines": 100 if side == "parent" else 90}}))
        return {"metrics": {name: {"value": 1.0} for name in bench_pairs.LOWER_IS_BETTER},
                "failed": 0, "attempted": 1, "correct": True}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    code = bench_pairs.main(["HEAD", "--workload", "all", "--pairs", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == (1 if moved else 0)
    headers = [line.split()[1] for line in lines if line.startswith("# ")]
    assert headers == workloads
    verdicts = [line for line in lines if line.startswith("trajectories: ")]
    assert verdicts == [f"trajectories: {'some pair differs' if w in moved else 'every pair agrees'}"
                        for w in workloads]
    assert lines.count("src/gladssn lines: parent 100, change 90, -10") == len(workloads)
    assert lines[-1] == ("workloads: some pair differs on svm" if moved
                         else f"workloads: every pair agrees on all {len(workloads)}")


@pytest.mark.skipif(subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse", "HEAD"],
                                   capture_output=True).returncode != 0,
                    reason="needs a git checkout to archive the parent from")
@pytest.mark.parametrize("side, edits, line", [
    ("change", {"correct": False}, "svm: pair 2 change reads correct false"),
    ("parent", {"correct": False}, "svm: pair 2 parent reads correct false"),
    ("change", {"failed": 3}, "svm: largest failed rises from 1 to 3")])
def test_bench_pairs_fails_a_run_that_is_not_correct_or_fails_more(side, edits, line, capsys,
                                                                     monkeypatch):
    # with every trajectory agreeing, `--workload all` still exits 1 when a
    # run of svm reads correct false, or when the change's largest failed
    # count exceeds the parent's, with one line naming svm
    monkeypatch.syspath_prepend(str(SCRIPTS))
    bench_pairs = importlib.import_module("bench_pairs")
    workloads = [w["name"] for w in bench_pairs.BENCHMARK["workloads"]]

    def bench(tree, workload, args, keep):
        keep.write_text(json.dumps({
            "workload": workload, "seed": args.seed, "solves": [solve_record(1)],
            "environment": {"src_gladssn_lines": 100}}))
        result = {"metrics": {name: {"value": 1.0} for name in bench_pairs.LOWER_IS_BETTER},
                  "failed": 1, "attempted": 2, "correct": True}
        if workload == "svm" and keep.name == f"pair2-{side}.json":
            result.update(edits)
        return result

    monkeypatch.setattr(bench_pairs, "bench", bench)
    code = bench_pairs.main(["HEAD", "--workload", "all", "--pairs", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [ln for ln in lines if ln.startswith(tuple(f"{w}: " for w in workloads))] == [line]
    assert lines[lines.index(line) - 1] == "trajectories: every pair agrees"
    assert lines[-1] == f"workloads: every pair agrees on all {len(workloads)}"


def test_lazy_sweep_prints_the_cost_ratio():
    # one seed of the smallest workload keeps the run short
    out = subprocess.run([sys.executable, str(SCRIPTS / "lazy_sweep.py"),
                          "--workload", "nmf-dense-lazy", "--seeds", "1"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    header, _, *rows = out.stdout.splitlines()
    assert header.endswith("| iterations | trials | j_k = 0 / 1 / >= 2 | Hessians | failed "
                           "| rest, ms per iteration | cost ratio (ms per refresh / per trial) |")
    assert [row.split(" | ")[:2] for row in rows] == [["| `nmf-dense-lazy` (1-1)", "1"],
                                                      ["| `nmf-dense-lazy` (1-1)", "5"]]
    for row in rows:
        cells = re.fullmatch(r".* \| (\S+) / (\S+) \| (\d+) \| (\d+) \| (\d+) / (\d+) / (\d+) "
                             r"\| (\d+) \| (\d+) \| (\S+) \| (\S+) \((\S+) / (\S+)\) \|", row)
        first, second, iters, trials, j0, j1, j2, hessians, failed, rest, ratio, refresh, trial = (
            map(float, cells.groups()))
        # the split covers every accepted iteration, and each iteration accepted
        # at j_k took j_k + 1 trials (a solve that did not converge pays more)
        assert j0 + j1 + j2 == iters and trials >= iters + j1 + 2.0 * j2, row
        assert failed == 0 and hessians <= iters, row
        assert refresh > 0.0 and trial > 0.0 and rest > 0.0
        assert math.isclose(ratio, refresh / trial, rel_tol=0.02), row
        # the three parts, timed apart, add up to the mean solve (one seed),
        # within the rounding of the printed seconds (0.05 ms) and ms (3 digits)
        parts = refresh * hessians + trial * trials + rest * iters
        assert math.isclose(parts, 1e3 * (first + second) / 2.0, rel_tol=0.01, abs_tol=0.5), row
