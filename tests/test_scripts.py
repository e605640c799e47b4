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
    assert re.fullmatch(r"largest failed: parent (\d+), change \1", lines[lines.index(
        next(line for line in lines if line.startswith("src/gladssn lines:"))) + 1])
    count = sum(len(path.read_text().splitlines())
                for path in (clone / "src" / "gladssn").glob("*.py"))
    assert f"src/gladssn lines: parent {count}, change {count}, +0" in lines
    assert lines[-1] == "trajectories: every pair agrees"
    for tree, entries in before.items():
        added = {entry for entry in repository_files(tree) - entries
                 if not entry.startswith("!! perfbench/out/")}
        assert not added, (tree, added)


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
        # within the rounding of the printed seconds (0.5 ms) and ms (3 digits)
        parts = refresh * hessians + trial * trials + rest * iters
        assert math.isclose(parts, 1e3 * (first + second) / 2.0, rel_tol=0.01, abs_tol=0.5), row
