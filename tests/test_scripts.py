import json
import math
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SAME_TRAJECTORIES = SCRIPTS / "same_trajectories.py"


def report(path, solves):
    path.write_text(json.dumps({"workload": "nmf-matfree", "seed": 1, "solves": solves}))
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
        "largest F_final rel diff 1.62e-02 at seed 2"])


def test_same_trajectories_rejects_a_negative_or_nan_tolerance(tmp_path):
    # a tolerance no difference can meet is a usage error, even for two
    # identical reports, and so is one that is not a number
    parent = report(tmp_path / "parent.json", [solve_record(s) for s in (1, 2)])
    for rel in ("-1", "nan", "-0.5e-6", "x"):
        out = same_trajectories("--rel-tol", rel, parent, parent)
        assert out.returncode == 2 and out.stdout == "", rel
        assert "argument --rel-tol" in out.stderr, rel
    assert same_trajectories("--rel-tol", "0", parent, parent).returncode == 0


def test_lazy_sweep_prints_the_cost_ratio():
    # one seed of the smallest workload keeps the run short
    out = subprocess.run([sys.executable, str(SCRIPTS / "lazy_sweep.py"),
                          "--workload", "nmf-dense-lazy", "--seeds", "1"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    header, _, *rows = out.stdout.splitlines()
    assert header.endswith("| failed | cost ratio (ms per refresh / per trial) |")
    assert [row.split(" | ")[:2] for row in rows] == [["| `nmf-dense-lazy` (1-1)", "1"],
                                                      ["| `nmf-dense-lazy` (1-1)", "5"]]
    for row in rows:
        ratio, refresh, trial = map(float, re.fullmatch(
            r".* \| (\S+) \((\S+) / (\S+)\) \|", row).groups())
        assert refresh > 0.0 and trial > 0.0
        assert math.isclose(ratio, refresh / trial, rel_tol=0.02), row
