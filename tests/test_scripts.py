import json
import subprocess
import sys
from pathlib import Path

SAME_TRAJECTORIES = Path(__file__).resolve().parents[1] / "scripts" / "same_trajectories.py"


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
