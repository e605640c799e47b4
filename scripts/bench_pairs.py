"""Run the benchmark in alternating parent/change pairs and compare the sides.

    python3 scripts/bench_pairs.py PARENT_REF --workload W --pairs N
        [--seconds S] [--seed K] [--rel-tol T]

W is a BENCHMARK.json workload, or `all` for each of them in turn, every
workload printed as one W would be.

The parent is PARENT_REF, copied from this repository into a temporary
directory with `git archive`; the change is the working tree.  Each pair
runs perfbench/bench.py unedited on both sides (`--trace 0`), the parent
first in odd pairs and the change first in even ones, so that the position
within a pair falls on both sides alike.

Every run is printed with its end-to-end metrics.  Per metric the summary
gives each side's median, q1, q3 and IQR (inclusive quartiles), the pairs
the change wins, the median per-pair change/parent ratio, the two-sided
sign-test p over the pairs that are not tied, and the ratio of a run's value
in the first position to its value in the second, estimated from the pairs
of both orders so that the difference between the sides cancels (n/a from
pairs of one order), and then whether the rule for claiming a gain holds:
over 10 pairs or more the change wins at least 9 of every 10 pairs run, a
tie counting for neither side; its median is better than the parent's by
more than the parent's IQR; and its largest count of failed solves, printed
per side, is no larger than the parent's, since a gain does not count when
more solves fail.  Each pair's two reports are compared in this process by
the compare of scripts/same_trajectories.py, with --rel-tol when given.
The line count of src/gladssn that each side's reports record is printed
with the change's difference from the parent, the line delta of a change,
and beside it the same for tests/*.py, counted in each side's tree.
A change is also refused when a run's check reads correct false or when
its largest failed count exceeds the parent's; each such finding is printed
as one line that starts with the workload's name.  Exits 1 when a bench run
fails, a pair's digests or statuses differ, or there is such a finding, on
any workload, 2 on a usage error, and 0 otherwise.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_trajectories import compare, load, tolerance

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}


def positive(kind):
    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return parse


def bench(tree: Path, workload: str, args, keep: Path) -> dict:
    """One untraced bench run in tree: its result object, its report copied to keep."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "bench.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode:
        sys.exit(f"bench run in {tree} failed (exit {proc.returncode}):\n{proc.stderr}")
    shutil.copy(tree / "perfbench" / "out" / f"{workload}-seed{args.seed}-trace0.json", keep)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    """(q1, median, q3), inclusive: the linear interpolation numpy uses by default."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign test: the chance of a split at least this uneven."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


# the rule for claiming a gain: at least CLAIM_PAIRS pairs, of which the
# change wins at least CLAIM_WINS of every CLAIM_PAIRS
CLAIM_PAIRS, CLAIM_WINS = 10, 9


def summary(runs) -> list[str]:
    """Per metric, each side's spread, the paired statistics and whether the
    claim rule holds; first each side's largest count of failed solves."""
    failed = {side: max(run[side]["failed"] for run in runs) for side in ("parent", "change")}
    lines = [f"largest failed: parent {failed['parent']}, change {failed['change']}"]
    for name in runs[0]["parent"]["metrics"]:
        lower = LOWER_IS_BETTER[name]
        value = {side: [run[side]["metrics"][name]["value"] for run in runs]
                 for side in ("parent", "change")}
        spread = {side: quartiles(values) for side, values in value.items()}
        for side, (q1, median, q3) in spread.items():
            lines.append(f"{name:<12} {side:<6}  median {median:.6g}  q1 {q1:.6g}  "
                         f"q3 {q3:.6g}  IQR {q3 - q1:.6g}")
        pairs = list(zip(value["parent"], value["change"]))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        losses = sum((c > p) if lower else (c < p) for p, c in pairs)
        # the gain is signed: positive where the change's median is better
        gain = (spread["parent"][1] - spread["change"][1]) * (1 if lower else -1)
        iqr = spread["parent"][2] - spread["parent"][0]
        met = (len(pairs) >= CLAIM_PAIRS and wins * CLAIM_PAIRS >= CLAIM_WINS * len(pairs)
               and gain > iqr and failed["change"] <= failed["parent"])
        # a first run read f times its value gives a pair ratio r = R / f when
        # the parent runs first and R f when the change does, so f squared is
        # the quotient of the two orders' median ratios
        by_first = [statistics.median(ratios) for ratios in (
            [c / p for (p, c), run in zip(pairs, runs) if run["first"] == first]
            for first in ("change", "parent")) if ratios]
        position = f"{math.sqrt(by_first[0] / by_first[1]):.4f}" if len(by_first) == 2 else "n/a"
        lines.append(f"{name:<12} change {'lower' if lower else 'higher'} in {wins} of "
                     f"{len(pairs)} pairs; median change/parent "
                     f"{statistics.median(c / p for p, c in pairs):.4f}; sign-test p "
                     f"{sign_test(wins, losses):.3g}; median gain {gain:+.6g} "
                     f"{'>' if gain > iqr else '<='} parent IQR {iqr:.6g}; first/second "
                     f"{position}; claim rule {'met' if met else 'not met'}")
    return lines


def rejections(workload: str, runs) -> list[str]:
    """One line, naming workload, per run whose check reads correct false, and
    one when the change's largest failed count exceeds the parent's."""
    lines = [f"{workload}: pair {i} {side} reads correct false"
             for i, run in enumerate(runs, 1) for side in ("parent", "change")
             if not run[side]["correct"]]
    failed = {side: max(run[side]["failed"] for run in runs) for side in ("parent", "change")}
    if failed["change"] > failed["parent"]:
        lines.append(f"{workload}: largest failed rises from {failed['parent']} "
                     f"to {failed['change']}")
    return lines


def compare_pairs(workload: str, trees: dict, args, tmp: Path) -> tuple[bool, list[str]]:
    """Run and print one workload's pairs and summary: whether every pair
    agrees, and the workload's rejections, which are printed last."""
    print(f"# {workload} seed={args.seed} seconds={args.seconds:g} pairs={args.pairs}: "
          f"parent {args.parent_ref}, change the working tree {ROOT}")
    runs, agree = [], True
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        run = {"first": order[0]}
        for position, side in enumerate(order, 1):
            run[side] = result = bench(trees[side], workload, args, tmp / f"pair{i}-{side}.json")
            metrics = "  ".join(f"{name} {m['value']:.6g}" for name, m in result["metrics"].items())
            print(f"pair {i} run {position}: {side:<6}  {metrics}  failed {result['failed']} "
                  f"of {result['attempted']}  correct {str(result['correct']).lower()}")
        (_, parent), (_, change) = (load(tmp / f"pair{i}-{side}.json")
                                    for side in ("parent", "change"))
        lines, ok = compare(parent, change, args.rel_tol)
        agree = agree and ok
        shown = lines if not ok else lines[-1:]
        print("\n".join(f"pair {i} trajectories: {line}" for line in shown))
        runs.append(run)
    count = {side: json.loads((tmp / f"pair1-{side}.json").read_text())
             ["environment"]["src_gladssn_lines"] for side in trees}
    print(f"src/gladssn lines: parent {count['parent']}, change {count['change']}, "
          f"{count['change'] - count['parent']:+d}")
    count = {side: sum(len(path.read_text().splitlines())
                       for path in (tree / "tests").glob("*.py")) for side, tree in trees.items()}
    print(f"tests lines: parent {count['parent']}, change {count['change']}, "
          f"{count['change'] - count['parent']:+d}")
    print("\n".join(summary(runs)))
    print(f"trajectories: {'every pair agrees' if agree else 'some pair differs'}")
    rejected = rejections(workload, runs)
    for line in rejected:
        print(line)
    return agree, rejected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_ref", metavar="PARENT_REF")
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--pairs", type=positive(int), required=True)
    ap.add_argument("--seconds", type=positive(float), default=25.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rel-tol", type=tolerance, default=None, metavar="T",
                    help="compare status and F_final within T instead of bit for bit")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.parent_ref],
                                 capture_output=True)
        if archive.returncode:
            ap.error(f"cannot archive {args.parent_ref}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        trees = {"parent": parent, "change": ROOT}
        differ, rejected = [], []
        for workload in workloads if args.workload == "all" else [args.workload]:
            reports = Path(tmp) / workload
            reports.mkdir()
            agree, lines = compare_pairs(workload, trees, args, reports)
            if not agree:
                differ.append(workload)
            rejected += lines

    if args.workload == "all":
        verdict = (f"some pair differs on {', '.join(differ)}" if differ
                   else f"every pair agrees on all {len(workloads)}")
        print(f"workloads: {verdict}")
    return 1 if differ or rejected else 0

if __name__ == "__main__":
    sys.exit(main())
