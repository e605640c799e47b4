"""Check that two bench reports solved every seed along the same trajectory.

    python3 scripts/same_trajectories.py PARENT.json CHANGE.json
    python3 scripts/same_trajectories.py --rel-tol REL PARENT.json CHANGE.json

Each file is a perfbench/out/<workload>-seed<n>-trace0.json report.  By
default, lists every seed whose status, iters, trials, hess_evals, digest,
g_final or F_final differs between the two reports, or that only one of
them solved, and exits 1 if there is any; otherwise says how many solves
agree and exits 0.  Values are compared by repr, so floats must agree bit
for bit.

With --rel-tol, for a change that moves the trajectories on purpose,
prints for each seed its status, the change's iteration and trial deltas
and the relative difference |F_change - F_parent| / |F_parent| of F_final,
then the totals, with the status changes counted by direction (the most
common first), ending with the largest of those differences and its seed.
It exits 1 only when a status changed, a seed was solved by one report
alone, or an F_final differs by more than REL.  REL must be a number at
least 0; anything else is a usage error (exit 2).  So are two reports of
different workloads.
"""

import argparse
import collections
import json
import math
import sys

FIELDS = ("status", "iters", "trials", "hess_evals", "digest", "g_final", "F_final")


def load(path):
    """(workload, {seed: solve}) of one report."""
    with open(path) as fh:
        report = json.load(fh)
    return report["workload"], {solve["seed"]: solve for solve in report["solves"]}


def differences(parent, change):
    """One line per seed whose solves differ between the two {seed: solve} maps."""
    lines = []
    for seed in sorted(parent.keys() | change.keys()):
        if seed not in change or seed not in parent:
            lines.append(f"seed {seed}: solved only in the {'parent' if seed in parent else 'change'}")
            continue
        moved = [f"{name} {parent[seed][name]!r} -> {change[seed][name]!r}"
                 for name in FIELDS if repr(parent[seed][name]) != repr(change[seed][name])]
        if moved:
            lines.append(f"seed {seed}: " + "; ".join(moved))
    return lines


def within_tolerance(parent, change, rel_tol):
    """(lines, ok): one line per seed and a totals line, and whether no status
    changed, no seed was solved by one report alone and every F_final is
    within rel_tol of the parent's."""
    lines, ok = [], True
    totals = {"iters": [0, 0], "trials": [0, 0]}
    flips = collections.Counter()  # "was -> now" of each status change
    largest = None  # (rel, seed) of the largest F_final relative difference
    for seed in sorted(parent.keys() | change.keys()):
        if seed not in change or seed not in parent:
            lines.append(f"seed {seed}: solved only in the {'parent' if seed in parent else 'change'}")
            ok = False
            continue
        was, now = parent[seed], change[seed]
        status = was["status"] if was["status"] == now["status"] else \
            f"{was['status']} -> {now['status']}"
        moved = abs(now["F_final"] - was["F_final"])
        rel = moved / abs(was["F_final"]) if was["F_final"] else 0.0 if moved == 0.0 else math.inf
        bad = [note for note, failed in (("status changed", was["status"] != now["status"]),
                                         (f"F_final beyond {rel_tol:g}", not rel <= rel_tol))
               if failed]
        ok = ok and not bad
        if was["status"] != now["status"]:
            flips[status] += 1
        if largest is None or rel > largest[0]:
            largest = rel, seed
        for name, pair in totals.items():
            pair[0] += was[name]
            pair[1] += now[name]
        lines.append(f"seed {seed}: {status}; iters {now['iters'] - was['iters']:+d}, "
                     f"trials {now['trials'] - was['trials']:+d}; F_final rel diff {rel:.2e}"
                     + "".join(f" ({note})" for note in bad))
    lines.append(f"{len(parent.keys() & change.keys())} solves in both: "
                 + ", ".join(f"{name} {was} -> {now}" for name, (was, now) in totals.items())
                 + f"; {'all' if ok else 'not all'} within F_final rel-tol {rel_tol:g} "
                   f"with the same status"
                 + ("; status changes: " + ", ".join(f"{flip} {count}"
                                                     for flip, count in flips.most_common())
                    if flips else "")
                 + (f"; largest F_final rel diff {largest[0]:.2e} at seed {largest[1]}"
                    if largest else ""))
    return lines, ok


def tolerance(text):
    """A --rel-tol value: a float at least 0, so neither negative nor NaN."""
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rel-tol", type=tolerance, default=None, metavar="REL",
                    help="compare status and F_final within REL instead of bit for bit")
    args = ap.parse_args(argv)
    (parent_workload, parent), (change_workload, change) = load(args.parent), load(args.change)
    if parent_workload != change_workload:
        ap.error(f"the reports are of different workloads: {parent_workload} ({args.parent}) "
                 f"and {change_workload} ({args.change})")
    if args.rel_tol is not None:
        lines, ok = within_tolerance(parent, change, args.rel_tol)
        print("\n".join(lines))
        return 0 if ok else 1
    lines = differences(parent, change)
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"{len(parent)} solves agree in {', '.join(FIELDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
