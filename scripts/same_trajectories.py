"""Check that two bench reports solved every seed along the same trajectory.

    python3 scripts/same_trajectories.py PARENT.json CHANGE.json

Each file is a perfbench/out/<workload>-seed<n>-trace0.json report.  Lists
every seed whose status, iters, trials, hess_evals, digest, g_final or
F_final differs between the two reports, or that only one of them solved,
and exits 1 if there is any; otherwise says how many solves agree and
exits 0.  Values are compared by repr, so floats must agree bit for bit.
"""

import argparse
import json
import sys

FIELDS = ("status", "iters", "trials", "hess_evals", "digest", "g_final", "F_final")


def solves(path):
    with open(path) as fh:
        return {solve["seed"]: solve for solve in json.load(fh)["solves"]}


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    parent, change = solves(args.parent), solves(args.change)
    lines = differences(parent, change)
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"{len(parent)} solves agree in {', '.join(FIELDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
