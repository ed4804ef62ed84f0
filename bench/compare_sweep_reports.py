#!/usr/bin/env python3
"""Check that two merged sweep reports carry the same simulation results.

A sweep baseline refresh that is only meant to rename or re-key cells
(new cell-key format, a retired axis) must not move any number. This
script compares an old and a new merged report (tools/sweep --out):

  - cells pair up in grid enumeration order, with equal policy,
    workload, shardMap, override and seed;
  - each pair's result is equal once its "label" is dropped;
  - every marginal is equal, except the axes named with --ignore-axis
    (for example one that exists in only one of the reports).

Hashes, labels and the fingerprint may differ. Exit status 0 when
everything else is equal, 1 otherwise.

usage: python3 bench/compare_sweep_reports.py OLD.json NEW.json \\
           [--ignore-axis bySpeculation]
"""

import argparse
import json
import sys

CELL_AXES = ("policy", "workload", "shardMap", "override", "seed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--ignore-axis", action="append", default=[],
                    help="marginal axis to skip (repeatable)")
    args = ap.parse_args()
    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    problems = []
    if len(old["cells"]) != len(new["cells"]):
        problems.append("cell count %d != %d"
                        % (len(old["cells"]), len(new["cells"])))
    for i, (a, b) in enumerate(zip(old["cells"], new["cells"])):
        for axis in CELL_AXES:
            if a[axis] != b[axis]:
                problems.append("cell %d: %s %r != %r"
                                % (i, axis, a[axis], b[axis]))
        ra = {k: v for k, v in a["result"].items() if k != "label"}
        rb = {k: v for k, v in b["result"].items() if k != "label"}
        if ra != rb:
            problems.append("cell %d (%s): result differs"
                            % (i, b["label"]))

    compared = 0
    for metric, axes in old["marginals"].items():
        for axis, table in axes.items():
            if axis in args.ignore_axis:
                continue
            compared += 1
            other = new["marginals"].get(metric, {}).get(axis)
            if other != table:
                problems.append("marginal %s/%s differs" % (metric, axis))
    for metric, axes in new["marginals"].items():
        for axis in axes:
            if axis not in args.ignore_axis and \
                    axis not in old["marginals"].get(metric, {}):
                problems.append("marginal %s/%s only in new report"
                                % (metric, axis))

    for p in problems:
        print("DIFF: " + p)
    print("%d cells, %d marginal tables compared, %d differences"
          % (len(new["cells"]), compared, len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
