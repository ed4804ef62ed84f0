#!/usr/bin/env python3
"""Bench-regression gate: one rule for every committed baseline.

Simulated results gate exactly; host speed gates only as a
same-process ratio.

BENCH_<name>.json records (--benches, by default kernel_throughput)
are compared with bench/baselines/<name>.json cell by cell, paired by
label:

  - every field of a cell must be equal, nested "stats" included:
    for a fixed seed count the simulator reproduces its counts bit
    for bit on any host, so any drift is a real model change;
  - a "ratio" field is a same-process ratio against the in-tree
    reference-heap kernel (kernel_throughput). It fails when it falls
    below 0.85x the baseline's;
  - a "...PerSec" field is an absolute host rate. It is reported,
    never gated: it moves with the host, not with the code.

The records' "meta" blocks are not compared. A label present on only
one side fails: a change that adds, drops or moves a count re-records
the baseline and says why.

Merged sweep reports (--sweeps NAME: <current-dir>/SWEEP_NAME.json,
written by tools/sweep; the paper grids paper_locking, paper_barrier,
paper_macro and paper_workloads, and sweep_smoke) are compared with
bench/baselines/NAME.json:
cells pair up by their axis values, each pair's result must be equal
once its "label" is dropped, and every marginal table must be equal.
Hashes, labels and the grid fingerprint may differ, so a re-keying
change passes while an edited grid fails until its baseline is
re-recorded. --ignore-axis byX (repeatable) skips the marginal axis
byX and drops the matching cell axis, if any, from the pairing.

A machine-readable diff is written to --out, whether or not the gate
trips.

Usage:
  python3 bench/check_regression.py \\
      --baseline-dir bench/baselines --current-dir build \\
      --out build/bench_regression_diff.json \\
      [--benches kernel_throughput] \\
      [--sweeps paper_macro sweep_smoke] [--ignore-axis byShardMap]
"""

import argparse
import json
import os
import sys

RATIO_FLOOR = 0.85
CELL_AXES = ("policy", "workload", "shardMap", "override", "seed")


def differences(base, cur, path):
    """Yield one line per leaf where two JSON values differ."""
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            sub = f"{path}.{key}"
            if key not in cur:
                yield f"{sub}: missing from current"
            elif key not in base:
                yield f"{sub}: not in baseline"
            else:
                yield from differences(base[key], cur[key], sub)
    elif base != cur:
        yield f"{path}: {base!r} -> {cur!r}"


def is_rate(key):
    return key.endswith("PerSec")


def load(path, failures):
    if not os.path.exists(path):
        failures.append(f"missing file: {path}")
        return None
    with open(path) as f:
        return json.load(f)


def by_label(record):
    return {c["label"]: c for c in record.get("cells", [])}


def compare_bench(name, baseline_dir, current_dir):
    result = {"bench": name, "failures": [], "ratios": [], "rates": []}
    fails = result["failures"]
    base = load(os.path.join(baseline_dir, name + ".json"), fails)
    cur = load(os.path.join(current_dir, "BENCH_" + name + ".json"),
               fails)
    if base is None or cur is None:
        return result
    # Provenance travels with the diff artifact.
    result["meta"] = {"baseline": base.get("meta"),
                      "current": cur.get("meta")}
    base_cells, cur_cells = by_label(base), by_label(cur)
    for label in sorted(set(base_cells) | set(cur_cells)):
        where = f"{name}/{label}"
        b, c = base_cells.get(label), cur_cells.get(label)
        if c is None:
            fails.append(f"{where}: in baseline, missing from current")
            continue
        if b is None:
            fails.append(f"{where}: not in baseline")
            continue
        # Host-speed fields leave the exact comparison; a ratio on one
        # side only stays in it and fails there.
        host = {k for k in set(b) | set(c) if is_rate(k)}
        if "ratio" in b and "ratio" in c:
            host.add("ratio")
        fails.extend(differences(
            {k: v for k, v in b.items() if k not in host},
            {k: v for k, v in c.items() if k not in host}, where))
        for key in sorted(k for k in host if is_rate(k)
                          and k in b and k in c):
            result["rates"].append({"label": label, "field": key,
                                    "baseline": b[key],
                                    "current": c[key]})
        if "ratio" in host:
            floor = RATIO_FLOOR * b["ratio"]
            ok = c["ratio"] >= floor
            result["ratios"].append({"label": label,
                                     "baseline": b["ratio"],
                                     "current": c["ratio"],
                                     "floor": floor, "ok": ok})
            if not ok:
                fails.append(f"{where}.ratio: {c['ratio']:.3f} below "
                             f"{RATIO_FLOOR}x baseline {b['ratio']:.3f}"
                             f" ({floor:.3f})")
    result["cells"] = len(base_cells)
    return result


def axis_field(marginal_axis):
    """The cell field a marginal axis groups by: byShardMap -> shardMap."""
    name = marginal_axis[2:]
    return name[:1].lower() + name[1:]


def sweep_cells(report, axes, where, fails):
    cells = {}
    for cell in report.get("cells", []):
        key = tuple((a, cell.get(a)) for a in axes)
        if key in cells:
            fails.append(f"{where}: two cells at {dict(key)}")
        cells[key] = cell
    return cells


def compare_sweep(name, baseline_dir, current_dir, ignore_axes):
    where = "sweep:" + name
    result = {"bench": where, "failures": []}
    fails = result["failures"]
    base = load(os.path.join(baseline_dir, name + ".json"), fails)
    cur = load(os.path.join(current_dir, "SWEEP_" + name + ".json"),
               fails)
    if base is None or cur is None:
        return result

    ignored_fields = {axis_field(a) for a in ignore_axes}
    axes = [a for a in CELL_AXES if a not in ignored_fields]
    base_cells = sweep_cells(base, axes, where, fails)
    cur_cells = sweep_cells(cur, axes, where, fails)
    for key in sorted(set(base_cells) | set(cur_cells), key=repr):
        cell = f"{where}/{dict(key)}"
        b, c = base_cells.get(key), cur_cells.get(key)
        if c is None:
            fails.append(f"{cell}: in baseline, missing from current")
        elif b is None:
            fails.append(f"{cell}: not in baseline")
        else:
            fails.extend(differences(
                {k: v for k, v in b["result"].items() if k != "label"},
                {k: v for k, v in c["result"].items() if k != "label"},
                cell))

    def kept(marginals):
        return {metric: {axis: table for axis, table in by_axis.items()
                         if axis not in ignore_axes}
                for metric, by_axis in marginals.items()}

    fails.extend(differences(kept(base.get("marginals", {})),
                             kept(cur.get("marginals", {})),
                             where + "/marginals"))
    result["cells"] = len(base_cells)
    return result


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default="build")
    ap.add_argument("--out", default=None,
                    help="write the diff JSON here")
    ap.add_argument("--benches", nargs="*",
                    default=["kernel_throughput"],
                    help="bench records to gate; pass with no names "
                         "to gate only --sweeps")
    ap.add_argument("--sweeps", nargs="*", default=[],
                    metavar="SWEEP",
                    help="merged sweep reports to gate: for each NAME "
                         "compare <current-dir>/SWEEP_NAME.json with "
                         "<baseline-dir>/NAME.json")
    ap.add_argument("--ignore-axis", action="append", default=[],
                    metavar="AXIS",
                    help="sweep marginal axis to skip, e.g. "
                         "byShardMap (repeatable)")
    args = ap.parse_args()

    results = [compare_bench(n, args.baseline_dir, args.current_dir)
               for n in args.benches]
    results += [compare_sweep(n, args.baseline_dir, args.current_dir,
                              args.ignore_axis)
                for n in args.sweeps]
    failures = [f for r in results for f in r["failures"]]

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"ratioFloor": RATIO_FLOOR, "benches": results,
                       "ok": not failures}, f, indent=2)
        print(f"wrote {args.out}")

    for r in results:
        print(f"  {r['bench']}: {r.get('cells', 0)} baseline cell(s), "
              f"{len(r['failures'])} failure(s)")
        for e in r.get("ratios", []):
            print(f"    RATIO {e['label']}: {e['current']:.3f} "
                  f"(baseline {e['baseline']:.3f}, floor "
                  f"{e['floor']:.3f})")
        for e in r.get("rates", []):
            print(f"    INFO  {e['label']}.{e['field']}: "
                  f"{e['current']:.3e} (baseline {e['baseline']:.3e})")

    if failures:
        print("\nBench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nBench regression gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
