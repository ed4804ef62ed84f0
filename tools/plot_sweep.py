#!/usr/bin/env python3
"""Plot step over merged sweep reports: per-axis marginal bar charts.

Reads one or more merged reports produced by `tools/sweep` (the
SWEEP_<name>.json artifact; bench/baselines/sweep_*.json files share
the format) and renders one bar chart per (metric, axis) pair from the
report's precomputed `marginals` section — e.g. mean runtime by
policy, mean inter-CMP bytes/miss by workload. Passing several
reports groups their bars side by side under a shared legend, which
is the intended way to eyeball a baseline against a fresh run before
`bench/check_regression.py --sweeps` passes judgement.

matplotlib is optional. When it is importable (and --csv was not
given) each chart is written as <out-dir>/<sweep>_<metric>_<axis>.png;
otherwise the same marginal tables are emitted as CSV files of the
same stem, one row per axis value with a mean and cell-count column
per report — gnuplot/spreadsheet-ready, and exercised in CI where the
container has no matplotlib.

Usage:
  python3 tools/plot_sweep.py build/SWEEP_paper_macro.json
  python3 tools/plot_sweep.py bench/baselines/sweep_smoke.json \
      build/SWEEP_sweep_smoke.json --out-dir build/plots \
      --metrics runtimeNs,msgsPerMiss --axes byPolicy,byWorkload
"""

import argparse
import csv
import json
import os
import sys


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit("plot_sweep: cannot read %s: %s" % (path, e))
    if "marginals" not in report or "sweep" not in report:
        sys.exit("plot_sweep: %s is not a merged sweep report "
                 "(missing 'sweep'/'marginals')" % path)
    return report


def report_label(report, path, seen):
    """Legend label: the sweep name, disambiguated by filename."""
    label = report["sweep"]
    if label in seen:
        label = "%s (%s)" % (label, os.path.basename(path))
    seen.add(label)
    return label


def collect_tables(reports, metrics, axes):
    """-> {(metric, axis): {key: [(label, mean, cells) per report]}}.

    Axis keys keep the first report's order (the sweep driver emits
    them in grid order) and append anything only later reports have.
    """
    tables = {}
    for label, report in reports:
        for metric, by_axis in sorted(report["marginals"].items()):
            if metrics and metric not in metrics:
                continue
            for axis, rows in sorted(by_axis.items()):
                if axes and axis not in axes:
                    continue
                table = tables.setdefault((metric, axis), {})
                for key, cell in rows.items():
                    table.setdefault(key, []).append(
                        (label, cell["mean"], cell["cells"]))
    return tables


def stem(out_dir, sweep, metric, axis):
    safe = "".join(c if c.isalnum() or c in "-_." else "_"
                   for c in "%s_%s_%s" % (sweep, metric, axis))
    return os.path.join(out_dir, safe)


def write_csv(path, table, labels):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        header = ["key"]
        for label in labels:
            header += ["%s:mean" % label, "%s:cells" % label]
        w.writerow(header)
        for key, entries in table.items():
            by_label = {lab: (mean, cells)
                        for lab, mean, cells in entries}
            row = [key]
            for label in labels:
                mean, cells = by_label.get(label, ("", ""))
                row += [mean, cells]
            w.writerow(row)


def write_png(plt, path, table, labels, metric, axis, title):
    keys = list(table.keys())
    width = 0.8 / max(1, len(labels))
    fig, ax = plt.subplots(
        figsize=(max(6.0, 1.1 * len(keys) + 2.0), 4.0))
    # One bar group per axis key, one bar per report.
    for i, label in enumerate(labels):
        means = []
        for key in keys:
            by_label = {lab: mean for lab, mean, _ in table[key]}
            means.append(by_label.get(label, 0.0))
        xs = [k + (i - (len(labels) - 1) / 2.0) * width
              for k in range(len(keys))]
        ax.bar(xs, means, width=width, label=label)
    ax.set_xticks(range(len(keys)))
    ax.set_xticklabels(keys, rotation=30, ha="right", fontsize=8)
    ax.set_ylabel(metric)
    ax.set_title(title)
    if len(labels) > 1:
        ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("reports", nargs="+", metavar="REPORT.json",
                    help="merged sweep report(s); several reports are "
                         "grouped side by side")
    ap.add_argument("--out-dir", default="sweep_plots",
                    help="output directory (created; default "
                         "sweep_plots)")
    ap.add_argument("--metrics", default="",
                    help="comma list of metrics to keep (default all "
                         "in the report, e.g. runtimeNs,msgsPerMiss,"
                         "interBytesPerMiss)")
    ap.add_argument("--axes", default="",
                    help="comma list of marginal axes to keep "
                         "(default all, e.g. byPolicy,byWorkload,"
                         "byPolicyWorkload)")
    ap.add_argument("--csv", action="store_true",
                    help="emit CSV tables even if matplotlib is "
                         "available")
    args = ap.parse_args()

    metrics = set(filter(None, args.metrics.split(",")))
    axes = set(filter(None, args.axes.split(",")))

    plt = None
    if not args.csv:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt_mod
            plt = plt_mod
        except ImportError:
            print("plot_sweep: matplotlib not available, "
                  "falling back to CSV tables")

    seen = set()
    reports = []
    for path in args.reports:
        report = load_report(path)
        reports.append((report_label(report, path, seen), report))
    labels = [label for label, _ in reports]

    tables = collect_tables(reports, metrics, axes)
    if not tables:
        sys.exit("plot_sweep: nothing to plot (metric/axis filters "
                 "matched no marginals)")

    os.makedirs(args.out_dir, exist_ok=True)
    sweep = reports[0][1]["sweep"]
    written = []
    for (metric, axis), table in sorted(tables.items()):
        base = stem(args.out_dir, sweep, metric, axis)
        if plt is not None:
            path = base + ".png"
            write_png(plt, path, table, labels, metric, axis,
                      "%s %s %s" % (sweep, metric, axis))
        else:
            path = base + ".csv"
            write_csv(path, table, labels)
        written.append(path)

    for path in written:
        print("wrote %s" % path)


if __name__ == "__main__":
    main()
