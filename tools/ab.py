#!/usr/bin/env python3
"""Paired A/B timing of perfbench_cell: a ref against the working tree.

Builds perfbench_cell twice, from a git ref (A, default HEAD) and from
the working tree (B), then runs N *sequential* pairs per (workload,
seed). Each pair runs A and B back to back, alternating which goes
first, and only one cell process runs at a time. Each cell pins
itself to the last CPU it may use (two for oltp-token-sharded), as
perfbench/run.py's samples do; --cpu restricts that choice to one
given CPU.

    python3 tools/ab.py --workload oltp-token --seed 1 --seed 7
    python3 tools/ab.py --ref HEAD~1 --workload locking-hier --pairs 16
    python3 tools/ab.py --aa --workload oltp-token   # A/A calibration

The ref is exported with `git archive` into the build directory, so
the repository gains no worktree and nothing outside the build
directory is written; perfbench/ itself is only read. The working-tree
side builds `perfbench/` of this checkout (or of --tree DIR).

Report, per (workload, seed):
  - every pair's ratio B/A of --metric (a host field of the cell's
    JSON, default cell_wall_s; lower is better);
  - the median pair ratio and its interquartile range (IQR);
  - wins: pairs where B beat A;
  - whether the two builds' `sim` objects were identical in every
    pair (every simulated count, percentile and stat);
  - the verdict: a gain is RESOLVED when B won at least 9/10 of at
    least 10 pairs and B's median beats A's median by more than the
    IQR of A's own runs; a loss is read the same way with A and B
    swapped; anything else is UNRESOLVED.

A gain is never reported when the sim objects differ: the tool exits
with code 3 instead, unless --sim-may-differ says the change is meant
to move simulated results. The last stdout line is one JSON object.

Calibration (4-vCPU shared VM, Release g++ 12.2, oltp-token seed 1,
cell_wall_s, single cells reading 0.29-0.58 s while neighbours loaded
the host):
  - A/A (`--aa`, one build against itself), 12 pairs: median pair
    ratio 1.002, IQR 0.956-1.029, 6/12 wins, UNRESOLVED. Six pairs
    pinned to CPU 1 once read 0.947 with 6/6 wins, which is why a
    verdict needs at least 10 pairs.
  - A known ~20% slowdown (--tree of a copy whose SystemConfig
    defaults to SchedulerKind::ReferenceHeap), 12 pairs: median 1.209,
    IQR 1.092-1.308, 10/12 losses, sim identical; UNRESOLVED, because
    11 of 12 losses are needed. Use 16 or more pairs on a noisy host.
  - Concurrent A/A pairs (one cell on CPU 2, its twin on CPU 3) read a
    median of 0.648 (IQR 0.638-0.736): the CPUs do not run at one
    speed, so pairs run one process at a time on one CPU.
Re-run these by hand when this tool changes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("oltp-token", "jbb-directory", "locking-hier",
             "oltp-token-sharded")
CELL_TIMEOUT_S = 300
MIN_VERDICT_PAIRS = 10  # fewer pairs never resolve (an A/A read 6/6)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_cell(src_root, build_dir):
    """Configure and build perfbench_cell from `src_root`/perfbench."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(src_root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_cell")


def export_ref(ref, dest):
    """Export `ref`'s tree into `dest` (replacing an older export)."""
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          ref + "^{commit}"], capture_output=True,
                         text=True, check=True).stdout.strip()
    stamp = os.path.join(dest, ".ab_rev")
    if os.path.isfile(stamp) and open(stamp).read().strip() == rev:
        return rev
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("ab: git archive %s failed" % ref)
    with open(stamp, "w") as f:
        f.write(rev + "\n")
    return rev


def run_cell(exe, workload, seed, cpu):
    """One fresh cell process; returns its JSON result."""
    def pin():
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
    out = subprocess.run([exe, "--workload", workload, "--seed",
                          str(seed), "--trace", "0"],
                         capture_output=True, text=True,
                         timeout=CELL_TIMEOUT_S, preexec_fn=pin)
    if out.returncode != 0:
        sys.exit("ab: %s exited with %d\n%s"
                 % (exe, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]


def compare(exe_a, exe_b, workload, seed, pairs, metric, cpu):
    a_vals, b_vals, ratios = [], [], []
    sim_same = True
    for k in range(pairs):
        order = (("a", exe_a), ("b", exe_b))
        if k % 2 == 1:
            order = order[::-1]
        got = {side: run_cell(exe, workload, seed, cpu)
               for side, exe in order}
        a, b = got["a"]["host"][metric], got["b"]["host"][metric]
        sim_same = sim_same and got["a"]["sim"] == got["b"]["sim"]
        a_vals.append(a)
        b_vals.append(b)
        ratios.append(b / a)
        log("  pair %2d (%s first): A %.4f  B %.4f  B/A %.3f"
            % (k + 1, order[0][0].upper(), a, b, b / a))
    q1, med, q3 = quartiles(ratios)
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_med = statistics.median(b_vals)
    wins = sum(1 for r in ratios if r < 1.0)
    losses = sum(1 for r in ratios if r > 1.0)
    a_iqr = a_q3 - a_q1
    if pairs < MIN_VERDICT_PAIRS:
        verdict = "UNRESOLVED (under %d pairs)" % MIN_VERDICT_PAIRS
    elif wins >= 0.9 * pairs and a_med - b_med > a_iqr:
        verdict = "gain RESOLVED"
    elif losses >= 0.9 * pairs and b_med - a_med > a_iqr:
        verdict = "loss RESOLVED"
    else:
        verdict = "UNRESOLVED"
    return {
        "workload": workload, "seed": seed, "metric": metric,
        "pairs": pairs, "ratios": [round(r, 4) for r in ratios],
        "median_ratio": round(med, 4), "ratio_iqr": [round(q1, 4),
                                                     round(q3, 4)],
        "a_median": a_med, "b_median": b_med, "a_iqr": a_iqr,
        "wins": wins, "sim_identical": sim_same, "verdict": verdict,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ref", default="HEAD",
                    help="git ref built as side A (default HEAD)")
    ap.add_argument("--tree", default=ROOT,
                    help="source tree built as side B (default: this "
                         "checkout's working tree)")
    ap.add_argument("--aa", action="store_true",
                    help="A/A calibration: side B's build on both sides")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default oltp-token")
    ap.add_argument("--seed", action="append", type=int,
                    help="repeatable; default 1 (seed 7 is held out)")
    ap.add_argument("--pairs", type=int, default=12)
    ap.add_argument("--metric", default="cell_wall_s",
                    help="host field of the cell JSON (lower is better)")
    ap.add_argument("--cpu", type=int, default=None,
                    help="run every cell on this one CPU")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, ".ab_build"))
    ap.add_argument("--sim-may-differ", action="store_true",
                    help="report a gain even when sim objects differ")
    args = ap.parse_args()
    if args.pairs < 4:
        ap.error("--pairs must be at least 4 (10 for a verdict)")

    os.makedirs(args.build_dir, exist_ok=True)
    exe_b = build_cell(os.path.abspath(args.tree),
                       os.path.join(args.build_dir, "b"))
    if args.aa:
        exe_a, rev = exe_b, "A/A"
    else:
        src_a = os.path.join(args.build_dir, "ref-src")
        rev = export_ref(args.ref, src_a)
        exe_a = build_cell(src_a, os.path.join(args.build_dir, "a"))

    results = []
    for workload in args.workload or ["oltp-token"]:
        for seed in args.seed or [1]:
            log("%s seed %d: A = %s, B = %s" % (workload, seed, rev[:12],
                                                args.tree))
            results.append(compare(exe_a, exe_b, workload, seed,
                                   args.pairs, args.metric, args.cpu))

    print("%-18s %4s %6s %7s %15s %5s %5s  %s"
          % ("workload", "seed", "pairs", "median", "ratio IQR", "wins",
             "sim", "verdict"))
    refused = False
    for r in results:
        gain = r["verdict"] == "gain RESOLVED"
        if not r["sim_identical"] and gain and not args.sim_may_differ:
            r["verdict"] = "REFUSED: sim objects differ"
            refused = True
        print("%-18s %4d %6d %7.3f %7.3f-%-7.3f %2d/%-2d %5s  %s"
              % (r["workload"], r["seed"], r["pairs"], r["median_ratio"],
                 r["ratio_iqr"][0], r["ratio_iqr"][1], r["wins"],
                 r["pairs"], "same" if r["sim_identical"] else "DIFF",
                 r["verdict"]))
    print(json.dumps({"ref": rev, "tree": args.tree, "results": results}))
    return 3 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
