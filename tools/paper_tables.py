#!/usr/bin/env python3
"""Print the paper's tables from merged sweep reports, and gate them.

Reads the reports `tools/sweep` writes for the grids in bench/grids/
(bench/baselines/paper_*.json have the same format):

  paper_locking    Figures 2 and 3, normalized to DirectoryCMP at 512
                   locks
  paper_barrier    Table 4, normalized to DirectoryCMP per column
  paper_macro      Figure 6, Figure 7 (a) inter- and (b) intra-CMP bytes
                   by class, and the policy table on synthetic-oltp
  paper_workloads  the per-miss table over oltp and prodcons

Every statistic is a ratio of seed means, as Experiment computes it.
Exit status is 1 when a cell has allCompleted false or violations > 0
(or a report misses cells); when dst-group's inter-CMP bytes per miss
on synthetic-oltp are not strictly between dst4's and dst1's, its
runtime exceeds 1.02x dst1's, or it narrowed no escalation; or when
dst1, dst4 or dst1-pred dominates dst-group on (runtime, inter-CMP
bytes per miss) on more than half the workloads. A gate runs when its
report is given. Unreadable input exits 2.

usage: python3 tools/paper_tables.py build/SWEEP_paper_*.json
"""

import json
import math
import sys

TICKS_PER_NS = 1000
FIG2_ROWS = ["arb0", "directory", "directory-zero", "dst0"]
FIG3_ROWS = ["directory", "directory-zero", "dst4", "dst1", "dst1-pred"]
FIG6_ROWS = ["directory", "directory-zero", "dst4", "dst1", "dst1-pred",
             "dst1-filt", "hier", "perfect"]
FIG7_ROWS = ["directory", "dst4", "dst1", "dst1-pred", "dst1-filt",
             "hier"]
PRESETS = ["synthetic-oltp", "synthetic-apache", "synthetic-jbb"]
NOT_POLICIES = {"directory", "directory-zero", "hier", "perfect"}
TRAFFIC_CLASSES = ["Response Data", "Writeback Data", "Writeback Control",
                   "Request", "Inv/Fwd/Acks/Tokens", "Unblock",
                   "Persistent"]
PAPER_ROWS = ["dst1", "dst4", "dst1-pred"]
PER_MISS_HEADER = (f"{'msgs/miss':>10} {'interB/miss':>12} "
                   f"{'intraB/miss':>12} {'runtime(ns)':>12}")


def mean(xs):
    """SeedSamples::mean(): a left-to-right sum over the count."""
    s = 0.0
    for x in xs:
        s += x
    return s / len(xs)


def ci95(xs):
    """SeedSamples::errorBar(): 1.96 standard errors, 0 below 2 seeds."""
    if len(xs) < 2:
        return 0.0
    m, ss = mean(xs), 0.0
    for x in xs:
        ss += (x - m) * (x - m)
    return 1.96 * math.sqrt(ss / (len(xs) - 1) / len(xs))


class Cell:
    """One (policy, workload) point: its one-seed results, seed order."""

    def __init__(self, results):
        self.results = results
        self.protocol = results[0]["protocol"]
        self.workload = results[0]["workload"]

    def samples(self, field):
        return [x for r in self.results for x in r[field]["perSeed"]]

    def stat(self, key, default=None):
        """Seed mean of stat `key`; `default` when a seed lacks it."""
        vals = [r["stats"].get(key) for r in self.results]
        return default if None in vals else mean([v["mean"] for v in vals])

    def runtime(self):
        return mean(self.samples("runtime"))

    def per_miss(self):
        """(msgs, inter B, intra B) per L1 miss, and runtime in ns."""
        misses = self.stat("l1.misses")
        return (self.stat("net.messages") / misses,
                mean(self.samples("interBytes")) / misses,
                mean(self.samples("intraBytes")) / misses,
                self.runtime() / TICKS_PER_NS)


class Report:
    def __init__(self, path):
        try:
            with open(path) as f:
                doc = json.load(f)
            self.name, self.axes = doc["sweep"], doc["axes"]
            self.raw = doc["cells"]
            self.missing = doc["cellsTotal"] - doc["cellsDone"]
        except (OSError, ValueError, KeyError) as e:
            die(f"cannot read {path}: {e}")
        grouped = {}
        for c in self.raw:
            grouped.setdefault((c["policy"], c["workload"]),
                               []).append(c["result"])
        self.cells = {k: Cell(v) for k, v in grouped.items()}

    def cell(self, policy, workload):
        return self.cells[(policy, workload)]


def die(msg):
    print(f"paper_tables: {msg}", file=sys.stderr)
    sys.exit(2)


def row(label, vals, errs=()):
    """A value row: %10.3f, or %7.3f±%.2f when it has an error bar."""
    out = f"{label:<22}"
    for v, e in zip(vals, list(errs) + [0.0] * len(vals)):
        out += f" {v:10.3f}" if e <= 0.0 else f" {v:7.3f}±{e:.2f}"
    print(out)


def header(cols):
    print(f"{'':<22}" + "".join(f" {c:>10}" for c in cols))


def normalized(cell, base):
    return cell.runtime() / base, ci95(cell.samples("runtime")) / base


def locking(rep):
    cols = rep.axes["workloads"]
    base = rep.cell("directory", "locks512").runtime()
    for title, rows in (("Figure 2: locking, persistent requests only",
                         FIG2_ROWS),
                        ("Figure 3: locking, transient + persistent "
                         "requests", FIG3_ROWS)):
        print(f"\n=== {title} ===\nbaseline DirectoryCMP @512 locks: "
              f"{base / TICKS_PER_NS:.0f} ns\nnormalized runtime vs "
              "#locks (high contention -> low contention)")
        header(cols)
        for p in rows:
            vals, errs = zip(*(normalized(rep.cell(p, w), base)
                               for w in cols))
            row(rep.cell(p, cols[0]).protocol, vals, errs)
    return []


def barrier(rep):
    cols = rep.axes["workloads"]
    print("\n=== Table 4: barrier runtime (normalized to DirectoryCMP) "
          "===")
    header(cols)
    for p in rep.axes["policies"]:
        vals, errs = zip(*(normalized(rep.cell(p, w),
                                      rep.cell("directory", w).runtime())
                           for w in cols))
        row(rep.cell(p, cols[0]).protocol, vals, errs)
    return []


def macro(rep):
    print("\n=== Figure 6: commercial workload runtime (normalized to "
          "DirectoryCMP; OLTP is synthetic-oltp) ===")
    for wl in PRESETS:
        base = rep.cell("directory", wl).runtime()
        print(f"\n--- {rep.cell('directory', wl).workload} "
              f"(baseline {base / TICKS_PER_NS:.0f} ns) ---")
        header(["norm.rt", "speedup%", "persist%"])
        for p in FIG6_ROWS:
            c = rep.cell(p, wl)
            rt, err = normalized(c, base)
            misses = c.stat("l1.misses")
            persistent = c.stat("token.persistentIssued")
            persist_pct = 0.0
            if misses is not None and persistent is not None and misses > 0:
                persist_pct = 100.0 * persistent / misses
            row(c.protocol, [rt, (base / c.runtime() - 1.0) * 100.0,
                             persist_pct], [err])

    print("\n=== Figure 7: traffic by message class (a: inter-CMP, "
          "b: intra-CMP) ===")
    for wl in PRESETS:
        print(f"\n===== workload {rep.cell('directory', wl).workload} "
              "=====")
        for title, level in (("(a) inter-CMP", "inter"),
                             ("(b) intra-CMP", "intra")):
            base = mean(rep.cell("directory", wl).samples(level + "Bytes"))
            print(f"\n--- {title} traffic (normalized to DirectoryCMP "
                  f"total) ---\n{'':<22}" +
                  "".join(f" {c:>9.9}" for c in TRAFFIC_CLASSES) +
                  f" {'TOTAL':>9}")
            for p in FIG7_ROWS:
                c = rep.cell(p, wl)
                line, total = f"{c.protocol:<22}", 0.0
                for cls in TRAFFIC_CLASSES:
                    b = c.stat(f"traffic.{level}.{cls}", 0.0)
                    total += b
                    line += f" {b / base:9.3f}"
                print(line + f" {total / base:9.3f}")
    return policy_table(rep)


def policy_table(rep):
    """Every flat-token policy on synthetic-oltp, and dst-group's
    bracket: group multicast is the middle fan-out, so its inter-CMP
    bytes per miss must land strictly between dst4's and dst1's at
    dst1's runtime (2% slack), and its group path must have fired."""
    wl = PRESETS[0]
    policies = sorted(set(rep.axes["policies"]) - NOT_POLICIES)
    print(f"\n--- policy sweep ({rep.cell('dst1', wl).workload}; per L1 "
          f"miss) ---\n{'policy':<22} {PER_MISS_HEADER} {'narrowed':>10}")
    m = {}
    for p in policies:
        c = rep.cell(p, wl)
        msgs, inter, intra, rt = c.per_miss()
        m[p] = inter, rt, c.stat("policy.narrowedEscalations", 0.0)
        print(f"{p:<22} {msgs:10.3f} {inter:12.1f} {intra:12.1f} "
              f"{rt:12.0f} {m[p][2]:10.0f}")
    (d1_inter, d1_rt, _), d4_inter = m["dst1"], m["dst4"][0]
    g_inter, g_rt, g_narrowed = m["dst-group"]
    lo, hi = min(d1_inter, d4_inter), max(d1_inter, d4_inter)
    ok = lo < g_inter < hi and g_rt <= d1_rt * 1.02 and g_narrowed > 0.0
    print(f"\ndst-group between brackets: {g_inter:.1f} in ({lo:.1f}, "
          f"{hi:.1f}) inter bytes/miss, {g_rt:.0f} vs dst1 {d1_rt:.0f} "
          f"ns runtime, {g_narrowed:.0f} grouped escalations -> "
          f"{'PASS' if ok else 'FAIL'}")
    return [] if ok else ["paper_macro: dst-group bracket failed"]


def workloads(rep):
    print("\n=== Workload sweep: protocol x policy x workload ===")
    labels = rep.axes["workloads"]
    dominated = 0
    for wl in labels:
        print(f"\n===== workload {wl} =====\n{'config':<22} "
              f"{PER_MISS_HEADER}")
        m = {}
        for p in rep.axes["policies"]:
            c = rep.cell(p, wl)
            msgs, inter, intra, rt = m[p] = c.per_miss()
            print(f"{c.protocol:<22} {msgs:10.3f} {inter:12.1f} "
                  f"{intra:12.1f} {rt:12.0f}")
        _, g_inter, _, g_rt = m["dst-group"]
        by = [p for p in PAPER_ROWS
              if m[p][3] <= g_rt and m[p][1] <= g_inter
              and (m[p][3] < g_rt or m[p][1] < g_inter)]
        dominated += bool(by)
        print(f"dst-group dominated by: {', '.join(by) or 'none'}")
    half = len(labels) // 2
    ok = dominated <= half
    print(f"\nkeep gate: dst-group dominated on {dominated} of "
          f"{len(labels)} workloads (at most {half}) -> "
          f"{'PASS' if ok else 'FAIL'}")
    return [] if ok else ["paper_workloads: keep rule failed"]


def incomplete(rep):
    fails = [f"{rep.name}: {rep.missing} cell(s) not done"] \
        if rep.missing else []
    for c in rep.raw:
        r = c["result"]
        if not r["allCompleted"] or r["violations"] != 0:
            fails.append(f"{rep.name}: {c['label']}: allCompleted "
                         f"{str(r['allCompleted']).lower()}, "
                         f"{r['violations']} violation(s)")
    return fails


TABLES = {"paper_locking": locking, "paper_barrier": barrier,
          "paper_macro": macro, "paper_workloads": workloads}


def main(paths):
    if not paths:
        die("no reports given (see --help)")
    if paths[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    failures = []
    for path in paths:
        rep = Report(path)
        if rep.name not in TABLES:
            die(f"{path}: unknown sweep '{rep.name}' "
                f"(known: {', '.join(TABLES)})")
        failures += incomplete(rep) or TABLES[rep.name](rep)
    if failures:
        print("\npaper tables FAILED:\n  " + "\n  ".join(failures),
              file=sys.stderr)
        return 1
    print("\npaper tables: every cell completed without violations; "
          "gates passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
