#!/usr/bin/env python3
"""Simulator benchmark: host speed and modelled results, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload oltp-token --seed 1 --seconds 20 --trace 0

The script builds perfbench_cell (perfbench/cell.cc plus every src/ file)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
starts one fresh perfbench_cell process per sample until --seconds have
passed. Each sample builds one System, runs the workload once and reports
raw host timings and simulated counts. This script gates correctness,
turns the samples into metrics (host times are medians over the samples)
and prints a table, then one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced samples and reports the per-layer metrics, including the
tracing overhead. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("oltp-token", "jbb-directory", "locking-hier", "oltp-token-sharded")
DEFAULT_SEED = 1
MIN_SAMPLES = 5            # per kind (untraced, traced), even past --seconds
SAMPLE_TIMEOUT_S = 120
RECONCILE_TOL = 0.01       # phases must sum to cell_wall_s within 1%

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

END_TO_END_UNITS = {
    "cell_wall_s": "s",
    "ops_per_host_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_runtime_us": "sim_us",
    "inter_bytes_per_miss": "B",
    "op_latency_p50_ns": "sim_ns",
    "op_latency_p999_ns": "sim_ns",
    "ops_completed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "system.warmup_s": "s",
    "system.measured_s": "s",
    "system.drain_audit_s": "s",
    "system.audit_s": "s",
    "system.protocol_ns_per_op": "ns",
    "sim.events": "count",
    "sim.events_per_op": "1/op",
    "sim.host_ns_per_event": "ns",
    "sim.kernel_ns_per_event": "ns",
    "sim.windows": "count",
    "sim.host_us_per_window": "us",
    "sim.cpu_per_wall": "ratio",
    "net.msgs_per_op": "1/op",
    "net.batched_frac": "ratio",
    "net.wakeups_per_msg": "ratio",
    "net.intra_bytes_per_miss": "B",
    "net.memlink_bytes_per_miss": "B",
    "core.transients_per_miss": "1/miss",
    "core.persistent_per_kmiss": "1/kmiss",
    "core.relays_per_miss": "1/miss",
    "core.retries_per_kmiss": "1/kmiss",
    "directory.forwards_per_miss": "1/miss",
    "directory.deferrals_per_kmiss": "1/kmiss",
    "directory.mem_responses_per_miss": "1/miss",
    "hier.recalls_full_per_miss": "1/miss",
    "hier.local_serves_frac": "ratio",
    "hier.ext_fwd_per_miss": "1/miss",
    "cpu.ops": "count",
    "cpu.store_frac": "ratio",
    "cpu.atomic_frac": "ratio",
    "cpu.l1_hit_frac": "ratio",
    "cpu.l1_call_ns": "ns",
    "cpu.load_latency_p999_ns": "sim_ns",
    "cpu.atomic_latency_p999_ns": "sim_ns",
    "workload.continuation_ns": "ns",
    "workload.make_thread_us": "us",
    "trace.overhead_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench_cell; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "system", "system.hh")):
        log("perfbench: no simulator sources under %s/src" % ROOT)
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir, os.path.join(build_dir, "perfbench_cell")


def source_digest():
    """Digest of every file the cell binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def run_sample(exe, workload, seed, traced):
    """One fresh perfbench_cell process; None if it fails."""
    try:
        out = subprocess.run(
            [exe, "--workload", workload, "--seed", str(seed),
             "--trace", "1" if traced else "0"],
            capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: sample ran past %d s" % SAMPLE_TIMEOUT_S)
        return None
    if out.returncode != 0:
        log("perfbench: sample exited with %d\n%s"
            % (out.returncode, out.stderr[-4000:]))
        return None
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("perfbench: sample printed no result")
        return None


def ratio(num, den):
    return num / den if den else 0.0


def sim_metrics(sim):
    """Simulated metrics and counts: exact for a fixed (workload, seed)."""
    st = sim["stats"]
    ops = sim["ops_completed"]
    misses = st.get("l1.misses", 0.0)
    hits = st.get("l1.hits", 0.0)
    msgs = sim["net_messages"]

    def per_miss(key, scale=1.0):
        return scale * ratio(st.get(key, 0.0), misses)

    shim_reqs = st.get("hier.localServes", 0.0) + st.get("hier.fetches", 0.0)
    return {
        "sim_runtime_us": sim["runtime_ticks"] / 1e6,
        "inter_bytes_per_miss": per_miss("traffic.inter.total"),
        "op_latency_p50_ns": sim["latency_p50_ticks"] / 1e3,
        "op_latency_p999_ns": sim["latency_p999_ticks"] / 1e3,
        "sim.events": sim["measured_events"],
        "sim.events_per_op": ratio(sim["measured_events"], ops),
        "sim.windows": sim["post_start_windows"],
        "net.msgs_per_op": ratio(msgs, ops),
        "net.batched_frac": ratio(sim["net_batched"], msgs),
        "net.wakeups_per_msg": ratio(sim["net_wakeups"], msgs),
        "net.intra_bytes_per_miss": per_miss("traffic.intra.total"),
        "net.memlink_bytes_per_miss": per_miss("traffic.memlink.total"),
        "core.transients_per_miss": per_miss("token.transients"),
        "core.persistent_per_kmiss": per_miss("token.persistentIssued", 1000.0),
        "core.relays_per_miss": per_miss("token.relays"),
        "core.retries_per_kmiss": per_miss("token.retries", 1000.0),
        "directory.forwards_per_miss": per_miss("dir.forwards"),
        "directory.deferrals_per_kmiss": per_miss("dir.deferrals", 1000.0),
        "directory.mem_responses_per_miss": per_miss("dir.memResponses"),
        "hier.recalls_full_per_miss": per_miss("hier.recallsFull"),
        "hier.local_serves_frac": ratio(st.get("hier.localServes", 0.0), shim_reqs),
        "hier.ext_fwd_per_miss": ratio(
            st.get("hier.extFwdGetS", 0.0) + st.get("hier.extFwdGetX", 0.0), misses),
        "cpu.ops": ops,
        "cpu.store_frac": ratio(sim["stores"], ops),
        "cpu.atomic_frac": ratio(sim["atomics"], ops),
        "cpu.l1_hit_frac": ratio(hits, hits + misses),
        "cpu.load_latency_p999_ns": sim["load_latency_p999_ticks"] / 1e3,
        "cpu.atomic_latency_p999_ns": sim["atomic_latency_p999_ticks"] / 1e3,
    }


def host_metrics(sample):
    """Host-time metrics of one sample (wall-clock, varies run to run)."""
    h, sim = sample["host"], sample["sim"]
    ops = sim["ops_completed"]
    protocol_s = h["measured_s"] - h["l1_self_s"] - h["cont_self_s"]
    return {
        "cell_wall_s": h["cell_wall_s"],
        "ops_per_host_s": ratio(ops, h["measured_s"]),
        "setup_s": h["setup_s"],
        "peak_rss_mb": h["peak_rss_kb"] / 1024.0,
        "system.warmup_s": h["warmup_s"],
        "system.measured_s": h["measured_s"],
        "system.drain_audit_s": h["drain_audit_s"],
        "system.audit_s": h["audit_s"],
        "system.protocol_ns_per_op": 1e9 * ratio(protocol_s, ops),
        "sim.host_ns_per_event": 1e9 * ratio(h["measured_s"], sim["measured_events"]),
        "sim.kernel_ns_per_event": h["kernel_ns_per_event"],
        # A serial run counts as one window.
        "sim.host_us_per_window": 1e6 * h["post_start_s"] / max(1, sim["post_start_windows"]),
        "sim.cpu_per_wall": ratio(h["post_start_cpu_s"], h["post_start_s"]),
        "cpu.l1_call_ns": 1e9 * ratio(h["l1_self_s"], ops),
        "workload.continuation_ns": 1e9 * ratio(h["cont_self_s"], ops),
        "workload.make_thread_us": 1e6 * ratio(h["make_thread_s"], sim["make_thread_calls"]),
    }


def check_sample(sample):
    """Correctness and reconciliation problems of one sample."""
    h, sim = sample["host"], sample["sim"]
    problems = []
    if not sim["completed"]:
        problems.append("run did not complete")
    if sim["violations"] != 0:
        problems.append("%d workload violations" % sim["violations"])
    if sim["ops_completed"] != sim["ops_issued"]:
        problems.append("%d ops issued but not completed"
                        % (sim["ops_issued"] - sim["ops_completed"]))
    phases = ("setup_s", "warmup_s", "measured_s", "drain_audit_s")
    if any(h[p] < 0 for p in phases):
        problems.append("negative phase time")
    total = sum(h[p] for p in phases)
    if abs(total - h["cell_wall_s"]) > RECONCILE_TOL * h["cell_wall_s"]:
        problems.append("phases sum to %.6f s, cell_wall_s is %.6f s"
                        % (total, h["cell_wall_s"]))
    if h["traced"]:
        self_s = h["l1_self_s"] + h["cont_self_s"]
        if h["l1_self_s"] < 0 or h["cont_self_s"] < 0 or self_s > h["measured_s"]:
            problems.append("negative layer self time in the measured phase")
    return problems


def check_determinism(samples, build_dir, workload, seed):
    """Simulated results must be byte-identical across every sample of
    this (workload, seed), and across invocations on the same sources."""
    prints = {json.dumps(s["sim"], sort_keys=True) for s in samples}
    if len(prints) != 1:
        return ["simulated results differ between samples of one seed"]
    fp = prints.pop()
    store = os.path.join(build_dir, "fingerprints", source_digest())
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%d.json" % (workload, seed))
    if os.path.isfile(path):
        with open(path) as fh:
            if fh.read() != fp:
                return ["simulated results differ from an earlier run of "
                        "the same sources and seed"]
        return []
    with open(path, "w") as fh:
        fh.write(fp)
    return []


def median_of(samples, key):
    return statistics.median(host_metrics(s)[key] for s in samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir, exe = build()

    # One sample is one fresh process: set-up is measured cold and the
    # peak RSS belongs to this workload alone.
    untraced, traced = [], []
    failed_samples = 0
    deadline = time.monotonic() + args.seconds
    while True:
        want_traced = args.trace == 1 and len(traced) < len(untraced)
        enough = (len(untraced) >= MIN_SAMPLES and
                  (args.trace == 0 or len(traced) >= MIN_SAMPLES))
        if enough and time.monotonic() >= deadline:
            break
        sample = run_sample(exe, args.workload, args.seed, want_traced)
        if sample is None:
            failed_samples += 1
            break
        (traced if want_traced else untraced).append(sample)

    samples = untraced + traced
    problems = ["%d sample process(es) failed" % failed_samples] if failed_samples else []
    for s in samples:
        problems += check_sample(s)
    if samples and not problems:
        problems += check_determinism(samples, build_dir, args.workload, args.seed)

    # Every measured op of every sample is attempted; a sample that did
    # not complete or failed a check counts all its ops as failed.
    attempted = sum(s["sim"]["ops_issued"] for s in samples) or 1
    failed = attempted if problems else 0
    sim = sim_metrics(samples[0]["sim"]) if samples else {}

    metrics, units = {}, {}
    if samples:
        e2e = {k: median_of(untraced, k)
               for k in ("cell_wall_s", "ops_per_host_s", "setup_s", "peak_rss_mb")}
        e2e.update({k: sim[k] for k in ("sim_runtime_us", "inter_bytes_per_miss",
                                         "op_latency_p50_ns", "op_latency_p999_ns")})
        e2e["ops_completed_frac"] = 1.0 - failed / attempted
        print("workload %s  seed %d  host cpus %d  pinned to %d  samples %d untraced, %d traced"
              % (args.workload, args.seed, os.cpu_count() or 0,
                 samples[0]["host"]["pinned_cpus"], len(untraced), len(traced)))
        print("end-to-end (host times: median of %d fresh-process samples; "
              "latency percentiles over %d ops):"
              % (len(untraced), samples[0]["sim"]["latency_samples"]))
        for k, unit in END_TO_END_UNITS.items():
            print("  %-26s %16.6f %s" % (k, e2e[k], unit))
        print("  %-26s %16.6f ratio" % ("ops_failed_frac", failed / attempted))
        if args.trace == 0:
            metrics, units = e2e, END_TO_END_UNITS
        else:
            layer = {k: v for k, v in sim.items() if "." in k}
            layer.update({k: median_of(traced, k)
                          for k in host_metrics(traced[0]) if "." in k})
            layer["trace.overhead_frac"] = (
                median_of(traced, "system.measured_s") /
                median_of(untraced, "system.measured_s") - 1.0)
            metrics, units = layer, PER_LAYER_UNITS
            print("per-layer (host times: median of %d traced samples):" % len(traced))
            for k in sorted(layer):
                print("  %-34s %16.6f %s" % (k, layer[k], units[k]))

    for p in problems:
        log("perfbench: FAILED: " + p)
    print(json.dumps({
        "correct": not problems and bool(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if problems or not samples else 0


if __name__ == "__main__":
    sys.exit(main())
