#!/usr/bin/env python3
"""Tests for bench/check_regression.py, the bench-regression gate.

Each case writes a baseline and a current record into a temp dir and
runs the gate's CLI on them: simulated fields must gate exactly,
ratios against 0.85x the baseline, and absolute rates not at all.

usage: python3 tests/test_check_regression.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "bench", "check_regression.py")

BENCH = {
    "bench": "toy",
    "meta": {"gitSha": "aaaaaaa", "hwThreads": 4},
    "cells": [
        {"label": "reference", "eventsPerSec": 1.0e7},
        {"label": "system", "completed": True, "runtime": 47349300,
         "events": 137049, "messages": 232059, "wakeups": 120707,
         "eventsPerSec": 4.9e6, "messagesPerSec": 8.4e6},
        {"label": "dst1/OLTP", "seeds": 2, "allCompleted": True,
         "runtime": {"mean": 62883814.5, "ci95": 1.25,
                     "perSeed": [62883814, 62883815]},
         "stats": {"net.messages": {"mean": 274493, "ci95": 0},
                   "token.relays": {"mean": 118944.5, "ci95": 0.5}}},
        {"label": "wheel_vs_reference_heap", "ratio": 2.0},
    ],
}


def sweep_cell(policy, shard_map, seed, runtime):
    label = f"{policy}/oltp/{shard_map}/default/s{seed}"
    return {"hash": f"{policy}{seed}", "label": label, "policy": policy,
            "workload": "oltp", "shardMap": shard_map,
            "override": "default", "seed": seed,
            "result": {"label": label, "runtime": {"mean": runtime},
                       "stats": {"l1.misses": {"mean": 7119}}}}


SWEEP = {
    "sweep": "toy_sweep", "fingerprint": "e89694ac70e15517",
    "cellsTotal": 2, "cellsDone": 2,
    "cells": [sweep_cell("dst1", "serial", 1, 100),
              sweep_cell("directory", "serial", 1, 200)],
    "marginals": {"runtimeNs": {
        "byPolicy": {"directory": {"mean": 200, "cells": 1},
                     "dst1": {"mean": 100, "cells": 1}},
        "byShardMap": {"serial": {"mean": 150, "cells": 2}}}},
}


def leaves(value, path=()):
    """Yield the path of every scalar leaf in a JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, path + (i,))
    else:
        yield path


def bumped(record, path):
    """A copy of `record` with the leaf at `path` moved by one unit."""
    out = copy.deepcopy(record)
    node = out
    for k in path[:-1]:
        node = node[k]
    old = node[path[-1]]
    node[path[-1]] = (not old) if isinstance(old, bool) else old + 1
    return out


class GateTest(unittest.TestCase):
    def run_gate(self, base, cur, sweep=False, extra=()):
        """Exit status of the gate over one baseline/current pair."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baselines")
            os.mkdir(base_dir)
            name = "toy_sweep" if sweep else "toy"
            cur_name = ("SWEEP_" if sweep else "BENCH_") + name
            with open(os.path.join(base_dir, name + ".json"), "w") as f:
                json.dump(base, f)
            with open(os.path.join(tmp, cur_name + ".json"), "w") as f:
                json.dump(cur, f)
            which = (["--benches", "--sweeps", name] if sweep
                     else ["--benches", name])
            proc = subprocess.run(
                [sys.executable, GATE, "--baseline-dir", base_dir,
                 "--current-dir", tmp, *which, *extra],
                capture_output=True, text=True)
            return proc.returncode

    def assertPasses(self, base, cur, **kw):
        self.assertEqual(self.run_gate(base, cur, **kw), 0)

    def assertFails(self, base, cur, **kw):
        self.assertEqual(self.run_gate(base, cur, **kw), 1)

    # ---- bench records -------------------------------------------

    def test_identical_record_passes_whatever_its_meta(self):
        cur = copy.deepcopy(BENCH)
        cur["meta"] = {"gitSha": "bbbbbbb", "hwThreads": 1}
        self.assertPasses(BENCH, cur)

    def test_one_unit_change_in_any_simulated_field_fails(self):
        cells = BENCH["cells"]
        paths = [("cells", i) + p for i, cell in enumerate(cells)
                 for p in leaves(cell)
                 if p[0] != "label" and p[0] != "ratio"
                 and not p[0].endswith("PerSec")]
        self.assertIn(("cells", 2, "stats", "net.messages", "mean"),
                      paths)
        self.assertIn(("cells", 1, "completed"), paths)
        for path in paths:
            with self.subTest(field=path):
                self.assertFails(BENCH, bumped(BENCH, path))

    def test_changed_rates_alone_pass(self):
        cur = copy.deepcopy(BENCH)
        for cell in cur["cells"]:
            for key in cell:
                if key.endswith("PerSec"):
                    cell[key] /= 3.0
        self.assertPasses(BENCH, cur)

    def test_baseline_row_missing_from_current_fails(self):
        cur = copy.deepcopy(BENCH)
        del cur["cells"][2]
        self.assertFails(BENCH, cur)

    def test_row_not_in_baseline_fails(self):
        cur = copy.deepcopy(BENCH)
        cur["cells"].append({"label": "new", "events": 1})
        self.assertFails(BENCH, cur)

    def test_field_not_in_baseline_fails(self):
        cur = copy.deepcopy(BENCH)
        cur["cells"][1]["parked"] = 0
        self.assertFails(BENCH, cur)

    def test_ratio_gates_at_085_of_its_baseline(self):
        for ratio, ok in ((2.5, True), (1.71, True), (1.69, False),
                          (1.0, False)):
            cur = copy.deepcopy(BENCH)
            cur["cells"][3]["ratio"] = ratio
            with self.subTest(ratio=ratio):
                self.assertEqual(self.run_gate(BENCH, cur), 0 if ok else 1)
        dropped = copy.deepcopy(BENCH)
        del dropped["cells"][3]["ratio"]
        self.assertFails(BENCH, dropped)

    def test_missing_current_record_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "toy.json"), "w") as f:
                json.dump(BENCH, f)
            proc = subprocess.run(
                [sys.executable, GATE, "--baseline-dir", tmp,
                 "--current-dir", tmp, "--benches", "toy"],
                capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)

    # ---- merged sweep reports ------------------------------------

    def test_identical_sweep_passes(self):
        cur = copy.deepcopy(SWEEP)
        cur["fingerprint"] = "0000000000000000"
        cur["cells"].reverse()
        self.assertPasses(SWEEP, cur, sweep=True)

    def test_sweep_cell_differing_only_in_label_passes(self):
        cur = copy.deepcopy(SWEEP)
        for cell in cur["cells"]:
            cell["label"] = cell["result"]["label"] = "renamed/" + \
                cell["label"]
            cell["hash"] = "ffff"
        self.assertPasses(SWEEP, cur, sweep=True)

    def test_sweep_cell_whose_result_differs_fails(self):
        for path in (("cells", 0, "result", "runtime", "mean"),
                     ("cells", 1, "result", "stats", "l1.misses",
                      "mean")):
            with self.subTest(field=path):
                self.assertFails(SWEEP, bumped(SWEEP, path), sweep=True)

    def test_sweep_cell_set_must_match(self):
        dropped = copy.deepcopy(SWEEP)
        del dropped["cells"][1]
        self.assertFails(SWEEP, dropped, sweep=True)
        grown = copy.deepcopy(SWEEP)
        grown["cells"].append(sweep_cell("dst1", "serial", 2, 100))
        self.assertFails(SWEEP, grown, sweep=True)

    def test_sweep_marginal_differs_fails(self):
        path = ("marginals", "runtimeNs", "byPolicy", "dst1", "mean")
        self.assertFails(SWEEP, bumped(SWEEP, path), sweep=True)

    def test_ignore_axis_skips_exactly_the_named_axis(self):
        shard = ("marginals", "runtimeNs", "byShardMap", "serial", "mean")
        policy = ("marginals", "runtimeNs", "byPolicy", "dst1", "mean")
        ignore = ("--ignore-axis", "byShardMap")
        self.assertFails(SWEEP, bumped(SWEEP, shard), sweep=True)
        self.assertPasses(SWEEP, bumped(SWEEP, shard), sweep=True,
                          extra=ignore)
        self.assertFails(SWEEP, bumped(SWEEP, policy), sweep=True,
                         extra=ignore)
        self.assertFails(SWEEP, bumped(SWEEP, policy), sweep=True,
                         extra=("--ignore-axis", "byWorkload"))

        # The matching cell axis leaves the pairing; results still gate.
        no_axis = copy.deepcopy(SWEEP)
        for cell in no_axis["cells"]:
            del cell["shardMap"]
        self.assertFails(SWEEP, no_axis, sweep=True)
        self.assertPasses(SWEEP, no_axis, sweep=True, extra=ignore)
        result = ("cells", 0, "result", "runtime", "mean")
        self.assertFails(SWEEP, bumped(no_axis, result), sweep=True,
                         extra=ignore)


if __name__ == "__main__":
    unittest.main()
