#!/usr/bin/env python3
"""Tests for tools/paper_tables.py over the committed paper baselines.

The four bench/baselines/paper_*.json reports must pass both gates;
copies edited to break one gate at a time must exit 1. No simulation
runs.

usage: python3 tests/test_paper_tables.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TOOL = os.path.join(ROOT, "tools", "paper_tables.py")
GRIDS = ("paper_locking", "paper_barrier", "paper_macro",
         "paper_workloads")


def baseline(name):
    with open(os.path.join(ROOT, "bench", "baselines",
                           name + ".json")) as f:
        return json.load(f)


BASELINES = {name: baseline(name) for name in GRIDS}


def cells_of(report, policy, workload):
    return [c for c in report["cells"]
            if c["policy"] == policy and c["workload"] == workload]


def scale(report, policy, workload, field, factor):
    for c in cells_of(report, policy, workload):
        samples = c["result"][field]
        samples["perSeed"] = [x * factor for x in samples["perSeed"]]
        samples["mean"] *= factor


class PaperTablesTest(unittest.TestCase):
    def run_tool(self, reports):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in reports.items():
                paths.append(os.path.join(tmp, name + ".json"))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            return subprocess.run([sys.executable, TOOL] + paths,
                                  capture_output=True, text=True)

    def edited(self, name, edit):
        reports = copy.deepcopy(BASELINES)
        edit(reports[name])
        return self.run_tool(reports)

    def test_committed_baselines_pass(self):
        p = self.run_tool(BASELINES)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertRegex(p.stdout, r"dst-group between brackets: .* "
                                   r"-> PASS")
        self.assertIn("keep gate: dst-group dominated on 1 of 2 "
                      "workloads (at most 1) -> PASS", p.stdout)
        self.assertIn("baseline DirectoryCMP @512 locks:", p.stdout)

    def test_dst_group_dominated_on_both_workloads_fails(self):
        def edit(r):
            for field in ("runtime", "interBytes"):
                scale(r, "dst-group", "oltp", field, 10)
        p = self.edited("paper_workloads", edit)
        self.assertEqual(p.returncode, 1, p.stdout)
        self.assertIn("dominated on 2 of 2 workloads (at most 1) -> FAIL",
                      p.stdout)

    def test_dst_group_outside_the_bracket_fails(self):
        def edit(r):
            scale(r, "dst-group", "synthetic-oltp", "interBytes", 2)
        p = self.edited("paper_macro", edit)
        self.assertEqual(p.returncode, 1, p.stdout)
        self.assertRegex(p.stdout, r"dst-group between brackets: .* "
                                   r"-> FAIL")

    def test_incomplete_cell_fails(self):
        def edit(r):
            r["cells"][5]["result"]["allCompleted"] = False
        p = self.edited("paper_locking", edit)
        self.assertEqual(p.returncode, 1, p.stdout)
        self.assertIn("allCompleted false", p.stderr)

    def test_cell_with_a_violation_fails(self):
        def edit(r):
            r["cells"][3]["result"]["violations"] = 1
        p = self.edited("paper_barrier", edit)
        self.assertEqual(p.returncode, 1, p.stdout)
        self.assertIn("1 violation(s)", p.stderr)


if __name__ == "__main__":
    unittest.main()
