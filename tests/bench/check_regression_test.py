#!/usr/bin/env python3
"""Mutation tests for bench/check_regression.py (stdlib only).

Each case copies the committed BENCH_logging_overhead.json, changes one thing,
and checks the gate's exit status: 0 pass, 1 regression, 2 refused.

Run one case:  check_regression_test.py CheckRegressionTest.<case>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GATE = os.path.join(ROOT, "bench", "check_regression.py")
BASELINE = os.path.join(ROOT, "BENCH_logging_overhead.json")


def metric(doc, x, name):
    for row in doc["rows"]:
        if row["x"] == x:
            return row["metrics"][name]
    raise KeyError(x)


class CheckRegressionTest(unittest.TestCase):
    def setUp(self):
        with open(BASELINE) as f:
            self.base = json.load(f)
        self.fresh = copy.deepcopy(self.base)
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, base=None):
        paths = []
        for name, doc in (("base", base or self.base), ("fresh", self.fresh)):
            paths.append(os.path.join(self.tmp.name, name + ".json"))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        return subprocess.run([sys.executable, GATE] + paths, capture_output=True,
                              text=True).returncode

    def test_baseline_against_itself_passes(self):
        self.assertEqual(self.gate(), 0)

    # The traced cost before the table store stopped walking whole tables.
    def test_traced_cpu_at_table_walk_cost_fails(self):
        metric(self.fresh, "on", "cpu_ms_per_s")["value"] = 8.0
        self.assertEqual(self.gate(), 1)

    # A Release baseline read 1.5-2.0x lower than a RelWithDebInfo run.
    def test_measured_build_spread_passes(self):
        for row in self.fresh["rows"]:
            for m in row["metrics"].values():
                if m["kind"] == "budget":
                    m["value"] *= 2.0
        self.assertEqual(self.gate(), 0)

    def test_exact_off_by_one_fails(self):
        metric(self.fresh, "forensics", "tx_msgs")["value"] += 1
        self.assertEqual(self.gate(), 1)

    def test_info_change_passes(self):
        metric(self.base, "on", "tx_msgs")["kind"] = "info"
        metric(self.fresh, "on", "tx_msgs")["value"] *= 10
        self.assertEqual(self.gate(), 0)

    def test_missing_row_fails(self):
        self.fresh["rows"].pop()
        self.assertEqual(self.gate(), 1)

    def test_build_type_mismatch_is_refused(self):
        self.fresh["build_type"] = "Debug"
        self.assertEqual(self.gate(), 2)

    def test_params_mismatch_is_refused(self):
        self.fresh["params"]["window_s"] = 30
        self.assertEqual(self.gate(), 2)

    def test_zero_budget_baseline_is_refused(self):
        metric(self.base, "off", "cpu_ms_per_s")["value"] = 0
        self.assertEqual(self.gate(), 2)


if __name__ == "__main__":
    unittest.main()
