#!/usr/bin/env python3
"""Tests of run.py's result check: the benchmark's JSON line read back.

    python3 perfbench/test_run.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Byte for byte what ResultJson prints for this result (see harness_test.cc).
LINE = ('{"correct": true, "attempted": 1021, "failed": 0, "metrics": '
        '{"setup_s": {"value": 0.8127, "unit": "s"}, '
        '"live_tuples": {"value": 57875, "unit": "rows"}}}')
DECLARED = {"setup_s": "s", "live_tuples": "rows"}


class CheckResultTest(unittest.TestCase):
    def test_round_trip(self):
        result, problems = run.check_result(LINE, DECLARED)
        self.assertEqual(problems, [])
        self.assertIs(result["correct"], True)
        self.assertEqual(result["attempted"], 1021)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.8127)
        self.assertEqual(result["metrics"]["live_tuples"]["value"], 57875)
        # Re-serialising what was read gives the same object back.
        self.assertEqual(json.loads(json.dumps(result)), json.loads(LINE))

    def test_metric_set_must_match_declaration(self):
        _, problems = run.check_result(LINE, {"setup_s": "s"})
        self.assertTrue(any("undeclared ['live_tuples']" in p for p in problems))
        _, problems = run.check_result(LINE, dict(DECLARED, peak_rss_mb="MB"))
        self.assertTrue(any("missing ['peak_rss_mb']" in p for p in problems))

    def test_units_must_match_declaration(self):
        _, problems = run.check_result(LINE, {"setup_s": "ms", "live_tuples": "rows"})
        self.assertTrue(any("setup_s: unit" in p for p in problems))

    def test_rejects_malformed_lines(self):
        self.assertEqual(run.check_result("not json", None)[1], ["last line is not JSON"])
        result, problems = run.check_result('{"correct": true}', None)
        self.assertIsNone(result)
        self.assertTrue(problems)
        bad = json.loads(LINE)
        bad["metrics"]["setup_s"]["value"] = "fast"
        bad["attempted"] = 0
        _, problems = run.check_result(json.dumps(bad), DECLARED)
        self.assertIn("setup_s: value is not a finite number", problems)
        self.assertIn("attempted is below 1", problems)

    def test_declared_metrics_match_benchmark_json(self):
        declared = run.declared_metrics(False)
        if declared is None:
            self.skipTest("BENCHMARK.json not present")
        self.assertIn("setup_s", declared)
        self.assertEqual(declared["setup_s"], "s")


if __name__ == "__main__":
    unittest.main()
