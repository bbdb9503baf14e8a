"""Unit tests for perfbench/run.py's aggregation logic.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_reports_sample_count_and_tail(self):
        values = list(range(1, 101))          # 1..100
        p90 = run.percentile(values, 0.9)
        self.assertEqual(p90["value"], 90)
        self.assertEqual(p90["samples"], 100)
        self.assertEqual(p90["beyond"], 10)
        p50 = run.percentile(values, 0.5)
        self.assertEqual((p50["value"], p50["samples"]), (50, 100))

    def test_small_and_empty_inputs(self):
        self.assertEqual(run.percentile([7.0], 0.9),
                         {"value": 7.0, "samples": 1, "beyond": 0})
        self.assertEqual(run.percentile([], 0.5)["samples"], 0)

    def test_order_does_not_matter(self):
        self.assertEqual(run.percentile([3, 1, 2, 5, 4], 0.5)["value"], 3)


class FailureAccountingTest(unittest.TestCase):
    def test_failed_counts_errors_and_mismatches(self):
        r = run.Run(None, "paper_cold", 1, 1, False, None)
        r.count({"attempted": 10, "failed": 2, "problems": ["a", "b"]})
        r.check(True, "unused")
        r.check(False, "digest differs")
        self.assertEqual((r.attempted, r.failed), (12, 3))
        self.assertEqual(r.problems, ["a", "b", "digest differs"])


if __name__ == "__main__":
    unittest.main()
