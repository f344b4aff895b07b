"""Tests of the benchmark's metric code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as B  # noqa: E402


def done(hpwl=100.0, legal=True):
    return {"status": "done", "result": {"hpwl": hpwl, "legal": legal}}


class Percentile(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(B.samples_beyond(100, 90), 10)
        self.assertEqual(B.samples_beyond(99, 90), 9)
        self.assertEqual(B.samples_beyond(20, 50), 10)
        self.assertEqual(B.samples_beyond(1, 50), 0)
        self.assertEqual(B.samples_beyond(0, 50), 0)

    def test_reported_only_with_ten_beyond(self):
        self.assertEqual(B.percentile(list(range(1, 101)), 90), 90)
        self.assertIsNone(B.percentile(list(range(1, 100)), 90))
        self.assertEqual(B.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(B.percentile(list(range(1, 20)), 50))
        self.assertIsNone(B.percentile(list(range(1, 1001)), 99.5))
        self.assertEqual(B.percentile(list(range(1, 1001)), 99), 990)

    def test_single_job_has_no_percentiles(self):
        for p in (50, 90, 99):
            self.assertIsNone(B.percentile([12345.0], p))
        self.assertIsNone(B.percentile([], 50))

    def test_order_independent(self):
        vals = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(B.percentile(vals, 50), sorted(vals)[50])


class Geomean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(B.geomean([2.0, 8.0]), 4.0, places=12)
        self.assertAlmostEqual(B.geomean([5.0]), 5.0, places=12)
        self.assertAlmostEqual(B.geomean([1e7, 1e-7]), 1.0, places=12)

    def test_rejects_bad_input(self):
        for bad in ([], [0.0], [-1.0], [float("nan")], [float("inf")]):
            with self.assertRaises(ValueError):
                B.geomean(bad)


class Failures(unittest.TestCase):
    def test_success(self):
        self.assertIsNone(B.job_failure(done()))

    def test_each_failure_counts(self):
        cases = [
            {"refused": {"code": "overloaded", "message": "queue full"}},
            {"status": "failed", "result": {"hpwl": 0.0, "legal": False}},
            {"status": "cancelled", "result": {"hpwl": 10.0, "legal": True}},
            done(legal=False),
            done(hpwl=float("nan")),
            done(hpwl=float("inf")),
            done(hpwl=None),
            {"status": "done"},
        ]
        for rec in cases:
            self.assertIsNotNone(B.job_failure(rec), rec)

    def test_tally_counts_against_attempts(self):
        recs = [done(), done(legal=False), {"refused": "shutting_down"}, done()]
        attempted, failed, reasons = B.tally(recs)
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(len(reasons), 2)
        self.assertTrue(any(r.startswith("refused") for r in reasons))


class Output(unittest.TestCase):
    def test_round_trip(self):
        line = B.result_line(
            True, 120, 0, {"makespan_s": (21.25, "s"), "setup_s": (1.5, "s")}
        )
        obj = B.parse_result("report line\n" + line + "\n")
        self.assertEqual(obj["attempted"], 120)
        self.assertEqual(obj["metrics"]["makespan_s"], {"value": 21.25, "unit": "s"})
        self.assertEqual(list(json.loads(line)), ["correct", "attempted", "failed", "metrics"])

    def test_full_precision(self):
        v = 0.1 + 0.2
        obj = B.parse_result(B.result_line(True, 1, 0, {"x": (v, "s")}))
        self.assertEqual(obj["metrics"]["x"]["value"], v)

    def test_rejects_malformed(self):
        bad = [
            "",
            '{"correct": true, "attempted": 1, "failed": 0}',
            '{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1}}}',
            '{"correct": true, "attempted": 1, "failed": 0, "extra": 1, "metrics": {}}',
        ]
        for text in bad:
            with self.assertRaises(ValueError, msg=text):
                B.parse_result(text)


class Trace(unittest.TestCase):
    def test_unaccounted(self):
        rep = {
            "wall_ms": 100.0,
            "spans_ms": {"netlist.load": 10.0, "kraftwerk.transform": 80.0, "timing.sta": 5.0},
        }
        # timing.sta is nested inside the transformation, not a top span.
        self.assertAlmostEqual(B.unaccounted_pct([rep]), 10.0)
        self.assertEqual(B.unaccounted_pct([]), 0.0)


if __name__ == "__main__":
    unittest.main()
