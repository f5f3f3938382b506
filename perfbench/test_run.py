#!/usr/bin/env python3
"""Tests of the benchmark's own checks: bad output is a failed operation,
not a slow run. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import hashlib
import json
import os
import tempfile
import unittest

import run as bench

FRONT = b'{"objectives":[[1.5,2.5,0.25],[2,1,0.5]]}'
TRACE = b'{"points":[{"generation":0,"evaluations":24,"phv":0.5},{"generation":1,"evaluations":48,"phv":0.75}]}'


def digest(data):
    return hashlib.sha256(data).hexdigest()


class CheckOutputsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.run_dir = self.dir.name
        for name, data in (("front.json", FRONT), ("trace.json", TRACE)):
            with open(os.path.join(self.run_dir, name), "wb") as f:
                f.write(data)
        self.recorded = {"front": digest(FRONT), "trace": digest(TRACE), "phv": 0.75, "target": 0.5}

    def tearDown(self):
        self.dir.cleanup()

    def failures_of(self, recorded):
        fails = bench.Failures()
        fails.attempt(bench.check_outputs(self.run_dir, recorded, "run 0"))
        return bench.result(fails, {})

    def test_matching_outputs_pass(self):
        self.assertEqual(self.failures_of(self.recorded),
                         {"correct": True, "attempted": 1, "failed": 0, "metrics": {}})

    def test_doctored_front_digest_is_a_failed_operation(self):
        doctored = dict(self.recorded, front=digest(FRONT + b" "))
        out = self.failures_of(doctored)
        self.assertEqual((out["correct"], out["attempted"], out["failed"]), (False, 1, 1))

    def test_doctored_front_file_is_a_failed_operation(self):
        with open(os.path.join(self.run_dir, "front.json"), "wb") as f:
            f.write(FRONT.replace(b"1.5", b"1.25"))
        out = self.failures_of(self.recorded)
        self.assertEqual((out["correct"], out["failed"]), (False, 1))

    def test_doctored_phv_is_a_failed_operation(self):
        out = self.failures_of(dict(self.recorded, phv=0.7500000001))
        self.assertEqual((out["correct"], out["failed"]), (False, 1))

    def test_doctored_trace_digest_is_a_failed_operation(self):
        out = self.failures_of(dict(self.recorded, trace=digest(b"")))
        self.assertEqual((out["correct"], out["failed"]), (False, 1))

    def test_unrecorded_seed_is_a_failed_operation(self):
        out = self.failures_of(None)
        self.assertEqual((out["correct"], out["failed"]), (False, 1))

    def test_several_problems_in_one_run_count_once(self):
        out = self.failures_of(dict(self.recorded, front="0", trace="0", phv=0.0))
        self.assertEqual((out["attempted"], out["failed"]), (1, 1))


class CounterDriftTest(unittest.TestCase):
    REP = {
        "full_eval": {"count": 5000}, "neighbor_eval": {"count": 0}, "delta_hits": 0,
        "delta_fallbacks": 0, "step": {"count": 207}, "checkpoint": {"count": 207},
    }

    def test_identical_counters_pass(self):
        self.assertEqual(bench.counter_drift(self.REP, json.loads(json.dumps(self.REP)), "r"), [])

    def test_any_drift_is_reported(self):
        drifted = json.loads(json.dumps(self.REP))
        drifted["step"]["count"] = 208
        drifted["delta_hits"] = 1
        problems = bench.counter_drift(self.REP, drifted, "traced run 1")
        self.assertEqual(len(problems), 2)
        fails = bench.Failures()
        fails.attempt(problems)
        self.assertFalse(bench.result(fails, {})["correct"])


class PercentileTest(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(bench.tail_percentile(50), 50.0)
        self.assertEqual(bench.tail_percentile(100), 90.0)
        self.assertEqual(bench.tail_percentile(240), 95.0)
        self.assertEqual(bench.tail_percentile(1000), 99.0)

    def test_workload_seeds_are_a_function_of_the_seed(self):
        self.assertEqual(bench.workload_seeds("ea-offspring", 3), bench.workload_seeds("ea-offspring", 3))
        self.assertEqual(bench.workload_seeds("ea-offspring", 3), [4, 1, 2, 3])
        self.assertEqual(sorted(bench.workload_seeds("serve-jobs", 7)), list(range(1, 37)))


if __name__ == "__main__":
    unittest.main()
