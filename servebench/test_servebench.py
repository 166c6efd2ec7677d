#!/usr/bin/env python3
"""Determinism tests for the serving benchmark harness.

    python3 servebench/test_servebench.py

Run from the repository root; builds the harness the way run.py does. Each
workload runs a short deterministic window (--seconds 0, one set-up), and
the tests assert that:

  * 1 and 4 scheduler threads give the same answer digest, recall, energy
    per answer, MetricsRegistry counters and radio totals;
  * two runs of one seed give identical counters and radio totals;
  * another seed gives another answer stream;
  * a traced run reports every per_layer metric BENCHMARK.json declares
    (the harness itself fails if tracing changes answers or counters),
    and its lp.solve_hot time splits exactly into the four LP buckets.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build/run helpers)

WINDOWS = {"lp_replan": 8, "fleet_churn": 100, "audit_fenced": 24}
BINARY = None


def harness(workload, seed=1, threads=4, trace=0):
    return run.run_harness(BINARY, [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--threads", str(threads),
        "--window", str(WINDOWS[workload]), "--setups", "1"])


def deterministic(report):
    e2e = report["end_to_end"]
    return {
        "answer_digest": report["answer_digest"],
        "window_answers": report["window_answers"],
        "recall_mean": e2e["recall_mean"]["value"],
        "energy_mj_per_answer": e2e["energy_mj_per_answer"]["value"],
        "counters": report["counters"],
        "radio": report["radio"],
    }


class ServeBenchTest(unittest.TestCase):
    def test_scheduler_width_is_invisible(self):
        for workload in WINDOWS:
            with self.subTest(workload=workload):
                serial = deterministic(harness(workload, threads=1))
                parallel = deterministic(harness(workload, threads=4))
                self.assertGreater(serial["window_answers"], 0)
                self.assertEqual(serial, parallel)

    def test_same_seed_same_counters(self):
        for workload in WINDOWS:
            with self.subTest(workload=workload):
                first = harness(workload)
                second = harness(workload)
                self.assertEqual(first["counters"], second["counters"])
                self.assertEqual(first["radio"], second["radio"])
                self.assertEqual(first["answer_digest"],
                                 second["answer_digest"])

    def test_seed_changes_the_inputs(self):
        a = harness("fleet_churn", seed=1)
        b = harness("fleet_churn", seed=2)
        self.assertNotEqual(a["answer_digest"], b["answer_digest"])

    def test_traced_run_reports_every_layer_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            declared = [m["name"] for m in json.load(f)["per_layer"]]
        for workload in WINDOWS:
            with self.subTest(workload=workload):
                report = harness(workload, trace=1)
                missing = [n for n in declared if n not in report["per_layer"]]
                self.assertEqual(missing, [])
                # The hot-start attribution places every lp.solve_hot
                # millisecond in exactly one bucket.
                layer = report["per_layer"]
                hot = report["spans"].get("lp.solve_hot", {}).get("total_ms", 0)
                parts = sum(layer[n]["value"] for n in (
                    "lp.hot_self_ms_total", "lp.dense_fallback_ms_total",
                    "lp.crosscheck_ms_total", "lp.dense_model_ms_total"))
                self.assertAlmostEqual(parts, hot, delta=1e-6 * max(1, hot))


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
