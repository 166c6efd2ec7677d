#!/usr/bin/env python3
"""Tests for tools/bench_diff.py's exit status.

A delta in a column the artifact marks as wall clock is a note, not a
failure; a delta in any other column (a counter, a simulated time) fails
the diff.

Usage:
    python3 tools/test_bench_diff.py

Stdlib only; no third-party dependencies.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def fleet_artifact():
    """A BENCH_fleet.json-shaped artifact (multi-table)."""
    return {
        "schema_version": 2,
        "seed": 7,
        "config_fingerprint": "34929ff39024f425",
        "meta": {"deployments": 16},
        "tables": [
            {
                "title": "Throughput",
                "columns": ["queries", "admit_s", "admits_per_s"],
                "wall_clock": ["admit_s", "admits_per_s"],
                "rows": [[512, 0.0005, 1.0e6]],
            },
            {
                "title": "Rejections",
                "columns": ["tenant_query_quota", "total"],
                "rows": [[8, 14]],
            },
        ],
    }


def latency_artifact():
    """A BENCH_latency.json-shaped artifact: simulated seconds, unmarked."""
    return {
        "schema_version": 2,
        "seed": 0,
        "config_fingerprint": "00000000000000aa",
        "meta": {"k": 10},
        "tables": [
            {
                "title": "latency by plan",
                "columns": ["nodes", "naivek_s"],
                "rows": [[40, 0.25]],
            },
        ],
    }


def scaling_artifact():
    """A BENCH_parallel_scaling.json-shaped artifact (single table)."""
    return {
        "schema_version": 2,
        "seed": 0,
        "config_fingerprint": "00000000000000bb",
        "meta": {"nodes": 400},
        "columns": ["threads", "best_ms", "speedup"],
        "wall_clock": ["best_ms", "speedup"],
        "rows": [[1, 100.0, 1.0], [4, 30.0, 3.3]],
    }


class BenchDiffExitStatusTest(unittest.TestCase):
    def diff(self, name, old, new):
        """Writes both artifacts and returns (exit status, stdout)."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for side, doc in (("old", old), ("new", new)):
                os.mkdir(os.path.join(tmp, side))
                path = os.path.join(tmp, side, name)
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
                paths.append(os.path.join(tmp, side))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = bench_diff.main(paths)
        return status, out.getvalue()

    def test_timing_only_delta_exits_zero_with_a_note(self):
        old = fleet_artifact()
        new = copy.deepcopy(old)
        new["tables"][0]["rows"][0][1] *= 1.5   # admit_s
        new["tables"][0]["rows"][0][2] /= 1.5   # admits_per_s
        status, out = self.diff("BENCH_fleet.json", old, new)
        self.assertEqual(status, 0, out)
        self.assertIn("admits_per_s", out)
        self.assertIn("note: wall clock", out)
        self.assertIn("OK", out)

    def test_counter_delta_exits_one(self):
        old = fleet_artifact()
        new = copy.deepcopy(old)
        new["tables"][1]["rows"][0][1] = 15     # Rejections total
        status, out = self.diff("BENCH_fleet.json", old, new)
        self.assertEqual(status, 1, out)
        self.assertIn("total", out)
        self.assertNotIn("note: wall clock", out)

    def test_unmarked_count_in_a_table_with_timing_exits_one(self):
        old = fleet_artifact()
        new = copy.deepcopy(old)
        new["tables"][0]["rows"][0][0] = 256    # queries, beside timings
        status, out = self.diff("BENCH_fleet.json", old, new)
        self.assertEqual(status, 1, out)

    def test_simulated_seconds_are_not_wall_clock(self):
        old = latency_artifact()
        new = copy.deepcopy(old)
        new["tables"][0]["rows"][0][1] = 0.5    # naivek_s doubled
        status, out = self.diff("BENCH_latency.json", old, new)
        self.assertEqual(status, 1, out)

    def test_single_table_marks_are_honoured(self):
        old = scaling_artifact()
        new = copy.deepcopy(old)
        new["rows"][1][1] = 60.0                # best_ms
        new["rows"][1][2] = 1.6                 # speedup
        status, out = self.diff("BENCH_parallel_scaling.json", old, new)
        self.assertEqual(status, 0, out)
        new["rows"][1][0] = 8                   # threads is configuration
        status, out = self.diff("BENCH_parallel_scaling.json", old, new)
        self.assertEqual(status, 1, out)

    def test_a_mark_on_either_side_counts(self):
        old = fleet_artifact()
        del old["tables"][0]["wall_clock"]      # an artifact from before marks
        new = copy.deepcopy(fleet_artifact())
        new["tables"][0]["rows"][0][2] *= 2.0
        status, out = self.diff("BENCH_fleet.json", old, new)
        self.assertEqual(status, 0, out)


if __name__ == "__main__":
    unittest.main()
