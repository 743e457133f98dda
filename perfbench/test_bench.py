#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py

Each workload runs once untraced and twice traced with one seed, for a few
seconds each (about two minutes in all, building included). The tests check
that every metric BENCHMARK.json names is printed with its unit, and that the
machine-independent counts repeat exactly for the same seed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest", "serve_wide", "tcp")
SEED = 7
SECONDS = "2"
# Counts taken over a fixed prefix of the stream: they must not depend on timing.
EXACT_COUNTS = (
    "runtime.executor.ops_per_upd",
    "relations.intern.distinct_per_upd",
    "runtime.snapshot.entries_copied_per_upd",
)

_runs = {}


def run(workload, trace, attempt=0):
    """The parsed result line of one run (cached per workload, trace, attempt)."""
    key = (workload, trace, attempt)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            raise AssertionError(f"{key} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
        _runs[key] = json.loads(done.stdout.splitlines()[-1])
    return _runs[key]


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class MetricsArePrinted(unittest.TestCase):
    def check(self, trace, kind):
        want = declared(kind)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class CountsRepeat(unittest.TestCase):
    def test_counts_repeat_for_the_same_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 1, 0)["metrics"]
                second = run(workload, 1, 1)["metrics"]
                for name in EXACT_COUNTS:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_server_commit_size_repeats_as_the_replay_uses_it(self):
        # Updates per server commit depend on thread timing (the ingest thread
        # commits whenever its queue is momentarily empty), so only the integer
        # commit size the in-process replay runs at must repeat.
        first = run("tcp", 1, 0)["metrics"]["server.upd_per_commit"]["value"]
        second = run("tcp", 1, 1)["metrics"]["server.upd_per_commit"]["value"]
        self.assertEqual(round(first), round(second))


if __name__ == "__main__":
    unittest.main()
