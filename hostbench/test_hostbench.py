#!/usr/bin/env python3
"""Smoke-sized self-test of the host-cost benchmark.

    python3 hostbench/test_hostbench.py

Runs every workload at a small fraction of its size through run.py, traced
and untraced, and checks that:

- each run is correct and reports exactly the metrics BENCHMARK.json lists;
- a corrupted reference label and a corrupted reference fingerprint are
  each counted as failures (correct false, exit status 1);
- a second seed changes the inputs while every repetition still agrees
  with the first, and pCLOUDS still grows the same tree.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train-seq-sync", "train-seq-pipelined"]
SMOKE = ["--seconds", "1", "--scale", "0.05"]


def run(workload, seed=1, trace=0, extra=()):
    """Runs one smoke-sized workload; returns (exit status, result, info)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd + SMOKE + list(extra), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 3:
            info[parts[0]] = float(parts[1])
    return proc.returncode, result, info


class SmokeTest(unittest.TestCase):
    def test_every_workload_is_correct(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    status, res, info = run(workload, trace=trace)
                    self.assertEqual(status, 0, res)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 1)
                    self.assertEqual(info["error_rate"], 0.0)
                    if trace:
                        m = res["metrics"]
                        self.assertGreaterEqual(
                            m["closure.span_cover_min"]["value"], 0.9)
                        self.assertGreaterEqual(
                            m["spmd16.closure.span_cover_min"]["value"], 0.9)
                        self.assertGreater(
                            m["spmd16.mp.collectives"]["value"],
                            m["mp.collectives"]["value"])
                        self.assertGreater(m["serve3.records_per_s"]["value"],
                                           0)

    def test_corrupted_label_counts_as_failure(self):
        # The trained model is checked against the test-set reference, and
        # traced runs also serve the serve3 probe's pool.
        for workload, trace in (("train-seq-sync", 0), ("train-seq-sync", 1),
                                ("train-seq-pipelined", 0)):
            with self.subTest(workload=workload, trace=trace):
                status, res, info = run(workload, trace=trace,
                                        extra=["--corrupt", "label"])
                self.assertEqual(status, 1)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertGreater(info["error_rate"], 0.0)

    def test_corrupted_fingerprint_counts_as_failure(self):
        for workload, trace in (("train-seq-sync", 1),
                                ("train-seq-pipelined", 0)):
            with self.subTest(workload=workload, trace=trace):
                status, res, _ = run(workload, trace=trace,
                                     extra=["--corrupt", "fingerprint"])
                self.assertEqual(status, 1)
                self.assertFalse(res["correct"])
                # Every training after the reference is one failure.
                self.assertGreaterEqual(res["failed"], 2)

    def test_second_seed_changes_inputs_not_consistency(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                s1, r1, i1 = run(workload, seed=1)
                s2, r2, i2 = run(workload, seed=2)
                self.assertEqual((s1, s2), (0, 0))
                self.assertTrue(r1["correct"] and r2["correct"])
                self.assertNotEqual(i1["input_digest"], i2["input_digest"])
                # pCLOUDS grows the same tree whatever the sample S.
                self.assertEqual(i1["tree_fingerprint"],
                                 i2["tree_fingerprint"])
                # The same seed repeats its inputs and its modeled clock.
                _, r3, i3 = run(workload, seed=2)
                self.assertEqual(i3["input_digest"], i2["input_digest"])
                self.assertEqual(r3["metrics"]["modeled_s"]["value"],
                                 r2["metrics"]["modeled_s"]["value"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
