#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size on two seeds.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks, per workload: no failed query (failed_frac == 0) and a correct
result; every end-to-end metric (--trace 0) and every per-layer metric
(--trace 1) of BENCHMARK.json printed with its unit; the traced run's
simulated digest equal to the untraced run's; distinct seeds giving
distinct inputs (distinct digests).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = [11, 12]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().split("\n")
    digest = next((l.split()[1] for l in lines if l.startswith("digest:")),
                  None)
    return out.returncode, json.loads(lines[-1]), digest, out.stderr


class PerfbenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, result, metrics):
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)  # failed_frac == 0
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_workloads(self):
        for w in [w["name"] for w in self.spec["workloads"]]:
            digests = []
            for seed in SEEDS:
                with self.subTest(workload=w, seed=seed):
                    rc, res, plain, err = run(w, seed, 0)
                    digests.append(plain)
                    self.assertEqual(rc, 0, err)
                    self.check(res, self.spec["end_to_end"])
                    rc, res, traced, err = run(w, seed, 1)
                    self.assertEqual(rc, 0, err)
                    self.check(res, self.spec["per_layer"])
                    self.assertEqual(plain, traced)
            self.assertEqual(len(set(digests)), len(SEEDS), w)


if __name__ == "__main__":
    unittest.main()
