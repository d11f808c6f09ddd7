#!/usr/bin/env python3
"""Smoke tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_smoke.py

Each workload runs for one second in both modes and must report every
metric BENCHMARK.json names, with its unit, and pass its oracles. Each
oracle must then reject a planted wrong answer, and the benchmark must
fail without a result in a directory holding only its own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# serve_hot is not in BENCHMARK.json but stays runnable, so it is tested.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve_hot"]


def run_bench(workload, trace, plant=None, cwd=ROOT, seconds=1, seed=7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-2])["detail"]


class Workloads(unittest.TestCase):
    def test_every_metric_with_its_unit_and_all_oracles_pass(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = result_of(proc)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout[-2000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in listed}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)


class Oracles(unittest.TestCase):
    PLANTS = [
        ("serve-answer", "serve_fill", 0),  # a response's speedup off by 1e-4
        ("serve-cold", "serve_fill", 0),    # a warm answer 1e-2 from the cold solve
        ("serve-jobs", "serve_hot", 0),    # one byte of the --jobs=1 replay
        ("serve-stats", "serve_hot", 1),   # replay hit count vs daemon stats
        ("sweep-jobs", "sweep_grid", 0),   # a reordered cellCsv line
        ("sweep-table41", "sweep_grid", 0),  # a Table 4-1 cell off by 7%
    ]

    def test_each_oracle_rejects_a_planted_wrong_answer(self):
        for plant, workload, trace in self.PLANTS:
            with self.subTest(plant=plant):
                proc = run_bench(workload, trace, plant=plant)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                if plant == "serve-cold":
                    # The planted gap, not a natural one, is what was judged.
                    detail = detail_of(proc)
                    self.assertGreaterEqual(detail["oracle_warm_cold_max_gap"], 5e-3)
                    self.assertGreaterEqual(detail["oracle_warm_cold_breaches"], 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
