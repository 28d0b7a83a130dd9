#!/usr/bin/env python3
"""The benchmark's own tests, on tiny instances of every workload.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first test builds visbench.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def bench(workload, trace=0, seed=2023, extra=(), cwd=ROOT,
          script=os.path.join(HERE, "run.py")):
    """Run the benchmark on a tiny instance; returns (process, result)."""
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--scale", "tiny", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p, result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.tmp = os.path.join(run.build_dir(), "test-tmp")
        os.makedirs(cls.tmp, exist_ok=True)

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p, result = bench(workload, trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], p.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    else:
                        self.assertIn("# where the time goes", p.stdout)
                    self.assertIn('"nproc"', p.stdout)

    def test_perturbed_fingerprint_is_a_failure(self):
        with open(os.path.join(HERE, "fingerprints.json")) as f:
            pins = json.load(f)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                bad = copy.deepcopy(pins)
                fp = bad["tiny"][workload]["fp"]
                fp["dep_edges"] = str(int(fp["dep_edges"]) + 1)
                path = os.path.join(self.tmp, f"bad-{workload}.json")
                with open(path, "w") as f:
                    json.dump(bad, f)
                p, result = bench(workload, extra=("--fingerprints", path))
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("fingerprint mismatch in dep_edges", p.stdout)

    def test_unpinned_seed_runs_the_verifier(self):
        for workload in ("circuit_raycast_dcr", "stream_ghost_retire"):
            with self.subTest(workload=workload):
                p, result = bench(workload, seed=7)
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertTrue(result["correct"], p.stdout)
                self.assertIn("# check: verifier:", p.stdout)
                self.assertIn("sound, precise", p.stdout)

    def test_stream_classifies_retiring_feeds(self):
        p, result = bench("stream_ghost_retire", trace=1)
        self.assertEqual(p.returncode, 0, p.stderr)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(m["serve.retire_calls"], 0)
        # Every retire call happens inside exactly one feed.
        self.assertEqual(m["serve.retiring_feeds"], m["serve.retire_calls"])
        self.assertGreater(m["serve.feed_retire_p50_us"], 0)
        self.assertGreater(m["serve.feed_plain_p50_us"], 0)
        self.assertGreater(m["serve.retire_share"], 0)
        self.assertLess(m["serve.retire_share"], 1)

    def test_batch_trace_covers_the_timed_wall(self):
        for workload in ("circuit_raycast_dcr", "stencil_warnock_central"):
            with self.subTest(workload=workload):
                p, result = bench(workload, trace=1)
                self.assertEqual(p.returncode, 0, p.stderr)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreaterEqual(m["trace.coverage_frac"], 0.95)
                self.assertGreater(m["realm.apply_instances_s"], 0)
                self.assertGreater(m["visibility.engine_s"], 0)

    def test_fails_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result.
        bare = os.path.join(self.tmp, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        p, result = bench("circuit_raycast_dcr", cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
        self.assertNotEqual(p.returncode, 0)
        self.assertIsNone(result)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
