#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the program through run.py (as a benchmark run does) and use
short step counts, so the whole file takes well under a minute once built.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The gated workloads plus the two that run by hand only.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + \
    ["gpu-pressure-dcgan", "cpu-resnet200"]


def bench(workload, trace=0, steps=None, warmup=None, cwd=ROOT):
    """One zero-second run (the minimum of three reps); the parsed JSON."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace)]
    if steps is not None:
        cmd += ["--steps", str(steps), "--warmup", str(warmup)]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" %
                             (out.returncode, out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def names_units(metrics):
    return {k: v["unit"] for k, v in metrics.items()}


class PerfbenchTest(unittest.TestCase):
    def test_every_workload_runs_at_a_tiny_step_count(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    res = bench(w, trace, steps=2, warmup=1)
                    self.assertTrue(res["correct"], res)
                    self.assertGreaterEqual(res["attempted"], 3)
                    self.assertEqual(res["failed"], 0)

    def test_metric_names_match_benchmark_json(self):
        res0 = bench("gpu-pressure-dcgan", 0, steps=2, warmup=1)
        res1 = bench("gpu-pressure-dcgan", 1, steps=2, warmup=1)
        self.assertEqual(names_units(res0["metrics"]),
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        self.assertEqual(names_units(res1["metrics"]),
                         {m["name"]: m["unit"] for m in SPEC["per_layer"]})

    def test_simulated_values_repeat_exactly(self):
        for trace in (0, 1):
            a = bench("ntier3-llm-medium", trace, steps=3, warmup=2)
            b = bench("ntier3-llm-medium", trace, steps=3, warmup=2)
            for name, m in a["metrics"].items():
                # Simulated quantities and counts, not host times.
                if m["unit"] in ("sim_ms", "count/step", "MB") and \
                        name != "peak_rss_mb":
                    with self.subTest(trace=trace, metric=name):
                        self.assertEqual(m["value"],
                                         b["metrics"][name]["value"])

    def test_cpu_resnet200_reads_the_cli_step_time(self):
        res = bench("cpu-resnet200")
        self.assertEqual(round(res["metrics"]["sim_step_ms"]["value"], 2),
                         415.71)

    def test_fails_without_the_simulator_sources(self):
        # A tree holding only BENCHMARK.json and perfbench/ cannot build.
        tmp = ROOT / ".bench_build" / "bare-tree"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(BENCH_DIR, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cpu-resnet200", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
