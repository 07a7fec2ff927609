#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They build the benchmark through perfbench/run.py (the first run compiles the
library) and use short runs of the full workloads: each run is one pass plus
set-up and the correctness gate.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("table2", "modes", "rt")
# The kernels the seed-0 speedups are compared on.
KERNELS = "GZIP_COMP,PARSER"


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECSYNC_")}
    env.update(extra)
    return env


def run_bench(workload, seed=0, trace=0, seconds=0.1, env=None, extra=()):
    """Runs run.py; returns (stdout lines, parsed result, report path)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    r = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                       env=env or clean_env(), timeout=900)
    if r.returncode != 0:
        raise AssertionError(f"{cmd} failed ({r.returncode}):\n{r.stderr[-3000:]}")
    lines = r.stdout.splitlines()
    report = next(l.split(" ", 1)[1] for l in lines if l.startswith("report "))
    return lines, json.loads(lines[-1]), report


def line_value(lines, prefix):
    return next(l for l in lines if l.startswith(prefix))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench", "build")


class DeclaredMetrics(unittest.TestCase):
    def test_every_printed_metric_is_declared(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            decl = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in decl[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines, res, _ = run_bench(workload, trace=trace)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(set(res["metrics"]), set(units))
                    for name, m in res["metrics"].items():
                        self.assertEqual(m["unit"], units[name], name)
                    printed = {l.split()[1] for l in lines
                               if l.startswith("metric ")}
                    self.assertEqual(printed, set(units))
                    if trace:
                        # prepare()'s own phase timers account for the
                        # span around it.
                        pct = res["metrics"]["harness.prepare.accounted_pct"]
                        self.assertAlmostEqual(pct["value"], 100, delta=5)


class Determinism(unittest.TestCase):
    def test_same_seed_same_outputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, _, _ = run_bench(workload, seed=7)
                b, _, _ = run_bench(workload, seed=7)
                self.assertEqual(line_value(a, "digest "),
                                 line_value(b, "digest "))

    def test_seed_changes_inputs(self):
        a, _, _ = run_bench("table2", seed=0)
        b, _, _ = run_bench("table2", seed=7)
        self.assertNotEqual(line_value(a, "digest "), line_value(b, "digest "))
        self.assertIn("seed=7", b[0])


class MatchesTable2Speedups(unittest.TestCase):
    def test_seed0_program_speedups(self):
        _, res, report = run_bench("table2", seed=0)
        self.assertTrue(res["correct"])
        with open(report) as f:
            cells = json.load(f)["first_pass"]
        ours = {c["kernel"]: c["program_speedups"] for c in cells}

        bdir = build_dir()
        subprocess.run(["cmake", "--build", bdir, "--target",
                        "perfbench_table2_speedups"], check=True,
                       stdout=subprocess.DEVNULL, timeout=900)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "t2.json")
            subprocess.run([os.path.join(bdir, "perfbench_table2_speedups"),
                            "--jobs=1", "--workloads=" + KERNELS,
                            "--json-out=" + out], check=True,
                           capture_output=True, env=clean_env(), timeout=300)
            with open(out) as f:
                ref = json.load(f)["benchmarks"]
        self.assertEqual({b["name"] for b in ref}, set(KERNELS.split(",")))
        for b in ref:
            by_mode = {m["mode"]: m["program_speedup"] for m in b["modes"]}
            self.assertEqual(ours[b["name"]], [by_mode["C"], by_mode["B"]],
                             b["name"])


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_expectation_fails_cells(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, res, _ = run_bench(workload,
                                          extra=("--corrupt-expected", "1"))
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                frac = float(line_value(lines, "cells ").split("fail_frac=")[1])
                self.assertGreater(frac, 0)


class PinnedConfiguration(unittest.TestCase):
    AMBIENT = {"SPECSYNC_ENGINE": "reference", "SPECSYNC_JOBS": "8",
               "SPECSYNC_STATS": "1", "SPECSYNC_CACHE_DIR": "/nonexistent"}

    def test_runner_ignores_ambient_settings(self):
        lines, res, _ = run_bench("rt", env=clean_env(**self.AMBIENT))
        self.assertTrue(res["correct"])
        config = line_value(lines, "config ")
        self.assertIn("engine=native", config)
        self.assertIn("rt_workers=3", config)

    def test_program_rejects_ambient_settings(self):
        program = os.path.join(build_dir(), "perfbench")
        run_bench("rt")  # Makes sure the program is built.
        r = subprocess.run([program, "--workload", "rt", "--seed", "0",
                            "--seconds", "0.1", "--trace", "0"],
                           capture_output=True, text=True, timeout=60,
                           env=clean_env(SPECSYNC_ENGINE="reference"))
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")
        self.assertIn("SPECSYNC_ENGINE", r.stderr)


class StandsAlone(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = clean_env()
            env.pop("CARGO_TARGET_DIR", None)
            r = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", "table2", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
                               cwd=tmp, capture_output=True, text=True,
                               env=env, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn("{", r.stdout)


if __name__ == "__main__":
    unittest.main()
