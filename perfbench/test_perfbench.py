#!/usr/bin/env python3
"""The benchmark's own tests.

Runs every workload at its tiny size through perfbench/run.py and checks
that each end-to-end metric (untraced) and each per-layer metric (traced)
named in BENCHMARK.json is emitted with its unit, that an untraced run
prints its figures before host-speed rescaling, that BENCHMARK.json gives
every metric a direction, that each correctness check fails when its
expected value is perturbed (--break-check), and that run.py refuses to
run without the library sources.

    python3 perfbench/test_perfbench.py        # from the repository root

The first test builds turbo_perfbench (a few minutes on a clean tree).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

CHECKS = {
    "serve": ["serve.open_loop_replay", "serve.closed_loop_replay"],
    "ingest": ["ingest.recovered_identical"],
    "train": ["train.test_auc", "train.loss_falls"],
    "cluster": ["cluster.remote_equals_local",
                "cluster.edges_match_single_server"],
}
TRACED_CHECKS = {"serve": ["serve.decomposed_equals_batch"]}


def run(workload, trace=0, break_check="", cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "2",
           "--trace", str(trace), "--tiny", "1"]
    if break_check:
        cmd += ["--break-check", break_check]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def last_json(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


class MetricsEmitted(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertIn(m["better"], ("lower", "higher"))

    def check_wall_line(self, stdout, result):
        """The figures before host-speed rescaling are printed, with the
        kernel samples they were rescaled by."""
        wall = [line for line in stdout.split("\n")
                if line.startswith("# wall (not rescaled) ")]
        self.assertEqual(len(wall), 1)
        fields = dict(kv.split("=") for kv in wall[0].split() if "=" in kv)
        self.assertGreaterEqual(float(fields["host_samples"]), 8)
        self.assertGreater(float(fields["host_kernel_ms"]), 0)
        for name in ("p50_ms", "tail_ms", "throughput_per_s"):
            ratio = result["metrics"][name]["value"] / float(fields[name])
            self.assertTrue(0.1 < ratio < 10, (name, ratio))

    def test_every_workload_emits_every_metric(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                proc = run(w["name"])
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = last_json(proc)
                self.check_metrics(result, BENCH["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.check_wall_line(proc.stdout, result)
            with self.subTest(workload=w["name"], trace=1):
                proc = run(w["name"], trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.check_metrics(last_json(proc), BENCH["per_layer"])

    def test_end_to_end_bounds_are_within_contract(self):
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))


class ChecksCanFail(unittest.TestCase):
    def test_each_check_fails_on_a_wrong_expectation(self):
        cases = [(w, c, 0) for w, cs in CHECKS.items() for c in cs]
        cases += [(w, c, 1) for w, cs in TRACED_CHECKS.items() for c in cs]
        for workload, check, trace in cases:
            with self.subTest(check=check):
                proc = run(workload, trace=trace, break_check=check)
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("FAILED check: " + check, proc.stderr)
                self.assertFalse(last_json(proc)["correct"])


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("serve", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main(verbosity=2)
