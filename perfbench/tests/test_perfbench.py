"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. The digest and result-line tests build the
benchmark binary into .bench_build first (about half a minute on 4 cores)
and then run it for a few seconds.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load("run")
steady = load("steady")
compare = load("compare")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json keeps to the names, units and limits it must."""

    @classmethod
    def setUpClass(cls):
        path = os.path.join(ROOT, "BENCHMARK.json")
        cls.size = os.path.getsize(path)
        with open(path) as handle:
            cls.bench = json.load(handle)

    def test_keys_and_size(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end",
                                           "per_layer"})
        self.assertLessEqual(self.size, 64 * 1024)
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_paths_and_command(self):
        paths = self.bench["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for path in paths:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        command = self.bench["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for arg in command:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
            if os.path.exists(os.path.join(ROOT, arg)) and "/" in arg:
                self.assertTrue(any(arg.startswith(p + "/") for p in paths),
                                f"{arg} is outside the benchmark's paths")

    def test_names_units_and_limits(self):
        workloads = self.bench["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for workload in workloads:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        e2e = self.bench["end_to_end"]
        layers = self.bench["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        for metric in e2e:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in layers:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        names = [m["name"] for m in workloads + e2e + layers]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for metric in e2e + layers:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in e2e)}])

class FailureCountingTest(unittest.TestCase):
    REFERENCE = [{"id": 1, "ok": True, "digest": "aa"},
                 {"id": 2, "ok": True, "digest": "bb"}]

    def rep(self, tasks):
        return {"tasks": tasks}

    def test_matching_reps_do_not_fail(self):
        reps = [self.rep(self.REFERENCE), self.rep(self.REFERENCE)]
        self.assertEqual(run.count_failures(self.REFERENCE, reps), (4, 0))

    def test_digest_mismatch_fails_that_task_only(self):
        perturbed = [{"id": 1, "ok": True, "digest": "ab"},
                     {"id": 2, "ok": True, "digest": "bb"}]
        reps = [self.rep(self.REFERENCE), self.rep(perturbed)]
        self.assertEqual(run.count_failures(self.REFERENCE, reps), (4, 1))

    def test_incomplete_task_fails_even_with_matching_digest(self):
        incomplete = [{"id": 1, "ok": False, "digest": "aa"},
                      {"id": 2, "ok": True, "digest": "bb"}]
        self.assertEqual(
            run.count_failures(self.REFERENCE, [self.rep(incomplete)]), (2, 1))

    def test_task_missing_from_reference_fails(self):
        extra = [{"id": 3, "ok": True, "digest": "cc"}]
        self.assertEqual(
            run.count_failures(self.REFERENCE, [self.rep(extra)]), (1, 1))


class SteadinessTest(unittest.TestCase):
    METRICS = [{"name": "setup_s", "unit": "s", "better": "lower",
                "bound": 0.25},
               {"name": "run_s", "unit": "s", "better": "lower",
                "bound": 0.1},
               {"name": "updates_per_s", "unit": "1/s", "better": "higher",
                "bound": 0.1}]

    def values(self, scale):
        run_s = [scale * (1.0 + 0.004 * i) for i in range(10)]
        return {"w": {"setup_s": [0.5 + 0.2 * (i % 3) for i in range(10)],
                      "run_s": run_s,
                      "updates_per_s": [1000.0 / v for v in run_s]}}

    def check(self, sets):
        with open(os.devnull, "w") as sink:
            return steady.check(sets, self.METRICS, out=sink)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9]),
                               (7.5 - 2.5) / 5)

    def test_two_agreeing_sets_pass(self):
        self.assertTrue(self.check([self.values(1.0), self.values(1.05)]))

    def test_slower_second_set_fails(self):
        self.assertFalse(self.check([self.values(1.0), self.values(1.2)]))

    def test_lower_throughput_fails_even_when_higher_is_better(self):
        first, second = self.values(1.0), self.values(1.0)
        second["w"]["updates_per_s"] = [
            v * 0.8 for v in second["w"]["updates_per_s"]]
        self.assertFalse(self.check([first, second]))

    def test_wide_spread_fails_except_for_setup(self):
        wide = self.values(1.0)
        wide["w"]["run_s"] = [1.0, 1.5] * 5
        self.assertFalse(self.check([wide]))
        self.assertTrue(self.check([self.values(1.0)]))  # setup_s spreads 40%


class FingerprintTest(unittest.TestCase):
    def record(self, **changes):
        fingerprint = {"nproc": 4, "cpu_model": "x", "compiler": "GNU 12",
                       "flags": "-O3", "build_type": "Release",
                       "pool_width": 4, "commit": "a", "dirty": False,
                       "source_sha256": "s"}
        fingerprint.update(changes)
        return {"fingerprint": fingerprint}

    def test_same_machine_and_build_compare(self):
        self.assertEqual(compare.fingerprint_mismatch(
            self.record(), self.record(commit="b", source_sha256="t")), [])

    def test_core_count_or_compiler_differences_refuse(self):
        self.assertEqual(compare.fingerprint_mismatch(
            self.record(), self.record(nproc=8)), ["nproc"])
        self.assertEqual(compare.fingerprint_mismatch(
            self.record(), self.record(compiler="Clang 17")), ["compiler"])


class ResultLineTest(unittest.TestCase):
    """A real run prints exactly the declared metrics, with their units."""

    def run_benchmark(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "0", "--trace",
             str(trace)], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_metrics(self):
        self.check(self.run_benchmark("train_durable", 0),
                   run.load_benchmark()["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(self.run_benchmark("train_durable", 1),
                   run.load_benchmark()["per_layer"])


class DigestTest(unittest.TestCase):
    """The result digest catches a single flipped weight bit."""

    def test_selftest_catches_every_perturbation(self):
        binary = run.build(os.path.join(ROOT, run.build_dir()))
        proc = subprocess.run([binary, "selftest"], stdout=subprocess.PIPE,
                              text=True, timeout=120)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(proc.returncode, 0, result)
        self.assertGreater(result["perturbations"], 50)
        self.assertEqual(result["caught"], result["perturbations"])
        self.assertTrue(result["repeatable"])


if __name__ == "__main__":
    unittest.main()
