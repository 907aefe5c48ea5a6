#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size smoke of every workload in both
modes, the digest comparison, and compare.py's verdicts.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark into .bench_build/cmake/ if needed. The tiny-scale
result records (run.py files them apart from the real results) and the
comparison's scratch records go under .bench_build/tests/.
"""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")
COMPARE = os.path.join(PERFBENCH, "compare.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


run_py = load_module("perfbench_run", RUN)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench_run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    return proc


def rep(workload, seed):
    run_py.build()
    return run_py.run_rep(workload, seed, False, "tiny")


class Smoke(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        self.assertEqual(set(last["metrics"]), set(names))
        record = json.loads(lines[-2])
        for key in ("hardware_threads", "cpu_model", "git_commit", "command", "seed",
                    "summary", "digests"):
            self.assertIn(key, record)
        return last, record

    def test_every_workload_both_modes(self):
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                last, record = self.check_result(bench_run(w["name"], 3, 0), e2e)
                for name, m in last["metrics"].items():
                    self.assertEqual(m["unit"], e2e[name])
                    self.assertGreater(m["value"], 0, name)
                # At least one repeat: the determinism check ran.
                self.assertGreater(last["attempted"], len(record["digests"]))
                last, _ = self.check_result(bench_run(w["name"], 3, 1), layers)
                for name, m in last["metrics"].items():
                    self.assertEqual(m["unit"], layers[name])
                self.assertEqual(last["metrics"]["judge.sweeps"]["value"],
                                 {"judge_replay": 8, "swim_read": 3, "lifecycle": 100}[w["name"]])


class Digest(unittest.TestCase):
    def test_same_seed_matches_and_other_seed_fails(self):
        a1 = rep("lifecycle", 21)
        a2 = rep("lifecycle", 21)
        b = rep("lifecycle", 22)
        self.assertEqual(run_py.first_digests([a1, a2])[1], [])
        self.assertNotEqual(a1["digest"], b["digest"])
        b["seed"] = a1["seed"]  # a different world posing as the same seed
        first, mismatches = run_py.first_digests([a1, b])
        self.assertEqual(len(mismatches), 1)
        self.assertEqual(mismatches[0]["failures"][0]["check"], "digest")


class Compare(unittest.TestCase):
    def write(self, side, values, metric="reads_per_s", scale="full", finished=None):
        d = os.path.join(SCRATCH, side)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        for seed, v in enumerate(values):
            rec = {"benchmark": "erms-e2e", "workload": "swim_read", "trace": 0, "seed": seed,
                   "scale": scale, "metrics": {metric: {"value": v, "unit": "1/s"}}}
            if finished is not None:
                rec["finished_utc"] = finished(seed)
            with open(os.path.join(d, "r%d.json" % seed), "w") as f:
                json.dump(rec, f)
        return d

    def compare(self, parent_dir, change_dir):
        return subprocess.run([sys.executable, COMPARE, parent_dir, change_dir, "--json"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=60)

    def verdict(self, parent, change):
        proc = self.compare(self.write("parent", parent), self.write("change", change))
        return proc.returncode, json.loads(proc.stdout)[0]["verdict"]

    def test_verdicts(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(self.verdict(base, [v * 1.3 for v in base]), (0, "improved"))
        self.assertEqual(self.verdict(base, [v * 0.97 for v in base]),
                         (0, "no worse within bound"))
        self.assertEqual(self.verdict(base, [v * 0.5 for v in base]), (1, "regressed"))
        noisy = [50, 150, 60, 140, 100, 55, 145, 100, 70, 130]
        self.assertEqual(self.verdict(noisy, [v * 0.9 for v in noisy]), (0, "unresolved"))

    def test_scales_do_not_mix(self):
        base = [100, 101, 99, 100]
        proc = self.compare(self.write("parent", base), self.write("change", base, scale="tiny"))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("scale", proc.stderr)

    def test_warns_when_sides_do_not_interleave(self):
        base = [100, 101, 99, 100]
        stamp = "2026-01-01T00:%02d:00"
        apart = self.compare(
            self.write("parent", base, finished=lambda i: stamp % i),
            self.write("change", base, finished=lambda i: stamp % (10 + i)))
        self.assertIn("do not interleave", apart.stderr)
        alternated = self.compare(
            self.write("parent", base, finished=lambda i: stamp % (2 * i)),
            self.write("change", base, finished=lambda i: stamp % (2 * i + 1)))
        self.assertEqual(alternated.returncode, 0)
        self.assertNotIn("interleave", alternated.stderr)


if __name__ == "__main__":
    unittest.main()
