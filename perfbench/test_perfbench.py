#!/usr/bin/env python3
"""Self-tests of the TagMatch benchmark, at a small scale.

    python3 perfbench/test_perfbench.py        # from the repository root

Checks that every metric named in BENCHMARK.json is printed with its unit
by every workload, that a result corrupted on the benchmark side is caught,
and that untraced runs record no spans while traced runs do.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Small databases keep each run to a few seconds.
USERS = {"engine_stream": 2000, "cpu_only_stream": 2000, "shard_churn": 2000, "wire_pubsub": 500}


def run(workload, trace, *extra):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--users", str(USERS[workload])]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, declared):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                _, result = run(w["name"], trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in declared}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for v in result["metrics"].values():
                    self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_metrics(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, BENCH["per_layer"])


class CorruptionCaught(unittest.TestCase):
    def test_corrupted_results_fail(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                _, result = run(w["name"], 0, "--corrupt-every", "7")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                _, traced = run(w["name"], 1, "--corrupt-every", "7")
                self.assertGreater(traced["metrics"]["bench.failed_frac"]["value"], 0)


class Spans(unittest.TestCase):
    def test_untraced_runs_record_no_spans(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                record, _ = run(w["name"], 0)
                self.assertEqual(record["bench_spans"], 0)
                self.assertEqual(record["traced_program_spans"], 0)
                _, traced = run(w["name"], 1)
                self.assertGreater(traced["metrics"]["trace.spans"]["value"], 0)


class Inputs(unittest.TestCase):
    def test_bad_arguments_print_no_result(self):
        cmd = BENCH["command"] + ["--workload", "no_such_workload", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
