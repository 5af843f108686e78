#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 e2ebench/test_bench.py

Builds the harness the way run.py does, then checks that the input
generators are byte-deterministic, that the k-of-n generator matches
models::kofn_as_model, that BENCHMARK.json is well formed, that the
metric names every workload prints match it, and that a failed output
check (or a tree without the library sources) exits nonzero.
"""
import collections
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def last_json_line(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.directory = run.build_dir()
        cls.binary = run.build(cls.directory)
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def harness(self, *args, env=None):
        return subprocess.run(
            [str(self.binary), *args], cwd=run.ROOT,
            env=run.clean_env() if env is None else env,
            capture_output=True, timeout=run.RUN_TIMEOUT_S)

    def emit(self, workload, seed):
        proc = self.harness("--emit", workload, "--seed", str(seed))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_generators_are_byte_deterministic(self):
        for workload in ("unc_kofn", "batch_zipf"):
            first = self.emit(workload, 7)
            self.assertTrue(first)
            self.assertEqual(first, self.emit(workload, 7), workload)
        self.assertNotEqual(self.emit("batch_zipf", 7),
                            self.emit("batch_zipf", 8))
        # The k-of-n model's structure does not depend on the seed.
        self.assertEqual(self.emit("unc_kofn", 7), self.emit("unc_kofn", 8))

    def test_request_stream_shape(self):
        requests = [json.loads(line)
                    for line in self.emit("batch_zipf", 3).splitlines()]
        self.assertEqual(len(requests), 25000)
        keys = collections.Counter(
            (r["model"], tuple(sorted(r["set"].items()))) for r in requests)
        self.assertEqual({r["model"] for r in requests}, {
            "examples/models/hadb_pair.rasc",
            "examples/models/app_server_2inst.rasc",
            "examples/models/kofn_as_2of3.rasc"})
        for r in requests:
            self.assertEqual(r["outputs"], ["availability", "downtime", "mtbf"])
        # 80% of requests repeat a hot key, 20% are unique.
        repeated = sum(n for n in keys.values() if n > 1) / len(requests)
        self.assertAlmostEqual(repeated, 0.8, delta=0.01)

    def test_kofn_generator_matches_model(self):
        proc = self.harness("--check-kofn")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        rasc = self.emit("unc_kofn", 1).decode()
        self.assertEqual(rasc.count("\nstate "), 3 ** 7)

    def test_benchmark_json_contract(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["e2ebench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))

    def test_printed_metrics_match_benchmark_json(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                proc = subprocess.run(
                    [sys.executable, str(run.HERE / "run.py"),
                     "--workload", workload, "--seed", "5",
                     "--seconds", "1", "--trace", str(trace)],
                    cwd=run.ROOT, capture_output=True, text=True,
                    timeout=run.RUN_TIMEOUT_S)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = last_json_line(proc.stdout)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                expected = [(m["name"], m["unit"]) for m in self.spec[section]]
                printed = [(name, value["unit"])
                           for name, value in result["metrics"].items()]
                self.assertEqual(printed, expected, (workload, trace))

    def test_failed_check_exits_nonzero(self):
        # The library's fault-injection hook makes sample 5 of every
        # uncertainty call throw: a dropped sample must fail the run.
        env = dict(run.clean_env(), RASCAL_CHAOS="worker-throw@5")
        proc = self.harness("--workload", "unc_paper", "--seed", "1",
                            "--seconds", "1", "--trace", "0", "--work",
                            str(self.directory / "work" / "chaos"), env=env)
        self.assertEqual(proc.returncode, 1)
        result = last_json_line(proc.stdout.decode())
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_tree_without_library_exits_nonzero(self):
        bare = self.directory.parent / "e2ebench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload", "unc_paper",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in run.clean_env().items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
