"""The benchmark's own tests (not part of the package's pytest suite).

    python3 perfbench/selftest.py

Takes about two minutes: it runs the traced prefix of every workload twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import reference
import run
import workloads
from capture_goldens import cli_commands

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


def traced_cli(*args):
    code, _, summary = run.cli_op(args, traced=True)
    assert code == 0, args
    return run.layer_tracer.layer_metrics(run.layer_tracer.merge([summary]))


class TestCounters(unittest.TestCase):
    def test_s6_scan_grid(self):
        m = traced_cli("toric", "scan", "--family", "s6", "--step", "1/4")
        self.assertEqual(m["toric.build.calls"], 1331)
        self.assertEqual(m["toric.region_rejected"], 1041)
        self.assertEqual(m["toric.scan.points"], 1331)
        self.assertEqual(m["toric.scan.skipped"], 1041)

    def test_bl2lines_scan_grid(self):
        m = traced_cli("toric", "scan", "--family", "bl2lines-p3", "--step", "1/4")
        self.assertEqual(m["toric.build.calls"], 225)
        self.assertEqual(m["toric.region_rejected"], 120)
        self.assertEqual(m["toric.scan.points"], 225)
        self.assertEqual(m["toric.scan.skipped"], 120)

    def test_traced_runs_repeat(self):
        goldens = run.load_goldens()
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (run.per_layer(workload, workloads.DEFAULT_SEED, goldens, [])
                                 for _ in range(2))
                self.assertEqual(first[2] + second[2], 0)
                self.assertEqual(run.work_counters(first[0], SPEC),
                                 run.work_counters(second[0], SPEC))
                self.assertEqual(set(first[0]), {m["name"] for m in SPEC["per_layer"]})
                if workload == "verify-all":
                    self.assertEqual(first[0]["toric.from_halfspaces.calls"], 1566)
                    self.assertEqual(first[0]["toric.cramer_solves"], 24601)
                    self.assertEqual(first[0]["toric.scan.points"], 1331 + 225)
                    self.assertEqual(first[0]["toric.scan.skipped"], 1041 + 120)


class TestGoldens(unittest.TestCase):
    def test_reference_reproduces_toric_goldens(self):
        stored = json.loads((run.GOLDENS / "toric_points.json").read_text("utf-8"))
        for seed, table in stored["seeds"].items():
            stream = (p for batch in workloads.passes("toric-points", int(seed)) for p in batch)
            keys = set()
            for family, params in stream:
                key = workloads.point_key(family, params)
                if key not in table:
                    break
                keys.add(key)
                self.assertEqual(reference.expected_outcome(family, params), table[key], key)
            self.assertEqual(keys, set(table))

    def test_every_cli_command_has_a_golden(self):
        cli, _ = run.load_goldens()
        self.assertEqual(set(cli), {" ".join(a) for a in cli_commands()})
        self.assertTrue(all(g["code"] == 0 for g in cli.values()))

    def test_reference_rejects_out_of_region_points(self):
        self.assertEqual(reference.expected_outcome("s6", {"a": 2, "b": 2, "c": 2}),
                         reference.REGION)
        self.assertEqual(reference.expected_outcome("s6", {"a": 1, "b": 1, "c": 1}), "(0, 0)")


class TestContract(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "toric-points", "--seed", "0", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
