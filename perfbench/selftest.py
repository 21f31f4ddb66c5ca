"""Fast self-test of the benchmark: every workload at toy sizes through the real runner.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

import run

TOY_COMMANDS = {
    "exact-tables": lambda seed: [
        ["rfunc", "--b", "2", "--grid", "-2:0.5:2", "--allow-flagged"],
        ["correlation", "--b", "2", "--r", "0", "--n", "4"],
    ],
    "population": lambda seed: [[
        "simulate", "--b", "2", "--r", "0", "--depth", "17", "--size", "4096",
        "--seed", str(seed), "--n", "2",
    ]],
    "chaos": lambda seed: [[
        "gmc", "--check", "conditional", "--r", "0", "--a", "1", "--n", "2", "--depth", "17",
        "--realizations", "20", "--draws", "50", "--seed", str(seed),
    ]],
}


def _keep_tables(reference: Path, argv, out: Path) -> list:
    for name in run.TABLES[argv[0]]:
        shutil.copy(out / name, reference / name)
    return []


def _truncate_totals(argv, out: Path) -> list:
    path = out / "gmc_conditional_totals.csv"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return run.check_chaos(argv, out)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        cls.reference = cls.work / "reference"
        cls.reference.mkdir(parents=True)
        # The toy exact-tables reference is this checkout's own output: the
        # tests below exercise the gate, not the stored full-size reference.
        keep = run.Workload(TOY_COMMANDS["exact-tables"],
                            functools.partial(_keep_tables, cls.reference), 0)
        run.run_rep(keep, 0, cls.work / "keep", run.child_env(), False)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        try:
            cls.work.parent.rmdir()
        except OSError:
            pass

    def toy(self, name, check=None) -> run.Workload:
        if check is None:
            check = run.WORKLOADS[name].check
            if name == "exact-tables":
                check = functools.partial(run.check_tables, reference=self.reference)
        return run.Workload(TOY_COMMANDS[name], check, run.WORKLOADS[name].default_seed)

    def result(self, name, workload, trace=0) -> dict:
        """The last stdout line of run.py on ``workload`` standing in for ``name``."""
        stdout = io.StringIO()
        with mock.patch.dict(run.WORKLOADS, {name: workload}), contextlib.redirect_stdout(stdout):
            status = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                               "--trace", str(trace)])
        self.assertEqual(status, 0)
        result = json.loads(stdout.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_metric_is_printed_with_its_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for trace, key, units in ((0, "end_to_end", run.E2E_UNITS), (1, "per_layer", run.LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, units)
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result = self.result(name, self.toy(name), trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, units)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_tampered_reference_fails_the_run(self):
        tampered = self.work / "tampered"
        shutil.copytree(self.reference, tampered)
        path = tampered / "rfunc_table.csv"
        rows = path.read_text().splitlines()
        cells = rows[1].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-9))
        rows[1] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n")
        check = functools.partial(run.check_tables, reference=tampered)
        result = self.result("exact-tables", self.toy("exact-tables", check))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)  # rfunc fails, correlation still matches

    def test_truncated_totals_fail_the_run(self):
        result = self.result("chaos", self.toy("chaos", _truncate_totals))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_to_run_without_the_program(self):
        bare = self.work / "bare"
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "chaos", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
