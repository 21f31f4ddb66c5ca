"""The benchmark's workloads, run through the benchmark's own gates.

``perfbench/run.py`` compares the exact-tables workload's tables with its
stored reference at 1e-12 relative, and checks the population snapshot and
the chaos totals of the other two.  Running the same gates here, on the
exact-tables commands and on small population and chaos runs, makes a change
that moves a table cell or breaks those outputs fail in the test suite
rather than only in the benchmark.  The small runs also go through the
benchmark's traced child, so a signature its tracer no longer fits fails here.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diamondgmc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench(monkeypatch):
    # run.py imports its sibling ``spans`` as a top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_exact_tables_pass_the_bench_gate(tmp_path, monkeypatch, capsys):
    bench = load_bench(monkeypatch)
    workload = bench.WORKLOADS["exact-tables"]
    commands = workload.commands(workload.default_seed)
    assert [argv[0] for argv in commands] == ["rfunc", "correlation"]
    for argv in commands:
        out = tmp_path / argv[0]
        status = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert status == 0, captured.err
        problems, _ = bench.gate(workload, argv, out, status, captured.out + captured.err)
        assert problems == []
        assert bench.check_tables(argv, out) == []


# the population and chaos workloads' commands at small sizes
SMALL_RUNS = pytest.mark.parametrize(
    "name, argv",
    [
        ("population", ["simulate", "--b", "2", "--r", "-6", "--depth", "20",
                        "--size", "40000", "--seed", "7", "--n", "1"]),
        ("chaos", ["gmc", "--check", "conditional", "--r", "0", "--a", "1", "--n", "1",
                   "--realizations", "20", "--draws", "50", "--seed", "7"]),
    ],
)


@SMALL_RUNS
def test_small_runs_pass_the_bench_gate(name, argv, tmp_path, monkeypatch, capsys):
    bench = load_bench(monkeypatch)
    out = tmp_path / argv[0]
    status = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    problems, _ = bench.gate(bench.WORKLOADS[name], argv, out, status, captured.out + captured.err)
    assert problems == []


@SMALL_RUNS
def test_small_runs_trace(name, argv, tmp_path):
    # the tracer wraps the layers' functions and reads their arguments
    out, result = tmp_path / argv[0], tmp_path / "child.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(BENCH.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(result), "1", *argv, "--out", str(out)],
        cwd=BENCH.parent, env=env, capture_output=True, text=True,
    )
    assert "Traceback" not in proc.stdout + proc.stderr, proc.stderr
    manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
    assert proc.returncode == manifest["exit_status"] in (0, 2)
    trace = json.loads(result.read_text())["trace"]
    if name == "population":  # one trajectory: --size x --depth
        size, depth = 40_000, 20
    else:  # one leaf pool of pop_size entries, depth - n = 23 steps
        report = json.loads((out / "gmc_conditional_report.json").read_text())
        size, depth = report["diagnostics"]["pop_size"], 23
    assert trace["counts"]["cascade.population_updates"] == size * depth
