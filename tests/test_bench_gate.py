"""The benchmark's exact-tables workload, run through the benchmark's own gate.

``perfbench/run.py`` compares the workload's tables with its stored
reference at 1e-12 relative.  Running the same commands and the same gate
here makes a change of arithmetic route that moves a table cell fail in the
test suite rather than only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

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
