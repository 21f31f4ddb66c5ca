#!/usr/bin/env python3
"""diamondgmc benchmark: README CLI workloads timed end to end, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload population --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # one pass of each workload, as a table

Each command of a workload runs in a fresh interpreter (``child.py``, which
behaves as ``python -m diamondgmc.cli``).  A run repeats the workload for
``--seconds`` and reports medians over the repetitions.  With ``--trace 1``
every repetition is followed by a traced one, and the per-layer metrics come
from the traced repetitions.  Every command run passes through the
correctness gate (``gate``); its outputs go to ``.bench_work/`` in the
checkout and are deleted once checked.  The last line of standard output is
the result object; the line before it is the run record.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

from spans import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference" / "exact-tables"
COMMAND_TIMEOUT_S = 150
# Single-threaded BLAS: a run on a small shared machine should not measure
# how the scheduler places BLAS threads (the same reason no workload passes
# --threads > 1).
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "rfunction.expansion_s": "s",
    "rfunction.evaluate_s": "s",
    "rfunction.moment_table_s": "s",
    "rfunction.evaluate_calls": "count",
    "rfunction.residue_classes": "count",
    "correlation.histogram_s": "s",
    "correlation.histogram_max_n": "count",
    "correlation.conditional_histogram_s": "s",
    "correlation.table_s": "s",
    "cascade.simulate_s": "s",
    "cascade.simulate_calls": "count",
    "cascade.simulate_distinct_share": "ratio",
    "cascade.population_updates": "count",
    "cascade.updates_per_s": "1/s",
    "cascade.leaf_batch_s": "s",
    "cascade.leaves_drawn": "count",
    "cascade.snapshot_write_s": "s",
    "cascade.snapshot_bytes": "B",
    "gmc.experiment_self_s": "s",
    "gmc.kernel_s": "s",
    "gmc.chaos_draws": "count",
    "gmc.draws_per_s": "1/s",
    "gmc.field_flops": "count",
    "gmc.exp_count": "count",
    "gmc.kernel_bytes": "B",
    "lattice.enumerate_s": "s",
    "lattice.paths_enumerated": "count",
    "lattice.incidence_s": "s",
    "lattice.incidence_cells": "count",
    "reporting.write_s": "s",
    "reporting.rows_written": "count",
    "reporting.bytes_written": "B",
    "cli.verdicts_fail": "count",
    **{f"{layer}.raised": "count" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage_share": "ratio",
    "trace.spans": "count",
}

# -- correctness gate ------------------------------------------------------------

# Checks that hold exactly whatever the seed; statistical checks only feed
# verdicts_fail.  Exact checks are the ones written with a |dev| <= tol.
EXACT_NAMED_CHECKS = {"kappa-sq-eta-closed-forms", "monotone-increasing"}
TABLES = {"rfunc": ("rfunc_table.csv",), "correlation": ("histogram.csv", "identity_checks.csv")}
REL_TOL = 1e-12


def _flag(argv, name) -> str:
    return argv[argv.index(name) + 1]


def _scale(column, row) -> float:
    """Floor under the relative tolerance of one reference cell.

    abs_err and rel_err are rounding residues of lhs - rhs, so 1e-12 relative
    applies to the quantities they measure rather than to the residues.
    """
    if column == "abs_err":
        return max(abs(float(row["lhs"])), abs(float(row["rhs"])))
    if column == "rel_err":
        return 1.0
    return 0.0


def _cell_close(got: str, want: str, scale: float) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def compare_csv(path: Path, reference: Path) -> list:
    """Problems found comparing a CSV table with its reference, cell by cell."""
    try:
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        with open(reference, newline="") as fh:
            want = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"{path.name}: {len(got)} rows, reference has {len(want)} (or headers differ)"]
    header = want[0]
    for got_row, want_row in zip(got[1:], want[1:]):
        row = dict(zip(header, want_row))
        if len(got_row) != len(want_row) or not all(
            _cell_close(g, w, _scale(col, row))
            for col, g, w in zip(header, got_row, want_row)
        ):
            return [f"{path.name}: row {got_row} differs from reference {want_row}"]
    return []


def check_tables(argv, out: Path, reference: Path = REFERENCE) -> list:
    return [p for name in TABLES[argv[0]] for p in compare_csv(out / name, reference / name)]


def check_population(argv, out: Path) -> list:
    from diamondgmc.cascade import read_population

    try:
        pop = read_population(out / "population.bin")
    except (OSError, ValueError, KeyError, struct.error) as exc:
        return [f"population.bin does not round-trip: {exc}"]
    size = int(_flag(argv, "--size"))
    mean = float(pop.masses.mean())
    problems = []
    if pop.size != size:
        problems.append(f"population.bin holds {pop.size} masses, expected {size}")
    if not abs(mean - 1.0) <= 1e-12:
        problems.append(f"population.bin mean {mean!r} is not 1 within 1e-12")
    return problems


def check_chaos(argv, out: Path) -> list:
    import numpy as np

    expected = int(_flag(argv, "--realizations")) * int(_flag(argv, "--draws"))
    path = out / "gmc_conditional_totals.csv"
    try:
        lines = path.read_text().split()
        values = np.array(lines[1:], dtype=float)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    if lines[:1] != ["totals"] or values.size != expected:
        return [f"{path.name}: {values.size} totals, expected {expected}"]
    if not np.all(np.isfinite(values) & (values > 0)):
        return [f"{path.name}: totals not all finite and positive"]
    return []


def gate(workload, argv, out: Path, status: int, output: str):
    """(problems, fail verdicts) of one finished command run."""
    problems = []
    if "Traceback (most recent call last)" in output:
        problems.append("printed a traceback")
    if status not in (0, 1, 2):
        problems.append(f"exit status {status}")
    try:
        manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"manifest: {exc}"], 0
    if manifest.get("exit_status") != status:
        problems.append(f"exit status {status}, manifest says {manifest.get('exit_status')}")
    checks = manifest.get("checks", [])
    for check in checks:
        exact = (check.get("tolerance", "").startswith("|dev| <=")
                 or check.get("name") in EXACT_NAMED_CHECKS)
        if exact and check.get("verdict") != "pass":
            problems.append(f"exact check {check.get('name')} is {check.get('verdict')}")
    problems += workload.check(argv, out)
    return problems, sum(c.get("verdict") == "fail" for c in checks)


# -- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    commands: Callable[[int], list]  # seed -> argv of each CLI command, in order
    check: Callable[[list, Path], list]  # (argv, output dir) -> problems
    default_seed: int


# README defaults; the reasons for each choice are in README.md.
WORKLOADS = {
    "exact-tables": Workload(
        # Deterministic: the seed is unused.
        lambda seed: [
            ["rfunc", "--b", "2", "--grid", "-8:0.125:8", "--allow-flagged"],
            ["correlation", "--b", "2", "--r", "0", "--n", "11"],
        ],
        check_tables,
        0,
    ),
    "population": Workload(
        lambda seed: [[
            "simulate", "--b", "2", "--r", "0", "--depth", "24", "--size", "1000000",
            "--seed", str(seed), "--n", "2",
        ]],
        check_population,
        7,
    ),
    "chaos": Workload(
        lambda seed: [[
            "gmc", "--check", "conditional", "--r", "0", "--a", "1", "--n", "3",
            "--realizations", "1000", "--draws", "1000", "--seed", str(seed),
        ]],
        check_chaos,
        12345,
    ),
}


# -- running ------------------------------------------------------------------------


@dataclass
class CommandRun:
    wall: float
    setup: float
    cpu: float
    rss_mib: float
    problems: list
    verdicts_fail: int
    trace: "dict | None"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update(dict.fromkeys(BLAS_ENV, BLAS_THREADS))
    return env


def run_command(workload, argv, out: Path, env, trace: bool) -> CommandRun:
    """Run one CLI command in a fresh process, time it, and gate its outputs."""
    out.mkdir(parents=True)
    result_path, log_path = out.with_suffix(".child.json"), out.with_suffix(".log")
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), str(int(trace)),
           *argv, "--out", str(out)]
    with open(log_path, "w+b") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        log.seek(0)
        output = log.read().decode(errors="replace")
    try:
        child = json.loads(result_path.read_text())
    except (OSError, ValueError):
        child = {}
    problems, verdicts_fail = gate(workload, argv, out, proc.returncode, output)
    if "setup_end" not in child:
        problems.append("child wrote no result")
    if problems:
        print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
    shutil.rmtree(out)
    result_path.unlink(missing_ok=True)
    log_path.unlink()
    return CommandRun(
        wall=ended - launched,
        setup=child.get("setup_end", ended) - launched,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
        problems=problems,
        verdicts_fail=verdicts_fail,
        trace=child.get("trace"),
    )


def run_rep(workload, seed, rep_dir: Path, env, trace: bool) -> list:
    return [
        run_command(workload, argv, rep_dir / f"cmd{i}", env, trace)
        for i, argv in enumerate(workload.commands(seed))
    ]


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rep) -> dict:
    """Per-layer metrics of one traced repetition, summed over its processes."""
    m = {}
    for run in rep:
        trace = run.trace or {"times": {}, "counts": {}, "spans": 0}
        for name, value in {**trace["times"], **trace["counts"]}.items():
            if name == "correlation.histogram_max_n":
                m[name] = max(m.get(name, 0), value)
            else:
                m[name] = m.get(name, 0) + value
        m["trace.spans"] = m.get("trace.spans", 0) + trace["spans"]
    # Caches are per process, so distinct argument tuples are counted per
    # process and summed.
    m["cascade.simulate_distinct_share"] = _ratio(
        m.pop("cascade.simulate_distinct", 0), m.get("cascade.simulate_calls", 0))
    m["cascade.updates_per_s"] = _ratio(
        m.get("cascade.population_updates", 0), m.get("cascade.simulate_s", 0))
    m["gmc.draws_per_s"] = _ratio(m.get("gmc.chaos_draws", 0), m.get("gmc.experiment_self_s", 0))
    m["cli.verdicts_fail"] = sum(run.verdicts_fail for run in rep)
    wall = sum(run.wall for run in rep)
    covered = sum(run.setup for run in rep) + sum(m.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    m["trace.wall_s"] = wall
    m["trace.coverage_share"] = covered / wall
    return m


@dataclass
class Result:
    end_to_end: dict
    per_layer: dict
    attempted: int
    failed: int
    record: dict


def run_workload(name, workload, seed, seconds, trace, work: Path) -> Result:
    """Repeat the workload (and its traced twin) for ``seconds``; medians over repetitions."""
    env = child_env()
    # Untimed: compiles bytecode and warms the file cache before the first launch.
    subprocess.run([sys.executable, "-c", "import diamondgmc.cli"], cwd=ROOT, env=env)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        rep = len(plain)
        plain.append(run_rep(workload, seed, work / f"rep{rep}", env, False))
        if trace:
            traced.append(run_rep(workload, seed, work / f"traced{rep}", env, True))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(plain) > seconds:
            break

    median = statistics.median
    end_to_end = {
        "wall_s": median(sum(r.wall for r in rep) for rep in plain),
        "setup_s": median(sum(r.setup for r in rep) for rep in plain),
        "peak_rss_mib": median(max(r.rss_mib for r in rep) for rep in plain),
    }
    per_layer = {}
    if trace:
        per_rep = [layer_metrics(rep) for rep in traced]
        per_layer = {k: median(m.get(k, 0) for m in per_rep) for k in LAYER_UNITS}
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - end_to_end["wall_s"]
    runs = [r for rep in plain + traced for r in rep]
    failed = sum(bool(r.problems) for r in runs)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "repetitions": len(plain),
        "wall_s_by_repetition": [sum(r.wall for r in rep) for rep in plain],
        "cpu_s_by_repetition": [sum(r.cpu for r in rep) for rep in plain],
        "traced_repetitions": len(traced),
        "commands": [" ".join(argv) for argv in workload.commands(seed)],
        "failed_share": failed / len(runs),
        "verdicts_fail": median(sum(r.verdicts_fail for r in rep) for rep in plain),
        **environment(),
    }
    return Result(end_to_end, per_layer, len(runs), failed, record)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "blas_threads": int(BLAS_THREADS),
    }


def _with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the README's seed)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring time; at least one repetition runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diamondgmc" / "cli.py").is_file():
        print(f"error: no diamondgmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        if args.workload == "all":
            print(f"{'workload':14s} {'wall_s (s)':>11s} {'setup_s (s)':>12s} "
                  f"{'peak_rss_mib (MiB)':>19s} {'failed_share (ratio)':>21s} "
                  f"{'verdicts_fail (count)':>22s}")
            for name, workload in WORKLOADS.items():
                seed = workload.default_seed if args.seed is None else args.seed
                res = run_workload(name, workload, seed, args.seconds, False, work / name)
                e = res.end_to_end
                print(f"{name:14s} {e['wall_s']:11.3f} {e['setup_s']:12.3f} "
                      f"{e['peak_rss_mib']:19.1f} {res.record['failed_share']:21.3f} "
                      f"{res.record['verdicts_fail']:22g}", flush=True)
            return 0
        workload = WORKLOADS[args.workload]
        seed = workload.default_seed if args.seed is None else args.seed
        res = run_workload(args.workload, workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    metrics = (_with_units(res.per_layer, LAYER_UNITS) if args.trace
               else _with_units(res.end_to_end, E2E_UNITS))
    print(json.dumps({"record": res.record}))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
