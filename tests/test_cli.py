import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import diamondgmc
from diamondgmc import cascade, cli, correlation, gmc, rfunction
from diamondgmc.cli import (
    COMMAND_SETTINGS, GMC_CHECK_SETTINGS, RunConfig, main, parse_config_file, parse_grid,
)
from diamondgmc.correlation import pair_count_histogram
from diamondgmc.errors import UsageError
from diamondgmc.lattice import LatticeParams
from diamondgmc.rfunction import VarianceProfile, moment_table
from _oracles import write_csv_by_rows
from test_readme import COMMANDS as README_COMMANDS


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


def test_cli_import_loads_no_scipy_or_mpmath():
    # scipy and mpmath are test-only dependencies: importing the CLI loads
    # no module of either
    env = dict(os.environ, PYTHONPATH=str(Path(diamondgmc.__file__).resolve().parents[1]))
    code = (
        "import sys, diamondgmc.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_conditional_runs_without_scipy(tmp_path):
    # the conditional run, with scipy made unimportable in the child process
    env = dict(os.environ, PYTHONPATH=str(Path(diamondgmc.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from diamondgmc.cli import main\n"
        "status = main(['gmc', '--check', 'conditional', '--r', '-4', '--a', '0', '--n', '2',\n"
        "               '--realizations', '50', '--draws', '100',\n"
        f"               '--out', {str(tmp_path)!r}])\n"
        "print('status', status)\n"
        "print('status', sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    statuses = [line for line in proc.stdout.splitlines() if line.startswith("status ")]
    assert statuses == ["status 2", "status []"]
    diag = read_manifest(tmp_path / "gmc_conditional_report.json")["diagnostics"]
    assert not [k for k in diag if k.startswith("ks_") or k == "direct_moments_large"]


class TestConfig:
    def test_file_parsing_and_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "b = 2\n"
            "r = -4.5\n"
            "allow_flagged = true\n"
            "seed_spec = lognormal\n"
        )
        parsed = parse_config_file(cfg, "simulate")
        assert parsed == {
            "b": 2,
            "r": -4.5,
            "allow_flagged": True,
            "seed_spec": "lognormal",
        }

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(UsageError):
            parse_config_file(cfg, "simulate")

    def test_keys_the_command_does_not_read_rejected(self, tmp_path, capsys):
        # s is a setting of fixed-point only
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b = 2\ns = 3\n")
        with pytest.raises(UsageError, match="correlation reads no config key 's'"):
            parse_config_file(cfg, "correlation")
        out = tmp_path / "out"
        assert main(["correlation", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "correlation_manifest.json").exists()

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b = 3\ns = 4\n")
        out = tmp_path / "fp"
        status = main(
            ["fixed-point", "--config", str(cfg), "--b", "2", "--out", str(out)]
        )
        assert status == 0
        manifest = read_manifest(out / "fixed-point_manifest.json")
        assert manifest["config"]["b"] == 2
        assert manifest["config"]["s"] == 4

    def test_grid_parsing(self):
        assert parse_grid("-8:1:8") == pytest.approx(list(np.arange(-8.0, 9.0)))
        assert parse_grid("1,4,9,16") == [1.0, 4.0, 9.0, 16.0]
        with pytest.raises(UsageError):
            parse_grid("1:2")


_SMALL_SIM = ["--r", "-20", "--depth", "20", "--size", "100", "--n", "0"]


@pytest.mark.parametrize(
    "args",
    [
        ["fixed-point", "--config", "{missing}"],
        ["fixed-point", "--config", "{bad_int}"],
        ["rfunc", "--grid", "abc"],
        ["rfunc", "--grid", "nan:1:8"],
        ["gmc", "--check", "strong-disorder", "--grid", ","],
        # the decay check reads a strictly increasing grid, checked before the pool
        ["gmc", "--check", "strong-disorder", "--n", "1", "--realizations", "20",
         "--draws", "50", "--grid", "4,1"],
        ["gmc", "--check", "strong-disorder", "--n", "1", "--realizations", "20",
         "--draws", "50", "--grid", "1,1"],
        # removed flags: islands replaced chunks, and the threads follow the islands
        ["simulate", "--chunks", "0"] + _SMALL_SIM,
        ["simulate", "--chunks", "-1"] + _SMALL_SIM,
        ["simulate", "--threads", "-3"] + _SMALL_SIM,
        # each of the 16 islands needs b^2 entries, checked before any draw
        ["simulate", "--r", "-20", "--depth", "20", "--size", "63", "--n", "0"],
        # the seed is checked where every stream is keyed, the size before any draw
        ["simulate", "--seed", "-3"] + _SMALL_SIM,
        ["gmc", "--check", "shift", "--seed", "-3"],
        ["simulate", "--size", "-5", "--n", "0"],
        # R far above its overflow level, and an orbit beyond its level budget
        ["correlation", "--r", "1e6", "--n", "2"],
        ["gmc", "--check", "shift", "--r", "2000"],
        ["rfunc", "--grid", "1e300:1:1e300"],
        ["rfunc", "--grid=-1000000,-1"],
        # a grid's point count is checked before its list is built: an
        # infinite count, and one above the budget of 2^18 points
        ["rfunc", "--grid", "0:5e-324:1"],
        ["rfunc", "--grid", "0:1:262144"],
        # the moment ladder's orders run from 2 to 16; below 2 a row would not
        # match the header
        ["rfunc", "--kmax", "1", "--grid", "8,9,10", "--allow-flagged"],
        ["rfunc", "--kmax", "0"],
        ["rfunc", "--kmax", "-1"],
        ["rfunc", "--kmax", "17"],
        # the unit-mass seed, a fixed point of the recursion, is no seed kind
        ["rfunc", "--seed-spec", "deterministic-one"],
        # the population size is budgeted before any seed is drawn
        ["simulate", "--r", "0", "--depth", "24", "--size", "100000000000"],
        ["gmc", "--check", "conditional", "--draws", "0"],
        ["gmc", "--check", "renormalization", "--draws", "0"],
        ["gmc", "--check", "kahane", "--draws", "0"],
        ["gmc", "--check", "conditional", "--realizations", "0"],
        # each chaos draw block is budgeted before it is allocated
        ["gmc", "--check", "shift", "--n", "40"],
        # a need past 4300 digits, which int() will not print, and no scan of
        # every generation below n for the feasible one
        ["gmc", "--check", "shift", "--n", "100000"],
        ["gmc", "--check", "kahane", "--n", "40"],
        ["gmc", "--check", "kahane", "--n", "1", "--draws", "10000000000000"],
        ["gmc", "--check", "strong-disorder", "--n", "2", "--draws", "100000"],
        # and so is the conditional run's (realizations, draws) totals block
        ["gmc", "--check", "conditional", "--r", "-4", "--a", "0", "--n", "1",
         "--realizations", "65536", "--draws", "65536"],
        ["gmc", "--check", "foo"],
        # each law keeps the one edge weight it is stated for: no --mode flag
        ["gmc", "--check", "conditional", "--mode", "asymptotic"],
        ["gmc", "--n", "abc"],
        # a branch weight b r kappa^2 / n^2 beyond double range
        ["gmc", "--check", "strong-disorder", "--n", "1", "--depth", "30", "--realizations", "2",
         "--draws", "2", "--grid", "1e308"],
        # a base level above -16, refused before the law ladder runs
        ["simulate", "--r", "0", "--depth", "2", "--size", "1000", "--n", "0"],
        ["gmc", "--check", "conditional", "--r", "0", "--n", "1", "--depth", "2",
         "--realizations", "2", "--draws", "2"],
        [],
    ],
    ids=lambda args: " ".join(args) or "no-command",
)
def test_usage_errors_exit_one(args, tmp_path, capsys):
    bad_int = tmp_path / "bad.cfg"
    bad_int.write_text("b = abc\n")
    paths = {"{missing}": str(tmp_path / "missing.cfg"), "{bad_int}": str(bad_int)}
    argv = [paths.get(a, a) for a in args]
    if argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # a rejected run leaves no --out directory


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gmc", "--help"])
    assert exc.value.code == 0
    assert "--check" in capsys.readouterr().out


def _flag(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
def test_help_lists_exactly_the_declared_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(--[a-z-]+)", capsys.readouterr().out)) - {"--help"}
    declared = {_flag(name) for name in COMMAND_SETTINGS[command] | {"out", "config"}}
    assert listed == declared


_UNDECLARED = [
    (command, f.name)
    for command in sorted(COMMAND_SETTINGS)
    for f in dataclasses.fields(RunConfig)
    if f.name not in COMMAND_SETTINGS[command] | {"out"}
] + [
    (f"gmc --check {check}", name)
    for check, names in GMC_CHECK_SETTINGS.items()
    for name in sorted(COMMAND_SETTINGS["gmc"] - names)
]


@pytest.mark.parametrize("command, name", _UNDECLARED, ids=lambda v: v)
def test_undeclared_flag_exits_one(command, name, tmp_path, capsys):
    # a setting the command, or its gmc check, does not read is refused as a
    # flag and as a config key
    value = getattr(RunConfig(), name)
    config = tmp_path / "run.cfg"
    config.write_text(f"{name} = {value}\n")
    flag = [_flag(name)] + ([] if value is True or value is False else [str(value)])
    if command.startswith("gmc --check"):
        messages = [f"{command} does not read {_flag(name)}"] * 2
    else:
        messages = ["unrecognized arguments", f"{command} reads no config key {name!r}"]
    out = tmp_path / "out"
    for given, message in zip((flag, ["--config", str(config)]), messages):
        assert main(command.split() + given + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()  # no manifest, no output


@pytest.mark.parametrize(
    "check, args",
    [
        ("shift", ["--n", "1", "--draws", "10"]),
        ("kahane", ["--n", "1", "--draws", "10"]),
        ("conditional", ["--r", "-4", "--n", "1", "--realizations", "2", "--draws", "2"]),
        ("strong-disorder", ["--n", "1", "--realizations", "2", "--draws", "2", "--grid", "1,4"]),
    ],
)
def test_gmc_check_reads_and_records_exactly_its_settings(check, args, tmp_path, monkeypatch):
    read = set()

    class Recording:
        """The merged settings, noting the name of every one the run reads."""

        def __init__(self, cfg):
            self.cfg = cfg

        def __getattr__(self, name):
            read.add(name)
            return getattr(self.cfg, name)

    merge = cli._merge_config
    monkeypatch.setattr(cli, "_merge_config", lambda args: Recording(merge(args)))
    main(["gmc", "--check", check, *args, "--out", str(tmp_path)])
    manifest = read_manifest(tmp_path / "gmc_manifest.json")
    assert set(manifest["config"]) == read == GMC_CHECK_SETTINGS[check] | {"out"}


_DEEP = ["--depth", "300000", "--n", "1", "--realizations", "2", "--draws", "2"]


@pytest.mark.parametrize(
    "args, error",
    [
        (["simulate", "--depth", "300000", "--size", "16", "--n", "0"],
         "error: moment ladder from r = -300000.0"),
        (["gmc", "--check", "conditional"] + _DEEP, "error: moment ladder from r = -300000.0"),
        (["gmc", "--check", "strong-disorder"] + _DEEP,
         "error: population trajectory from r = -300000.0 to -1.0 needs 299999"),
    ],
    ids=["simulate", "gmc-conditional", "gmc-strong-disorder"],
)
def test_too_deep_run_refused_before_any_population(args, error, tmp_path, capsys, monkeypatch):
    # the exact law ladder runs first, and its step budget refuses the depth;
    # strong-disorder runs no ladder, and its leaf pool's trajectory holds its
    # own steps to the same budget before its first draw
    def no_population(*args, **kwargs):
        raise AssertionError("a population was drawn before the budget check")

    monkeypatch.setattr(rfunction.SeedSpec, "draw", no_population)
    monkeypatch.setattr(cascade, "population_step", no_population)
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error)
    assert "above the budget of 262144" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--r", "0", "--depth", "2", "--size", "1000", "--n", "0"],
        ["gmc", "--check", "conditional", "--r", "0", "--n", "1", "--depth", "2",
         "--realizations", "2", "--draws", "2"],
    ],
    ids=["simulate", "gmc-conditional"],
)
def test_too_shallow_run_names_the_base_level(args, tmp_path, capsys):
    # the law ladder runs first; it names the base level, not the seed law
    # that the base level puts out of its range
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: base level r - depth = -2.0 is above -16.0; increase depth so the "
        "asymptotic seed is in its validity regime\n"
    )


class TestFixedPointCommand:
    def test_values_and_exit(self, tmp_path, capsys):
        status = main(["fixed-point", "--b", "2", "--s", "3", "--out", str(tmp_path)])
        captured = capsys.readouterr().out
        assert status == 0
        assert "0.381966011" in captured
        assert "0.369070246" in captured

    def test_critical_rejected(self, tmp_path, capsys):
        status = main(["fixed-point", "--b", "2", "--s", "2", "--out", str(tmp_path)])
        assert status == 1
        assert "critical" in capsys.readouterr().err


class TestRfuncCommand:
    def test_grid_table_and_residuals(self, tmp_path, capsys):
        status = main(
            ["rfunc", "--b", "2", "--grid", "-8:1:8", "--out", str(tmp_path),
             "--allow-flagged"]
        )
        assert status == 0
        with open(tmp_path / "rfunc_table.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 18  # header + 17 grid rows
        manifest = read_manifest(tmp_path / "rfunc_manifest.json")
        checks = {c["name"]: c for c in manifest["checks"]}
        assert checks["psi-identity-residual"]["verdict"] == "pass"
        assert checks["psi-identity-residual"]["estimate"] < 1e-10

    def test_b3_kappa_constant(self, tmp_path):
        status = main(
            ["rfunc", "--b", "3", "--grid", "0:1:0", "--out", str(tmp_path),
             "--allow-flagged"]
        )
        assert status == 0
        with open(tmp_path / "rfunc_table.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        manifest = read_manifest(tmp_path / "rfunc_manifest.json")
        kappa = {c["name"]: c for c in manifest["checks"]}["kappa-sq-eta-closed-forms"]
        assert kappa["verdict"] == "pass"
        assert kappa["estimate"] == 1.0  # kappa^2(3) = 2/2 exactly

    def test_kappa_check_reads_the_derived_coefficient(self, tmp_path):
        # at b = 8 the rounded kappa^2 eta misses the rounded L/t^2 coefficient
        # of the expansion by one ulp; the check compares them, not the closed forms
        assert main(["rfunc", "--b", "8", "--grid", "0:1:0", "--out", str(tmp_path),
                     "--allow-flagged"]) == 0
        manifest = read_manifest(tmp_path / "rfunc_manifest.json")
        kappa = {c["name"]: c for c in manifest["checks"]}["kappa-sq-eta-closed-forms"]
        assert kappa["verdict"] == "pass"
        assert "L/t^2 coefficient = 0.12244897959183673" in kappa["detail"]

    def test_flagged_rows_exit_code(self, tmp_path):
        # overflow rows in the moment columns are flagged; without
        # --allow-flagged the command exits nonzero without failing
        status = main(
            ["rfunc", "--b", "2", "--grid", "0:1:4", "--out", str(tmp_path)]
        )
        assert status == 2
        manifest = read_manifest(tmp_path / "rfunc_manifest.json")
        assert not [c for c in manifest["checks"] if c["verdict"] == "fail"]

    def test_overflow_rows_keep_csv_shape(self, tmp_path):
        # b = 3 exceeds double range above r = 6; those rows are nan-filled
        status = main(
            ["rfunc", "--b", "3", "--grid", "0:1:8", "--out", str(tmp_path),
             "--allow-flagged"]
        )
        assert status == 0
        with open(tmp_path / "rfunc_table.csv") as fh:
            rows = list(csv.reader(fh))
        width = len(rows[0])
        assert all(len(row) == width for row in rows)
        assert rows[-1][1] == "nan"  # R(8) not representable for b = 3

    def test_overflow_rows_counts_each_row_once(self, tmp_path):
        # row 9 has nan moments, and its psi residual reads R(10), beyond range
        status = main(["rfunc", "--grid", "8,9", "--allow-flagged", "--out", str(tmp_path)])
        assert status == 0
        manifest = read_manifest(tmp_path / "rfunc_manifest.json")
        assert {c["name"]: c for c in manifest["checks"]}["overflow-rows"]["estimate"] == 2.0

    def test_deep_grid_sandwich_rows(self, tmp_path):
        status = main(
            ["rfunc", "--b", "2", "--grid=-1000,-10000", "--out", str(tmp_path),
             "--allow-flagged"]
        )
        assert status == 0
        manifest = read_manifest(tmp_path / "rfunc_manifest.json")
        sandwich = [
            c for c in manifest["checks"] if c["name"].startswith("asymptotic-sandwich")
        ]
        assert len(sandwich) == 2
        assert all(c["verdict"] == "pass" for c in sandwich)

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_rounding_alone_fails_no_check_at_r_minus_1e17(self, b, tmp_path):
        # R(-1e17) is about kappa^2 1e-17: the two-point seed's m_2 rounds to
        # or below 1, and the sandwich's left side, 2-4e-16, is rounding of a
        # ratio near 1, against a bound of 2.4-4.3e-16
        assert main(["rfunc", "--b", str(b), "--grid=-1e17", "--out", str(tmp_path)]) == 0
        manifest = read_manifest(tmp_path / "rfunc_manifest.json")
        checks = {c["name"]: c for c in manifest["checks"]}
        assert checks["asymptotic-sandwich(r=-1e+17)"]["verdict"] == "pass"
        assert {c["verdict"] for c in checks.values()} == {"pass"}

    def test_orbit_total_budget(self, tmp_path, capsys, monkeypatch):
        # a 0.004 grid holds 1.35M orbit levels (about 5 s and 56 MiB), within the
        # profile's total; a 0.0001 grid would hold about 41M in the orbits of
        # its 10000 residue classes and their 9984 other seed-level residues,
        # and is refused before any orbit is built
        def no_orbit(*args):
            raise AssertionError("an orbit was built before the budget check")

        assert rfunction.PROFILE_LEVEL_BUDGET >= 1_354_657
        monkeypatch.setattr(VarianceProfile, "_build_orbit", no_orbit)
        assert main(["rfunc", "--grid", "-8:0.0001:8", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid of 10000 residue classes needs 40947216, "
                              "above the budget of 4194304; their 19984 R orbits")
        assert not (tmp_path / "out").exists()


class TestCorrelationCommand:
    def test_histogram_and_identities(self, tmp_path):
        status = main(
            ["correlation", "--b", "2", "--r", "0", "--n", "2", "--out", str(tmp_path)]
        )
        assert status == 0
        with open(tmp_path / "histogram.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        counts = {int(row[0]): round(10 ** float(row[1])) for row in rows}
        assert counts == {0: 40, 2: 16, 4: 8}

    def test_consistency_to_n10(self, tmp_path):
        status = main(
            ["correlation", "--b", "2", "--r", "0", "--n", "10", "--out", str(tmp_path)]
        )
        assert status == 0
        manifest = read_manifest(tmp_path / "correlation_manifest.json")
        names = {c["name"] for c in manifest["checks"]}
        assert "upsilon-total-mass-consistency" in names
        assert all(c["verdict"] == "pass" for c in manifest["checks"])

    def test_exact_checks_hold_at_r3(self, tmp_path):
        # the targets reach about 3e8 here: the mass and RN checks are relative,
        # so rounding alone cannot fail them
        status = main(
            ["correlation", "--b", "2", "--r", "3", "--n", "10", "--out", str(tmp_path)]
        )
        assert status == 0
        manifest = read_manifest(tmp_path / "correlation_manifest.json")
        exact = {
            c["name"]: c["verdict"]
            for c in manifest["checks"]
            if c["tolerance"].startswith("|dev| <=")
        }
        assert {"upsilon-total-mass-consistency", "rn-exactness(n=8)"} <= set(exact)
        assert set(exact.values()) == {"pass"}

    def test_exact_checks_hold_at_r5(self, tmp_path):
        # the n = 2 marginal is about 5.8e15 here, so one ulp of it is 1: the
        # marginal check is relative, and rounding alone cannot fail it
        status = main(
            ["correlation", "--b", "2", "--r", "5", "--n", "3", "--out", str(tmp_path)]
        )
        assert status == 0
        manifest = read_manifest(tmp_path / "correlation_manifest.json")
        checks = {c["name"]: c for c in manifest["checks"]}
        marginal = checks["marginal-uniformity(n=2)"]
        assert marginal["verdict"] == "pass"
        assert marginal["detail"] == "relative"
        assert {c["verdict"] for c in checks.values()} == {"pass"}

    def test_negative_values_in_exponent_form(self, tmp_path):
        # argparse takes '-1e3' for an option; every flag that takes a value
        # reads it, split or joined
        manifests = []
        for given in (["--r", "-1e3"], ["--r=-1e3"]):
            out = tmp_path / given[0]
            assert main(["correlation", *given, "--n", "2", "--out", str(out)]) == 0
            manifest = read_manifest(out / "correlation_manifest.json")
            del manifest["timestamp_utc"], manifest["wall_clock_seconds"], manifest["config"]["out"]
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        assert manifests[0]["config"]["r"] == -1000.0

    def test_non_critical_rejected(self, tmp_path, capsys):
        # correlation runs on the critical lattice only: it takes no --s
        status = main(
            ["correlation", "--b", "2", "--s", "3", "--out", str(tmp_path)]
        )
        assert status == 1
        assert "unrecognized arguments: --s 3" in capsys.readouterr().err

    @pytest.mark.parametrize("b, n", [(2, 14), (3, 9)])
    def test_histogram_budget_checked_first(self, b, n, tmp_path, capsys, monkeypatch):
        def no_step(*args):
            raise AssertionError("a histogram step ran before the budget check")

        monkeypatch.setattr(correlation, "_power", no_step)
        status = main(
            ["correlation", "--b", str(b), "--n", str(n), "--out", str(tmp_path)]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: pair histogram at b = {b} (b^n <= 8192 path edges) "
                              f"needs {n}, above the budget of {n - 1}")
        assert "Traceback" not in err

    def test_kernel_marginal_beyond_double_range(self, tmp_path):
        # b = 3, n = 7: both sides of the kernel-marginal identity are about
        # 3^(-1093), below the smallest double; they are compared in logs
        status = main(
            ["correlation", "--b", "3", "--r", "0", "--n", "7", "--out", str(tmp_path)]
        )
        assert status == 0
        manifest = read_manifest(tmp_path / "correlation_manifest.json")
        checks = {c["name"]: c for c in manifest["checks"]}
        assert checks["kernel-marginal-identity"]["verdict"] == "pass"

    @pytest.mark.parametrize("r", ["-1e162", "-1e200", "-1e308"])
    def test_underflowing_R_prime_exits_one(self, r, tmp_path, capsys):
        out = tmp_path / "corr"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["correlation", "--b", "2", "--r", r, "--n", "1",
                           "--out", str(out)])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: R' underflows double precision at r - n = ")
        assert err.count("\n") == 1
        assert not out.exists()  # no partial output directory

    @pytest.mark.parametrize("r", ["-1e30", "-1e40"])
    def test_rho_total_passes_where_1_plus_R_rounds_to_1(self, r, tmp_path):
        assert main(["correlation", "--b", "2", "--r", r, "--n", "3",
                     "--out", str(tmp_path)]) == 0
        manifest = read_manifest(tmp_path / "correlation_manifest.json")
        checks = {c["name"]: c for c in manifest["checks"]}
        assert checks["rho-total(n=3)"]["verdict"] == "pass"

    def test_exact_checks_hold_at_b3_n8(self, tmp_path):
        # 2 log|Gamma_8| is about 7207 at b = 3: summed as float logs, the
        # mass and RN terms lose about 1.6e-12 to rounding alone, above the
        # 1e-12 tolerance; the sums run in 30-digit decimal
        status = main(
            ["correlation", "--b", "3", "--r", "5", "--n", "8", "--out", str(tmp_path)]
        )
        assert status == 0
        manifest = read_manifest(tmp_path / "correlation_manifest.json")
        checks = {c["name"]: c for c in manifest["checks"]}
        for name in ("upsilon-total-mass-consistency", "rn-exactness(n=8)"):
            assert checks[name]["tolerance"] == "|dev| <= 1e-12"
            assert abs(checks[name]["estimate"]) <= 1e-12


class TestSimulateCommand:
    def test_run_and_reproducibility(self, tmp_path):
        out = tmp_path / "run"
        args = [
            "simulate", "--b", "2", "--r", "-6", "--depth", "20", "--size", "50000",
            "--seed", "7", "--n", "1", "--realizations", "2000", "--out", str(out),
        ]
        assert main(args) == 0
        pop_bytes = (out / "population.bin").read_bytes()
        csv_bytes = (out / "summary.csv").read_bytes()
        m1 = read_manifest(out / "simulate_manifest.json")
        assert main(args) == 0
        assert (out / "population.bin").read_bytes() == pop_bytes
        assert (out / "summary.csv").read_bytes() == csv_bytes
        m2 = read_manifest(out / "simulate_manifest.json")
        for key in ("timestamp_utc", "wall_clock_seconds"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2

    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        # the README run, its islands on 1, 2 and 4 threads; the --out given
        # last is the one read
        argv = next(argv for argv, _ in README_COMMANDS if argv[0] == "simulate")
        outputs = []
        for workers in (1, 2, 4):
            monkeypatch.setattr(cascade, "worker_count", lambda tasks: min(tasks, workers))
            out = tmp_path / str(workers)
            assert main([*argv, "--out", str(out)]) == 2
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()
                            if path.suffix != ".json"})
        assert sorted(outputs[0]) == ["population.bin", "summary.csv"]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_variance_census_at_r_minus_6(self, tmp_path):
        # the variance's SE comes from the spread of the 16 island variances,
        # which carries the population's own error: over 20 seeds every run
        # passes and z spreads as a t with 15 degrees of freedom would (sd
        # 1.07); with each island's seed at mean 1, so does every step's mean
        # (an unnormalized seed drifted the first step beyond 4 SE at seeds 1
        # and 8)
        z = []
        for seed in range(1, 21):
            out = tmp_path / str(seed)
            status = main(
                ["simulate", "--b", "2", "--r", "-6", "--depth", "20", "--size", "100000",
                 "--seed", str(seed), "--n", "0", "--out", str(out)]
            )
            check = {c["name"]: c for c in read_manifest(out / "simulate_manifest.json")
                     ["checks"]}["variance-vs-R"]
            assert status == 0 and check["verdict"] == "pass", (seed, check)
            z.append((check["estimate"] - check["target"]) / check["se"])
        assert np.std(z, ddof=1) < 1.5, z

    @pytest.mark.parametrize("seed_spec", ["two-point", "lognormal"])
    def test_variance_flagged_by_law_se_at_r0(self, tmp_path, seed_spec):
        # at r = 0 the sample variance's exact SE, sqrt((mu4 - R^2) / size),
        # dwarfs the estimate: the check reads flagged, never pass or fail.
        # mu4 is that of the law the run drew: its seed, 16 steps up
        status = main(
            ["simulate", "--b", "2", "--r", "0", "--depth", "16", "--size", "20000",
             "--seed", "3", "--n", "0", "--seed-spec", seed_spec, "--out", str(tmp_path)]
        )
        assert status == 2
        manifest = read_manifest(tmp_path / "simulate_manifest.json")
        assert manifest["exit_status"] == 2
        check = {c["name"]: c for c in manifest["checks"]}["variance-vs-R"]
        assert check["verdict"] == "flagged"
        profile = VarianceProfile(2)
        mu4 = moment_table(profile, [0.0], k_max=4, seed_kind=seed_spec, depth=16).centered[0, 4]
        law_se = math.sqrt((mu4 - profile.evaluate_R(0.0) ** 2) / 20000)
        assert f"law SE {law_se:.3g} above" in check["detail"]

    def test_generation_checked_before_any_step(self, tmp_path, capsys, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("population step ran before the depth check")

        monkeypatch.setattr(cascade, "population_step", no_step)
        status = main(
            ["simulate", "--b", "2", "--r", "-20", "--depth", "2", "--size", "4096",
             "--n", "2", "--out", str(tmp_path)]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "error: depth 2 must exceed the generation 2" in err
        assert "Traceback" not in err

    def test_audit_budget_checked_before_any_step(self, tmp_path, capsys, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("population step ran before the budget check")

        monkeypatch.setattr(cascade, "population_step", no_step)
        status = main(
            ["simulate", "--b", "2", "--r", "-20", "--depth", "24", "--size", "4096",
             "--n", "6", "--realizations", "1000", "--out", str(tmp_path)]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "error: leaf batch at generation 6" in err
        assert "largest feasible n at 1000 realizations is 5" in err
        assert "Traceback" not in err

    def test_audit_needs_two_realizations(self, tmp_path, capsys):
        status = main(
            ["simulate", "--b", "2", "--r", "-20", "--depth", "4", "--size", "4096",
             "--n", "1", "--realizations", "1", "--out", str(tmp_path)]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "error: the measure audits need --realizations >= 2" in err
        assert "Traceback" not in err

    def test_pair_correlation_audit_runs(self, tmp_path):
        for n in (2, 3, 4):
            out = tmp_path / f"n{n}"
            status = main(
                ["simulate", "--b", "2", "--r", "-6", "--depth", "20", "--size", "100000",
                 "--seed", "11", "--n", str(n), "--realizations", "3000",
                 "--out", str(out)]
            )
            assert status == 0
            manifest = read_manifest(out / "simulate_manifest.json")
            checks = {c["name"]: c for c in manifest["checks"]}
            classes = dict(pair_count_histogram(LatticeParams(2, 2), n))
            assert {f"pair-correlation-audit(N={k})" for k in classes} <= set(checks)
            assert checks["measure-additivity-audit"]["verdict"] == "pass"


class TestGmcCommand:
    def test_shift_check_exact(self, tmp_path):
        # one law row against its exact target, with a law SE under 10% of the estimate
        status = main(
            ["gmc", "--check", "shift", "--b", "2", "--r", "0", "--a", "1",
             "--n", "2", "--out", str(tmp_path)]
        )
        assert status == 0
        report = read_manifest(tmp_path / "gmc_shift_report.json")
        (check,) = report["checks"]
        assert check["name"] == "cameron-martin-law" and check["verdict"] == "pass"
        assert report["diagnostics"]["law_se"] < 0.1 * check["estimate"]

    def test_shift_check_budget(self, tmp_path, capsys):
        # 1000 draws of 4^5 edge cells fit the budget of 2^20 cells, 4^6 do not
        for n, status in ((5, 0), (6, 1)):
            assert main(
                ["gmc", "--check", "shift", "--b", "2", "--r", "0", "--a", "1",
                 "--n", str(n), "--out", str(tmp_path)]
            ) == status
        assert "error: chaos draw block at generation 6" in capsys.readouterr().err

    def test_kahane_check(self, tmp_path):
        status = main(
            ["gmc", "--check", "kahane", "--b", "2", "--n", "2", "--draws", "50000",
             "--seed", "5", "--out", str(tmp_path)]
        )
        assert status == 0

    def test_kahane_overflow_reads_flagged_without_warning(self, tmp_path):
        # at r = 8 both Kahane moments leave double range: inf, read flagged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(
                ["gmc", "--check", "kahane", "--r", "8", "--a", "1", "--n", "1",
                 "--out", str(tmp_path)]
            )
        assert status == 2
        report = read_manifest(tmp_path / "gmc_kahane_report.json")
        assert [c["verdict"] for c in report["checks"]] == ["flagged", "flagged"]

    def test_conditional_layer_flagged_at_strong_coupling(self, tmp_path):
        # at r = 3 the exact SEs of the per-reference second moments dwarf
        # the quadratic forms (pooled relative SE ~ 4e5): the layer reads
        # flagged, not fail
        status = main(
            ["gmc", "--check", "conditional", "--r", "3", "--a", "1", "--n", "2",
             "--realizations", "100", "--draws", "1000", "--out", str(tmp_path)]
        )
        assert status == 2
        report = read_manifest(tmp_path / "gmc_conditional_report.json")
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["conditional-second-moment-layer"]["verdict"] == "flagged"

    def test_conditional_layer_passes_at_zero_coupling(self, tmp_path):
        # at a = 0 the chaos is the identity and the exact SE vanishes; the
        # SE floor keeps rounding noise from reading as a violation.  At
        # n = 1 there is no sub-level, so no weight-decomposition audit.
        # The pooled moments' law SEs, about 20% of the second moment at
        # 50 x 100, flag exactly the three pooled checks.
        pooled = {"second-moment-vs-1+R", "second-moment-vs-pool-ladder",
                  "third-moment-vs-pool-ladder"}
        for n in ("2", "1"):
            out = tmp_path / n
            status = main(
                ["gmc", "--check", "conditional", "--r", "-4", "--a", "0", "--n", n,
                 "--realizations", "50", "--draws", "100", "--out", str(out)]
            )
            assert status == 2
            report = read_manifest(out / "gmc_conditional_report.json")
            checks = {c["name"]: c for c in report["checks"]}
            assert checks["conditional-second-moment-layer"]["verdict"] == "pass"
            assert ("weight-decomposition-audit" in checks) == (n != "1")
            assert {name for name, c in checks.items() if c["verdict"] == "flagged"} == pooled
            assert all("law SE" in checks[name]["detail"] for name in pooled)

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--check", "conditional", "--n", "6"],
             "largest feasible n at 1000 realizations is 5"),
            (["--check", "strong-disorder", "--n", "6"],
             "largest feasible n at 1000 realizations is 5"),
            # the (grid, realizations) half-moment arrays
            (["--check", "strong-disorder", "--grid", "1:1:2000"],
             "half-moment block of 2000 x 1000 needs 2000000, above the budget of 1048576"),
        ],
        ids=["conditional", "strong-disorder", "strong-disorder-grid"],
    )
    def test_reference_budget_checked_before_any_population(
        self, args, error, tmp_path, capsys, monkeypatch
    ):
        def no_population(*args, **kwargs):
            raise AssertionError("a population ran before the budget check")

        monkeypatch.setattr(cascade, "simulate_mass_trajectory", no_population)
        monkeypatch.setattr(gmc, "simulate_mass_trajectory", no_population)
        status = main(["gmc", *args, "--realizations", "1000", "--out", str(tmp_path)])
        assert status == 1
        err = capsys.readouterr().err
        assert error in err
        assert "Traceback" not in err

    def test_conditional_audit_at_n5(self, tmp_path):
        status = main(
            ["gmc", "--check", "conditional", "--n", "5", "--realizations", "20",
             "--draws", "200", "--out", str(tmp_path)]
        )
        assert status in (0, 1, 2)
        report = read_manifest(tmp_path / "gmc_conditional_report.json")
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["weight-decomposition-audit"]["verdict"] == "pass"
        assert checks["weight-decomposition-audit"]["estimate"] <= 1e-12

    def test_strong_disorder_check(self, tmp_path):
        status = main(
            ["gmc", "--check", "strong-disorder", "--b", "2", "--n", "2",
             "--depth", "24", "--realizations", "25", "--draws", "100",
             "--grid", "1,4", "--seed", "5", "--out", str(tmp_path)]
        )
        assert status == 0

    def test_strong_disorder_half_moments_underflow_to_zero(self, tmp_path):
        # at n = 3 the branch weight at r = 1e308 is finite: its half moments
        # underflow to 0, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(
                ["gmc", "--check", "strong-disorder", "--n", "3", "--realizations", "2",
                 "--draws", "2", "--grid", "1,1e308", "--out", str(tmp_path)]
            )
        assert status == 0
        with open(tmp_path / "gmc_strong-disorder_half_moments.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(row[1]) for row in rows] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "check, args",
        [
            ("shift", []),
            ("kahane", ["--n", "1", "--draws", "100"]),
            ("conditional", ["--r", "-4", "--n", "1", "--realizations", "20", "--draws", "20"]),
            ("strong-disorder", ["--n", "1", "--realizations", "20", "--draws", "20"]),
        ],
    )
    def test_report_holds_checks_notes_and_diagnostics(self, check, args, tmp_path):
        # the settings are the manifest's config; the report holds the rest
        main(["gmc", "--check", check, *args, "--out", str(tmp_path)])
        report = read_manifest(tmp_path / f"gmc_{check}_report.json")
        manifest = read_manifest(tmp_path / "gmc_manifest.json")
        assert set(report) == {"checks", "diagnostics", "name", "notes"}
        assert manifest["checks"] == report["checks"]
        assert manifest["notes"] == report["notes"]
        if check in ("conditional", "strong-disorder"):
            assert report["diagnostics"]["pop_size"] == 1_000_000

    def test_report_bytes_reproducible(self, tmp_path):
        args = [
            "gmc", "--check", "kahane", "--b", "2", "--n", "2", "--draws", "20000",
            "--seed", "9",
        ]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "gmc_kahane_report.json").read_bytes() == (
            out2 / "gmc_kahane_report.json"
        ).read_bytes()

    def test_totals_csv_bytes_match_row_route(self, tmp_path, monkeypatch):
        reports = []

        def recording(*args):
            reports.append(gmc.kahane_experiment(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "kahane_experiment", recording)
        args = ["gmc", "--check", "kahane", "--b", "2", "--n", "2", "--draws", "30000",
                "--seed", "78", "--out", str(tmp_path)]
        assert main(args) == 0
        write_csv_by_rows(tmp_path / "rows.csv", ["totals"],
                          reports[0].arrays["totals"][:, None])
        assert (tmp_path / "gmc_kahane_totals.csv").read_bytes() == (
            tmp_path / "rows.csv"
        ).read_bytes()
