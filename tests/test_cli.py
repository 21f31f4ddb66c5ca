import csv
import json

import numpy as np
import pytest

from diamondgmc.cli import main, parse_config_file, parse_grid
from diamondgmc.errors import UsageError


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


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
        parsed = parse_config_file(cfg)
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
            parse_config_file(cfg)

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

    def test_non_critical_rejected(self, tmp_path, capsys):
        status = main(
            ["correlation", "--b", "2", "--s", "3", "--out", str(tmp_path)]
        )
        assert status == 1


class TestSimulateCommand:
    def test_run_and_reproducibility(self, tmp_path):
        out = tmp_path / "run"
        args = [
            "simulate", "--b", "2", "--r", "-6", "--depth", "20", "--size", "50000",
            "--seed", "7", "--n", "1", "--realizations", "2000", "--chunks", "2",
            "--out", str(out),
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

    def test_pair_correlation_audit_runs(self, tmp_path):
        status = main(
            ["simulate", "--b", "2", "--r", "-6", "--depth", "20", "--size", "100000",
             "--seed", "11", "--n", "2", "--realizations", "3000",
             "--out", str(tmp_path)]
        )
        assert status == 0
        manifest = read_manifest(tmp_path / "simulate_manifest.json")
        names = [c["name"] for c in manifest["checks"]]
        assert "pair-correlation-audit" in names
        assert "measure-additivity-audit" in names


class TestGmcCommand:
    def test_shift_check_exact(self, tmp_path):
        status = main(
            ["gmc", "--check", "shift", "--b", "2", "--r", "0", "--a", "1",
             "--n", "2", "--seed", "5", "--out", str(tmp_path)]
        )
        assert status == 0
        report = read_manifest(tmp_path / "gmc_shift_report.json")
        assert {c["name"] for c in report["checks"]} == {
            "shift-covariance", "cameron-martin-density",
        }

    def test_shift_check_log_density_at_n6(self, tmp_path, capsys):
        # 4096 edges: the density itself underflows to 0, its log does not
        status = main(
            ["gmc", "--check", "shift", "--b", "2", "--r", "0", "--a", "1",
             "--n", "6", "--out", str(tmp_path)]
        )
        assert status == 0
        report = read_manifest(tmp_path / "gmc_shift_report.json")
        assert all(c["verdict"] == "pass" for c in report["checks"])
        # at n = 7 one ulp of the log density exceeds the 1e-12 bound
        status = main(
            ["gmc", "--check", "shift", "--b", "2", "--r", "0", "--a", "1",
             "--n", "7", "--out", str(tmp_path)]
        )
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_kahane_check(self, tmp_path):
        status = main(
            ["gmc", "--check", "kahane", "--b", "2", "--n", "2", "--draws", "50000",
             "--seed", "5", "--out", str(tmp_path)]
        )
        assert status == 0

    def test_strong_disorder_check(self, tmp_path):
        status = main(
            ["gmc", "--check", "strong-disorder", "--b", "2", "--n", "2",
             "--depth", "24", "--realizations", "25", "--draws", "100",
             "--grid", "1,4", "--seed", "5", "--out", str(tmp_path)]
        )
        assert status == 0

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
