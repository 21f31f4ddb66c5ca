import json
import math

import numpy as np
import pytest
from scipy import stats

from _oracles import write_csv_by_rows
from diamondgmc.reporting import (
    CheckResult,
    ExperimentReport,
    exact_check,
    format_float,
    kolmogorov_sf,
    ks_two_sample,
    se_check,
    write_csv,
    write_json,
)


class TestChecks:
    def test_exact_check_verdicts(self):
        assert exact_check("x", 1e-13, 1e-12).verdict == "pass"
        assert exact_check("x", 2e-12, 1e-12).verdict == "fail"

    def test_se_check_pass(self):
        c = se_check("m", target=1.0, estimate=1.02, se=0.01, multiplier=4.0)
        assert c.verdict == "pass"
        assert "z = 2.00" in c.detail

    def test_se_check_fail_when_reliable(self):
        c = se_check("m", target=1.0, estimate=1.5, se=0.05, multiplier=4.0)
        assert c.verdict == "fail"

    def test_se_check_flagged_when_unreliable(self):
        # far from target but the SE is a large fraction of the estimate
        c = se_check("m", target=21.0, estimate=4.0, se=0.6, multiplier=4.0)
        assert c.verdict == "flagged"
        assert "reliability" in c.detail

    def test_se_check_floor_flags_any_verdict(self):
        # an exact SE above 10% of the estimate flags a pass and a fail alike
        kwargs = dict(estimate=1.02, se=0.01, multiplier=4.0, floor=0.2)
        for target in (1.0, 1.5):
            c = se_check("m", target=target, **kwargs)
            assert c.verdict == "flagged"
            assert "law SE 0.2 above reliability ratio" in c.detail

    def test_se_check_floor_not_finite_flags(self):
        for floor in (math.inf, math.nan):
            c = se_check("m", target=1.0, estimate=1.02, se=0.01, multiplier=4.0, floor=floor)
            assert c.verdict == "flagged"

    def test_se_check_floor_below_ratio_keeps_verdict(self):
        # the floor only ever flags: no fail turns into a pass
        for target, verdict in ((1.0, "pass"), (1.5, "fail")):
            c = se_check("m", target=target, estimate=1.02, se=0.01, multiplier=4.0, floor=0.1)
            assert c.verdict == verdict
            assert "law SE" not in c.detail


def tied_samples(rng, n1, n2, levels):
    """Two integer-valued samples on ``levels`` points, the second shifted."""
    x = rng.integers(0, levels, n1).astype(float)
    y = (rng.integers(0, levels, n2) + 1).astype(float)
    return x, y


class TestKolmogorovSmirnov:
    # scipy, a test-only dependency, is the reference
    @pytest.mark.parametrize("n1,n2,levels", [(10_001, 23_457, 7), (40_000, 12_345, 300),
                                              (15_000, 150, 40)])
    def test_statistic_matches_scipy_asymptotic_mode(self, n1, n2, levels):
        # above 10 000 points scipy keeps its float difference of the CDFs
        x, y = tied_samples(np.random.default_rng(n1 + n2), n1, n2, levels)
        d, _ = ks_two_sample(x, y)
        assert d == stats.ks_2samp(x, y).statistic
        assert ks_two_sample(y, x)[0] == d

    @pytest.mark.parametrize("seed", range(20))
    def test_statistic_near_scipy_exact_mode(self, seed):
        # below it scipy recomputes D as h / lcm(n1, n2); the float route may
        # differ by the rounding of CDF values in [0, 1], at most 2^-52
        rng = np.random.default_rng(seed)
        n1, n2 = (int(v) for v in rng.integers(5, 3000, 2))
        x, y = tied_samples(rng, n1, n2, int(rng.integers(2, 200)))
        d, _ = ks_two_sample(x, y)
        assert abs(d - stats.ks_2samp(x, y).statistic) <= 2.0**-52

    def test_pvalue_matches_kolmogorov_distribution(self):
        t = np.concatenate([np.linspace(0.25, 25.0, 2000), np.geomspace(0.25, 25.0, 500)])
        ours = np.array([kolmogorov_sf(v) for v in t])
        np.testing.assert_allclose(ours, stats.kstwobign.sf(t), rtol=1e-12, atol=0.0)

    def test_pvalue_is_the_series_at_the_scaled_statistic(self):
        x, y = tied_samples(np.random.default_rng(3), 400, 900, 60)
        d, p = ks_two_sample(x, y)
        assert p == kolmogorov_sf(math.sqrt(400 * 900 / 1300) * d)
        assert ks_two_sample(x, x) == (0.0, 1.0)
        assert kolmogorov_sf(0.0) == 1.0
        assert 0.0 < kolmogorov_sf(1.0) < 1.0


class TestReport:
    def test_aggregation(self):
        report = ExperimentReport("demo")
        report.add(exact_check("a", 0.0, 1e-12))
        report.add(se_check("b", 21.0, 4.0, 0.6, 4.0))
        assert not report.failed
        assert [c.name for c in report.flagged] == ["b"]
        payload = report.to_dict()
        assert {c["name"] for c in payload["checks"]} == {"a", "b"}
        assert "arrays" not in payload

    def test_failed_blocks_all_passed(self):
        report = ExperimentReport("demo")
        report.add(CheckResult("bad", "fail"))
        assert report.failed


class TestEmission:
    def test_format_float(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"
        assert format_float(math.nan) == "nan"

    def test_csv_and_json_bytes_stable(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        rows = [[1.5, "x"], [2.25, "y"]]
        write_csv(csv_path, ["v", "k"], rows)
        first = csv_path.read_bytes()
        write_csv(csv_path, ["v", "k"], rows)
        assert csv_path.read_bytes() == first

        json_path = tmp_path / "t.json"
        write_json(json_path, {"b": 1, "a": [1.5, None]})
        payload = json.loads(json_path.read_text())
        assert payload == {"b": 1, "a": [1.5, None]}
        blob = json_path.read_bytes()
        write_json(json_path, {"a": [1.5, None], "b": 1})
        assert json_path.read_bytes() == blob  # key order canonicalized

    @pytest.mark.parametrize(
        "array",
        [
            np.array([[math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 1 / 3]]).T,
            np.array([[math.nan, -math.inf, -0.0, 5e-324], [-math.nan, math.inf, 1e308, 1 / 3]]),
            np.empty((0, 1)),
            np.array([[0.1]]),
            np.random.default_rng(0).standard_normal((65537, 1)),  # crosses a block boundary
            np.random.default_rng(1).standard_normal((5, 3)),
        ],
    )
    def test_float_array_bytes_match_row_route(self, tmp_path, array):
        header = [f"c{i}" for i in range(array.shape[1])]
        write_csv(tmp_path / "blocks.csv", header, array)
        write_csv_by_rows(tmp_path / "rows.csv", header, array)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
