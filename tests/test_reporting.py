import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import write_csv_by_rows
from diamondgmc.reporting import (
    CSV_BLOCK_ROWS,
    CheckResult,
    ExperimentReport,
    exact_check,
    format_float,
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
            np.random.default_rng(0).standard_normal((65537, 1)),  # crosses block boundaries
            np.random.default_rng(1).standard_normal((5, 3)),
            np.empty((3, 0)),
            # every power of ten from 1e-8 to 1e19 and its ulp neighbours, both signs
            np.array([
                sign * np.nextafter(float(f"1e{k}"), toward)
                for k in range(-8, 20)
                for toward in (0.0, float(f"1e{k}"), math.inf)
                for sign in (1.0, -1.0)
            ])[:, None],
            # the edges of fixed notation; 2^53 and 2^53 + 2, the first doubles 2 apart
            np.array([[1e-4, np.nextafter(1e-4, 0.0), 99999999999999984.0, 1e17,
                       2.0**53, 2.0**53 + 2]]).T,
            # exact ties at the 17th digit, rounding to even both ways
            np.array([[1 + 2**-17, 1 + 3 * 2**-17, -(1 + 2**-17), 1e15 + 0.25, 1e15 + 0.75]]).T,
            # trailing zeros in the integer part, short decimals
            np.array([[1e16, 901558.0, 100.0, -100.0, 0.5, 1.25, 0.1, -0.001]]).T,
            np.array([[5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, -1e-320]]).T,
            np.random.default_rng(2)
            .integers(0, 2**64, 200_000, dtype=np.uint64)
            .view(np.float64)[:, None],
            # strong-disorder writes a transposed (realizations, grid) array
            np.random.default_rng(3).lognormal(0.0, 3.0, (3, CSV_BLOCK_ROWS + 1)).T,
        ],
    )
    def test_float_array_bytes_match_row_route(self, tmp_path, array):
        header = [f"c{i}" for i in range(array.shape[1])]
        write_csv(tmp_path / "blocks.csv", header, array)
        write_csv_by_rows(tmp_path / "rows.csv", header, array)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(1, 4)),
            elements=st.floats(),
        )
    )
    def test_float_array_bytes_match_row_route_property(self, tmp_path_factory, array):
        path = tmp_path_factory.mktemp("csv")
        header = [f"c{i}" for i in range(array.shape[1])]
        write_csv(path / "blocks.csv", header, array)
        write_csv_by_rows(path / "rows.csv", header, array)
        assert (path / "blocks.csv").read_bytes() == (path / "rows.csv").read_bytes()

    def test_float_array_write_memory_is_a_few_blocks(self, tmp_path):
        array = np.random.default_rng(4).lognormal(0.0, 1.0, (1_000_000, 1))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "totals.csv", ["total"], array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's text rows are 16384 x 48 bytes; the whole text would be 48 MB
        assert peak < 8 * 2**20
