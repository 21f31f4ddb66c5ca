"""Check results, experiment reports, and tabular emission helpers."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

SEEDING_BIAS_NOTE = (
    "systematic-uncertainty: populations are seeded at a finite base level with a "
    "surrogate mean-one law; cross-seed comparisons bound the residual seeding bias "
    "but cannot eliminate it."
)

# Rows per formatting pass when writing a float array, to bound the memory
# held by the formatted text and the Python floats behind it.
CSV_BLOCK_ROWS = 65536

# Moment estimates whose standard error exceeds this fraction of the estimate
# are reported as MC-unreliable rather than pass/fail.
SE_RELIABILITY_RATIO = 0.10


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str  # 'pass' | 'fail' | 'flagged'
    target: "float | None" = None
    estimate: "float | None" = None
    se: "float | None" = None
    tolerance: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def exact_check(name: str, deviation: float, tol: float, detail: str = "") -> CheckResult:
    verdict = "pass" if abs(deviation) <= tol else "fail"
    return CheckResult(
        name,
        verdict,
        target=0.0,
        estimate=deviation,
        tolerance=f"|dev| <= {tol:g}",
        detail=detail,
    )


def mean_se(values) -> tuple:
    """Sample mean of ``values`` and its standard error std(ddof=1)/sqrt(size)."""
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def se_check(
    name: str,
    target: float,
    estimate: float,
    se: float,
    multiplier: float,
    detail: str = "",
    floor: float = 0.0,
) -> CheckResult:
    """Statistical check: pass within multiplier*SE, flagged when MC-unreliable.

    ``floor`` is the estimator's exact SE where the caller knows the law.  A
    heavy-tailed estimator's sample SE understates it, so when ``floor`` is
    above the reliability ratio of the estimate (or not finite) the check is
    flagged whatever the sample says.
    """
    within = abs(estimate - target) <= multiplier * se
    unreliable = (
        not math.isfinite(se)
        or estimate == 0
        or se / abs(estimate) > SE_RELIABILITY_RATIO
    )
    law_unreliable = not math.isfinite(floor) or floor > SE_RELIABILITY_RATIO * abs(estimate)
    if law_unreliable:
        verdict = "flagged"
    elif within:
        verdict = "pass"
    elif unreliable:
        verdict = "flagged"
    else:
        verdict = "fail"
    extra = f"z = {abs(estimate - target) / se:.2f}" if se > 0 else "se = 0"
    if unreliable:
        extra += "; SE/estimate above reliability ratio"
    if law_unreliable:
        extra += f"; law SE {floor:.3g} above reliability ratio"
    return CheckResult(
        name,
        verdict,
        target=target,
        estimate=estimate,
        se=se,
        tolerance=f"|est - target| <= {multiplier:g}*SE",
        detail=(detail + "; " if detail else "") + extra,
    )


@dataclass
class ExperimentReport:
    name: str
    checks: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    # raw sample arrays for CSV emission; not serialized into the JSON report
    arrays: dict = field(default_factory=dict, repr=False)

    def add(self, check: CheckResult):
        self.checks.append(check)

    @property
    def failed(self) -> list:
        return [c for c in self.checks if c.verdict == "fail"]

    @property
    def flagged(self) -> list:
        return [c for c in self.checks if c.verdict == "flagged"]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checks": [c.to_dict() for c in self.checks],
            "diagnostics": self.diagnostics,
            "notes": list(self.notes),
            "provenance": self.provenance,
        }


def format_float(x: float) -> str:
    """CSV float format: '.'-decimal, 17 significant digits."""
    return f"{x:.17g}"


def write_csv(path, header, rows):
    """Write a header and rows as CSV with CRLF line ends.

    Floats are written by :func:`format_float`.  A 2-D float64 array is
    formatted a block of rows at a time with one ``%`` operation per block,
    which writes the same bytes as the row-by-row ``csv.writer`` route.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
            for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
                block = rows[start : start + CSV_BLOCK_ROWS]
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
            return
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else v for v in row]
            )


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
