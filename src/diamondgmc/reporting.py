"""Check results, experiment reports, and tabular emission helpers."""

from __future__ import annotations

import csv
import functools
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
# held by the pass: a 48-byte text row and a few 8-byte work arrays per value.
CSV_BLOCK_ROWS = 16384

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
        }


def format_float(x: float) -> str:
    """CSV float format: '.'-decimal, 17 significant digits."""
    return f"{x:.17g}"


# ``%.17g`` of a float64 array without a Python float per value.  A value x
# with 1e-4 <= |x| < 1e17 has decimal exponent X in -4..16 and is printed in
# fixed notation from its 17 significant digits, the integer nearest
# |x| 10^(16 - X) with ties to even.  10^0..10^20 are exact doubles, so
# Dekker's two-product gives that scaled value exactly as p + e.  p lies in
# [2^53, 2^57) and is therefore an even integer, so D = p + rint(e) rounds
# exactly as ``%.17g`` does.  No carry to 10^17 is possible: the double below
# a power of ten lies further from it than half a unit of the 17th digit.
# Every other value (zeros, non-finite values and those ``%.17g`` writes with
# an exponent) is written by :func:`format_float`.
#
# Each value becomes a 48-byte row of six uint64 words, and every NUL byte is
# dropped at the end:
#   word 0     sign, the "0.000" prefix of X < 0, digit 0 and its slot;
#   words 1-4  digits 1-16, 4 to a word, each followed by its slot;
#   word 5     the separator, "," or CRLF.
# The slot after digit X holds the "." when a fraction digit follows, and
# trailing fraction zeros are NUL.  The digits come from a 10 000-entry
# table of 4-digit words.

_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_POW10 = np.array([float(10**k) for k in range(21)])


def _split(a):
    """Veltkamp's split: ``a == hi + lo`` exactly, each half of at most 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


@functools.cache
def _text_words():
    """The lookup words of :func:`_csv_text`, built on its first call.

    Built lazily so that commands which write no float array neither spend
    the time nor hold the memory at import.
    """
    g = np.arange(10000, dtype=np.int32)
    quads = np.zeros((10000, 8), np.uint8)  # a 4-digit group, a NUL slot after each digit
    quads[:, 0::2] = g[:, None] // np.array([1000, 100, 10, 1], np.int32) % 10 + ord("0")
    # [shown]: the mask that keeps the first `shown` digits of such a word
    keep = np.array([b"\xff\0" * shown for shown in range(5)], dtype="S8")
    trailing_zeros = sum((g % 10**k == 0).astype(np.int32) for k in range(1, 5))
    head = np.array(  # [negative, min(X, 0) + 4, first digit]
        [
            (sign + ("0.000"[: 1 - x] if x < 0 else "").ljust(5, "\0") + str(d)).encode()
            for sign in "\0-"
            for x in range(-4, 1)
            for d in range(10)
        ],
        dtype="S8",
    )
    quads, keep, head = (table.view(np.uint64).reshape(-1) for table in (quads, keep, head))
    for table in (quads, keep, trailing_zeros, head):
        table.flags.writeable = False  # every caller shares the cached tables
    comma, crlf = np.array([b",", b"\r\n"], dtype="S8").view(np.uint64)
    return quads, keep, trailing_zeros, head, comma, crlf


_QUAD_FIRST_DIGIT = (1, 5, 9, 13)  # each word's first digit


def _scaled(a, X):
    """``(p, e)`` with ``p + e == a * 10**(16 - X)`` exactly (Dekker's two-product)."""
    k = 16 - X
    b, b_hi, b_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    p = a * b
    a_hi, a_lo = _split(a)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _csv_text(block) -> bytes:
    """A 2-D float64 ``block`` as CSV rows with CRLF ends, each value as ``%.17g``."""
    quads, keep, trailing_zeros, head, comma, crlf = _text_words()
    x = block.ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)  # false for nan
    a = np.where(fixed, a, 1.0)
    # log10 may land one off near a power of ten; one recomputation settles X
    X = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    p, e = _scaled(a, X)
    off = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.int64)
    off -= (p < 1e16) | ((p == 1e16) & (e < 0))
    redo = np.flatnonzero(off)
    X[redo] += off[redo]
    p[redo], e[redo] = _scaled(a[redo], X[redo])
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)

    high = D // 10**8
    low = D - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    g1, g3 = high // 10**4, low // 10**4
    groups = (g1, high - g1 * 10**4, g3, low - g3 * 10**4)
    zeros = trailing_zeros[g1]
    for g in groups[1:]:
        zeros = np.where(g == 0, zeros + 4, trailing_zeros[g])
    shown = np.maximum(17 - zeros, X + 1)  # the significant digits and the integer part

    text = np.empty((x.size, 6), np.uint64)
    text[:, 0] = head[(np.signbit(x) * 5 + np.minimum(X, 0) + 4) * 10 + first]
    for j, g in enumerate(groups):
        text[:, 1 + j] = quads[g] & keep[np.clip(shown - _QUAD_FIRST_DIGIT[j], 0, 4)]
    dot = np.flatnonzero((X >= 0) & (shown > X + 1))
    text.view(np.uint8).reshape(-1)[dot * 48 + 7 + 2 * X[dot]] = ord(".")
    cells = text.reshape(*block.shape, 6)
    cells[:, :-1, 5] = comma
    cells[:, -1, 5] = crlf
    other = np.flatnonzero(~fixed)
    other_text = np.array([format_float(v).encode() for v in x[other].tolist()], dtype="S40")
    text.view(np.uint8).reshape(-1, 48)[other, :40] = other_text.view(np.uint8).reshape(-1, 40)
    return text.tobytes().translate(None, b"\0")


def write_csv(path, header, rows):
    """Write a header and rows as CSV with CRLF line ends.

    Floats are written by :func:`format_float`.  A 2-D float64 array is
    written a block of rows at a time by an exact ``%.17g`` kernel in numpy,
    which writes the same bytes as the row-by-row ``csv.writer`` route.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if (
            isinstance(rows, np.ndarray)
            and rows.ndim == 2
            and rows.dtype == np.float64
            and rows.shape[1]
        ):
            for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
                fh.write(_csv_text(rows[start : start + CSV_BLOCK_ROWS]).decode("ascii"))
            return
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else v for v in row]
            )


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
