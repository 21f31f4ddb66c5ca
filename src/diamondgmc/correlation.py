"""Exact cylinder-pair correlation measure on the critical lattice.

The correlation measure assigns an ordered pair of generation-``n`` cylinders
the weight ``(1 + R(r - n))^N / |Gamma_n|^2`` where ``N`` is their shared-edge
count.  Every functional of it used here is a sum over the distribution of
``N``, so instead of enumerating ``|Gamma_n|^2`` pairs (astronomical beyond
n = 3) we recurse on one exact histogram, the conditional one: the number
c_n(k) of paths q in Gamma_n with N(p, q) = k for a fixed p,

    c_0 = {1: 1},
    c_{n+1} = (c_n convolved with itself b times) + (b - 1) |Gamma_n|^b at N = 0,

whose two branches are "q takes p's top branch" (shared edges add across the
b segments) and "q takes one of the b - 1 others" (no shared edge, all b
sub-paths free).  It reads nothing of p but its generation: homogeneity of
the path space makes it path-independent, which the tests verify rather
than assume, by counting shared edges between every pair of paths of small
generations.

Summing over p, the pair-count histogram over Gamma_n x Gamma_n is
H_n = |Gamma_n| c_n exactly.  The same follows by induction from the pair
recursion H_{n+1} = b H_n^{*b} + b (b - 1) |Gamma_n|^(2b) at N = 0: with
G_n = |Gamma_n| and G_{n+1} = b G_n^b, H_n = G_n c_n gives
H_n^{*b} = G_n^b c_n^{*b}, so G_{n+1} c_{n+1} = b G_n^b c_n^{*b} +
b (b - 1) G_n^(2b) at N = 0, which is H_{n+1}.  The pair recursion, on
counts with twice the digits, is kept only as a test oracle.  Sums over
pairs run over c_n and divide by |Gamma_n| once; H_n itself is formed only
where pair counts are output.  Counts are exact big integers; weights are
handled in log space.  No path is enumerated.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import HISTOGRAM_EDGE_BUDGET, DomainError, RangeError, UsageError, check_budget
from .lattice import LatticeParams, decision_count, path_count_int
from .rfunction import VarianceProfile

_MASS_LOG_WINDOW = 80.0
_MASS_COUNT_BITS = 112
_MASS_CONTEXT = decimal.Context(30, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _slot_width(total: int, b: int) -> int:
    """Decimal digits of one packed slot of ``_power`` for counts summing to ``total``."""
    return len(str(total**b)) + 1


def _power(h: dict, b: int) -> dict:
    """h convolved with itself b times, by Kronecker substitution.

    The keys share a divisor g (b at every generation n >= 1), so the count
    at key k goes to slot k / g of one integer in base 10^width.  Each count
    of the b-th power is at most (sum of h)^b < 10^(width - 1), so its slot
    never carries into the next one, and the context traps any rounding.
    The carrier is a Decimal because libmpdec multiplies large operands by
    number-theoretic transform, where Python ints stop at Karatsuba.
    """
    g = reduce(math.gcd, h)
    top = max(h) // g
    width = _slot_width(sum(h.values()), b)
    slots = ["0" * width] * (top + 1)
    for k, c in h.items():
        slots[top - k // g] = str(c).zfill(width)
    size = b * top + 1
    ctx = decimal.Context(
        prec=width * size, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
    )
    digits = str(ctx.power(decimal.Decimal("".join(slots)), b)).zfill(width * size)
    out = {}
    for e in range(size):
        c = int(digits[(size - 1 - e) * width : (size - e) * width])
        if c:
            out[g * e] = c
    return out


def pair_count_histogram(params: LatticeParams, n: int) -> tuple:
    """Exact counts of ordered path pairs in Gamma_n x Gamma_n by shared-edge
    number N, as sorted (N, count) pairs."""
    params.require_critical()
    gamma = path_count_int(params, n)
    return tuple((k, gamma * c) for k, c in conditional_pair_histogram(params.b, n))


@lru_cache(maxsize=None)
def conditional_pair_histogram(b: int, n: int):
    """Counts of q in Gamma_n by N_n(p, q) for any fixed p, as sorted (N, count) pairs."""
    params = LatticeParams(b, b)
    if n < 0:
        raise UsageError("generation must be >= 0")
    feasible = 0  # the largest generation whose b^n path edges fit the budget
    while b ** (feasible + 1) <= HISTOGRAM_EDGE_BUDGET:
        feasible += 1
    # compared as generations n: b^n itself is astronomical at a large n
    check_budget(f"pair histogram at b = {b} (b^n <= {HISTOGRAM_EDGE_BUDGET} path edges)", n,
                 feasible, f"largest feasible n at b = {b} is {feasible}")
    if n == 0:
        return ((1, 1),)
    conv = _power(dict(conditional_pair_histogram(b, n - 1)), b)
    conv[0] = conv.get(0, 0) + (b - 1) * path_count_int(params, n - 1) ** b
    return tuple(sorted(conv.items()))


@dataclass(frozen=True)
class CorrelationTable:
    """Correlation-measure weights at parameter r over generation-n cylinder pairs.

    Weights are stored in log space: log w(N) = N log(1 + R(r - n)) - 2 log|Gamma_n|.
    Sums over pairs run over the conditional histogram c_n, since the pair
    counts are H_n = |Gamma_n| c_n.
    """

    profile: VarianceProfile
    r: float
    n: int
    conditional: tuple  # c_n as sorted (N, count) pairs, counts exact ints
    R_shifted: float  # R(r - n)
    log_gamma: float  # log |Gamma_n|

    @property
    def log1p_R_shifted(self) -> float:
        return math.log1p(self.R_shifted)

    def log_weight(self, N: int) -> float:
        return N * self.log1p_R_shifted - 2.0 * self.log_gamma


def correlation_table(profile: VarianceProfile, r: float, n: int) -> CorrelationTable:
    params = LatticeParams(profile.b, profile.b)
    return CorrelationTable(
        profile=profile,
        r=r,
        n=n,
        conditional=conditional_pair_histogram(profile.b, n),
        R_shifted=profile.evaluate_R(r - n),
        log_gamma=decision_count(params.s, n) * math.log(params.b),
    )


def _conditional_mass(table: CorrelationTable, tilt: float, paths: int) -> decimal.Decimal:
    """sum_k c_n(k) ((1 + R(r - n)) e^tilt)^k / |Gamma_n|^paths, to 30 digits.

    Summed in 30-digit ``decimal`` from the table's float R(r - n).  In
    doubles each log-space term log c_k + k log(1 + R) - paths log|Gamma_n|
    cancels logs of size up to 2 log|Gamma_n| (about 7207 at b = 3, n = 8),
    whose rounding alone reaches 1.6e-12 relative.  Those float logs do
    suffice to pick the terms: only the ones within ``_MASS_LOG_WINDOW`` of
    the largest enter the sum, and the rest, each below e^-80 of it, cannot
    move 30 digits.  A count enters as its leading ``_MASS_COUNT_BITS`` bits
    times 2^s, under 2e-34 relative from the full count, whose conversion
    is slow (2466 digits at b = 2, n = 13).
    """
    b, D = table.profile.b, decimal.Decimal
    counts = table.conditional
    step_f = math.log1p(table.R_shifted) + tilt
    logs = [math.log(c) + k * step_f for k, c in counts]
    floor = max(logs) - _MASS_LOG_WINDOW
    with decimal.localcontext(_MASS_CONTEXT):
        x = ((1 + D(table.R_shifted)).ln() + D(tilt)).exp()
        total = D(0)
        for (k, c), log in zip(counts, logs):
            if log >= floor:
                s = max(0, c.bit_length() - _MASS_COUNT_BITS)
                total += D(c >> s) * D(2) ** s * x**k
        return total / D(b) ** (decision_count(b, table.n) * paths)


def histogram_mass(table: CorrelationTable, tilt: float = 0.0) -> float:
    """Total correlation mass with each weight tilted by e^(tilt N).

    sum_k H_n(k) ((1 + R(r - n)) e^tilt)^k / |Gamma_n|^2, formed as the sum
    over c_n divided by |Gamma_n| once.
    """
    return float(_conditional_mass(table, tilt, 1))


def marginal_check(table: CorrelationTable) -> float:
    """Sum of correlation weights over all q against any one fixed path p.

    Contract: equals (1 + R(r))/|Gamma_n|.
    """
    return float(_conditional_mass(table, 0.0, 2))


def edge_weight(profile: VarianceProfile, r: float, a: float, n: int) -> float:
    """Exact-discrete chaos edge weight: the log change-of-parameter kernel per shared edge.

    lam = log[(1 + R(r + a - n)) / (1 + R(r - n))]; the kernel between the
    generation-n tables at r + a and r is K_n^{r,a}(N) = N lam, and for
    fixed N it approaches a kappa^2 N / n^2 as n grows.
    """
    if a < 0:
        raise DomainError("kernel coupling requires a >= 0")
    if n < 1:
        raise UsageError("kernel needs generation >= 1")
    return math.log1p(profile.evaluate_R(r + a - n)) - math.log1p(profile.evaluate_R(r - n))


def rho_total(table: CorrelationTable) -> float:
    """Total of the rho part of the Lebesgue split of the correlation measure.

    The product part puts 1/|Gamma_n|^2 on every pair; rho puts
    [(1 + R(r-n))^N - 1] / (R(r) |Gamma_n|^2), vanishing exactly when N = 0
    and totalling one.  Its total is sum_k c_n(k) ((1 + R)^k - 1) /
    (|Gamma_n| R(r)) with R = R(r - n), summed in ``decimal`` term by term:
    as S / |Gamma_n| - 1 for S = sum_k c_n(k) (1 + R)^k it would cancel to
    nothing once 30 digits of 1 + R round R away (R below about 1e-30).
    The context carries as many more digits as R has leading zeros, so each
    (1 + R)^k - 1 keeps 30 digits of its own.
    """
    R_r = table.profile.evaluate_R(table.r)
    if R_r <= 0:
        raise UsageError("Lebesgue split requires R(r) > 0")
    b, D = table.profile.b, decimal.Decimal
    R = D(table.R_shifted)
    with decimal.localcontext(_MASS_CONTEXT) as ctx:
        ctx.prec += max(0, -R.adjusted())
        x = 1 + R
        total = sum(c * (x**k - 1) for k, c in table.conditional)
        return float(total / D(b) ** decision_count(b, table.n) / D(R_r))


def kernel_marginal_identity_check(profile: VarianceProfile, r: float, n: int):
    """Discrete marginal identity for the kernel-weighted correlation measure.

    lhs = sum_q N_n(p,q) (1 + R(r-n))^(N-1) R'(r-n) / |Gamma_n|^2  (the
    derivative in the parameter shift at zero of the marginal against any
    fixed p); rhs = R'(r)/|Gamma_n|.  Returns (log lhs, log rhs): both shrink
    like 1/|Gamma_n| and leave double range (|Gamma_7| = 3^1093 for b = 3),
    so callers compare them as |expm1(log lhs - log rhs)|.
    """
    R_shift, Rp_shift = profile.evaluate_pair(r - n)
    if Rp_shift == 0:
        raise RangeError(f"R' underflows double precision at r - n = {r - n} (b={profile.b})")
    log_gamma = decision_count(profile.b, n) * math.log(profile.b)
    lu = math.log1p(R_shift)
    terms = [
        math.log(k) + math.log(c) + (k - 1) * lu
        for k, c in conditional_pair_histogram(profile.b, n)
        if k > 0
    ]
    peak = max(terms)  # every term is finite, and k = 1 always has one
    log_sum = peak + math.log(math.fsum(math.exp(t - peak) for t in terms))
    log_lhs = math.log(Rp_shift) + log_sum - 2.0 * log_gamma
    log_rhs = math.log(profile.evaluate_R_prime(r)) - log_gamma
    return log_lhs, log_rhs

