"""Exact cylinder-pair correlation measure on the critical lattice.

The correlation measure assigns an ordered pair of generation-``n`` cylinders
the weight ``(1 + R(r - n))^N / |Gamma_n|^2`` where ``N`` is their shared-edge
count.  Every functional of it used here is a sum over the distribution of
``N``, so instead of enumerating ``|Gamma_n|^2`` pairs (astronomical beyond
n = 3) we recurse on the exact pair-count histogram

    h_0 = {1: 1},
    h_{n+1} = b * (h_n convolved with itself b times)
              + b (b - 1) |Gamma_n|^(2b) at N = 0,

whose two branches are "same top branch" (shared edges add across the b
sub-pairs) and "different top branches" (no shared edges, all sub-paths
free).  Counts are exact big integers; weights are handled in log space.

The conditional histogram (distribution of N against one fixed path) follows
the same split with only the "same top branch" term recursing:

    c_0 = {1: 1},
    c_{n+1} = (c_n convolved with itself b times) + (b - 1) |Gamma_n|^b at N = 0.

It reads nothing of the fixed path but its generation: homogeneity of the
path space makes it path-independent, which the tests verify by enumerating
``shared_edge_count`` against every path of small generations rather than
assume.  Paths enter only as decision arrays (see ``lattice``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import UsageError
from .lattice import LatticeParams, decision_count, path_count_int, shared_edge_count
from .rfunction import VarianceProfile

HISTOGRAM_GENERATION_BUDGET = 16


def _convolve(h1: dict, h2: dict) -> dict:
    out = {}
    for k1, c1 in h1.items():
        for k2, c2 in h2.items():
            key = k1 + k2
            out[key] = out.get(key, 0) + c1 * c2
    return out


@lru_cache(maxsize=None)
def _histogram_counts(b: int, n: int):
    if n == 0:
        return ((1, 1),)
    prev = dict(_histogram_counts(b, n - 1))
    conv = reduce(_convolve, [prev] * b)
    out = {k: b * c for k, c in conv.items()}
    gamma_prev = path_count_int(LatticeParams(b, b), n - 1)
    out[0] = out.get(0, 0) + b * (b - 1) * gamma_prev ** (2 * b)
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class PairCountHistogram:
    """Exact counts of ordered path pairs in Gamma_n x Gamma_n by shared-edge number."""

    params: LatticeParams
    n: int
    counts: tuple  # sorted (N, count) pairs, counts exact ints

    def as_dict(self) -> dict:
        return dict(self.counts)

    def total_pairs(self) -> int:
        return sum(c for _, c in self.counts)

    def moment(self, power: int) -> int:
        """Exact integer sum of N^power over all ordered pairs."""
        return sum(k**power * c for k, c in self.counts)


def pair_count_histogram(params: LatticeParams, n: int) -> PairCountHistogram:
    params.require_critical()
    if n < 0:
        raise UsageError("generation must be >= 0")
    if n > HISTOGRAM_GENERATION_BUDGET:
        raise UsageError(
            f"generation {n} exceeds the histogram budget {HISTOGRAM_GENERATION_BUDGET}"
        )
    return PairCountHistogram(params, n, _histogram_counts(params.b, n))


@lru_cache(maxsize=None)
def conditional_pair_histogram(b: int, n: int):
    """Counts of q in Gamma_n by N_n(p, q) for any fixed p, as sorted (N, count) pairs."""
    params = LatticeParams(b, b)
    if n < 0:
        raise UsageError("generation must be >= 0")
    if n == 0:
        return ((1, 1),)
    prev = dict(conditional_pair_histogram(b, n - 1))
    conv = reduce(_convolve, [prev] * b)
    conv[0] = conv.get(0, 0) + (b - 1) * path_count_int(params, n - 1) ** b
    return tuple(sorted(conv.items()))


def _logsumexp(terms) -> float:
    terms = [t for t in terms if t != -math.inf]
    if not terms:
        return -math.inf
    peak = max(terms)
    return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))


@dataclass(frozen=True)
class CorrelationTable:
    """Correlation-measure weights at parameter r over generation-n cylinder pairs.

    Weights are stored in log space: log w(N) = N log(1 + R(r - n)) - 2 log|Gamma_n|.
    """

    profile: VarianceProfile
    r: float
    n: int
    histogram: PairCountHistogram
    log1p_R_shifted: float  # log(1 + R(r - n))
    log_gamma: float        # log |Gamma_n|

    def log_weight(self, N: int) -> float:
        return N * self.log1p_R_shifted - 2.0 * self.log_gamma

    def weight(self, N: int) -> float:
        return math.exp(self.log_weight(N))


def correlation_table(profile: VarianceProfile, r: float, n: int) -> CorrelationTable:
    params = LatticeParams(profile.b, profile.b)
    hist = pair_count_histogram(params, n)
    return CorrelationTable(
        profile=profile,
        r=r,
        n=n,
        histogram=hist,
        log1p_R_shifted=math.log1p(profile.evaluate_R(r - n)),
        log_gamma=decision_count(params.s, n) * math.log(params.b),
    )


def upsilon_total_mass(table: CorrelationTable) -> float:
    """Total correlation mass; equals 1 + R(r) for every generation n."""
    terms = [
        math.log(c) + k * table.log1p_R_shifted for k, c in table.histogram.counts
    ]
    return math.exp(_logsumexp(terms) - 2.0 * table.log_gamma)


def marginal_check(table: CorrelationTable) -> float:
    """Sum of correlation weights over all q against any one fixed path p.

    Contract: equals (1 + R(r))/|Gamma_n|.
    """
    cond = conditional_pair_histogram(table.profile.b, table.n)
    terms = [math.log(c) + k * table.log1p_R_shifted for k, c in cond]
    return math.exp(_logsumexp(terms) - 2.0 * table.log_gamma)


def rn_log_kernel(profile: VarianceProfile, r: float, a: float, n: int, N: int) -> float:
    """Exact discrete log change-of-parameter kernel between tables at r+a and r.

    K_n^{r,a}(N) = N log[(1 + R(r + a - n)) / (1 + R(r - n))]; for fixed N it
    approaches a kappa^2 N / n^2 as n grows.
    """
    if a < 0:
        raise UsageError("rn_log_kernel requires a >= 0")
    lam = math.log1p(profile.evaluate_R(r + a - n)) - math.log1p(
        profile.evaluate_R(r - n)
    )
    return N * lam


@dataclass(frozen=True)
class LebesgueWeights:
    """Split of the correlation measure into product and singular-candidate parts.

    The product part puts 1/|Gamma_n|^2 on every pair; the rho part puts
    [(1 + R(r-n))^N - 1] / (R(r) |Gamma_n|^2), vanishing exactly when N = 0
    and totalling one.
    """

    table: CorrelationTable
    R_r: float

    @property
    def product_log_weight(self) -> float:
        return -2.0 * self.table.log_gamma

    def rho_log_weight(self, N: int) -> float:
        if N == 0:
            return -math.inf
        lw = math.log(math.expm1(N * self.table.log1p_R_shifted))
        return lw - math.log(self.R_r) - 2.0 * self.table.log_gamma

    def rho_total(self) -> float:
        terms = [
            math.log(c) + self.rho_log_weight(k)
            for k, c in self.table.histogram.counts
            if k > 0
        ]
        return math.exp(_logsumexp(terms))


def lebesgue_decomposition_weights(table: CorrelationTable) -> LebesgueWeights:
    R_r = table.profile.evaluate_R(table.r)
    if R_r <= 0:
        raise UsageError("Lebesgue split requires R(r) > 0")
    return LebesgueWeights(table, R_r)


def kernel_marginal_identity_check(profile: VarianceProfile, r: float, n: int):
    """Discrete marginal identity for the kernel-weighted correlation measure.

    lhs = sum_q N_n(p,q) (1 + R(r-n))^(N-1) R'(r-n) / |Gamma_n|^2  (the
    derivative in the parameter shift at zero of the marginal against any
    fixed p); rhs = R'(r)/|Gamma_n|.  Both shrink like 1/|Gamma_n|, so
    callers should compare them in relative terms.
    """
    R_shift, Rp_shift = profile.evaluate_pair(r - n)
    log_gamma = decision_count(profile.b, n) * math.log(profile.b)
    lu = math.log1p(R_shift)
    terms = [
        math.log(k) + math.log(c) + (k - 1) * lu
        for k, c in conditional_pair_histogram(profile.b, n)
        if k > 0
    ]
    lhs = math.exp(math.log(Rp_shift) + _logsumexp(terms) - 2.0 * log_gamma)
    rhs = profile.evaluate_R_prime(r) * math.exp(-log_gamma)
    return lhs, rhs


def upsilon_pair_matrix(table: CorrelationTable, support) -> np.ndarray:
    """Correlation weights for all pairs of a (count, d_n) path array (small supports only)."""
    support = np.asarray(support)
    params = LatticeParams(table.profile.b, table.profile.b)
    N = shared_edge_count(params, table.n, support[:, None], support[None])
    return np.exp(N * table.log1p_R_shifted - 2.0 * table.log_gamma)
