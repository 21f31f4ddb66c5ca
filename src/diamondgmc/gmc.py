"""Finite-dimensional Gaussian multiplicative chaos on the cascade's leaf tree.

The intersection kernel on generation-``n`` cylinders counts shared edges:
with per-edge weight ``lam``, K(p, q) = lam * N_n(p, q), and the Gaussian
field W(p) = sqrt(lam) * sum_{e in p} g_e carries one standard normal per
edge.  References come from the cascade as leaf masses ``l_e`` in edge order,
with M(p) = b^(-d_n) prod_{e in p} l_e, so the chaos reweighting

    M(p) exp(W(p) - K(p, p)/2) = b^(-d_n) prod_{e in p} l_e exp(sqrt(lam) g_e - lam/2)

is again a product over edges: a chaos realization is the leaf vector
``l * exp(sqrt(lam) g - lam/2)``, and its total mass is the tree reduction
T = (1/b) sum_i prod_j T_ij.  Every functional used here is a recursion on
the same tree, at O(b^(2n)) cost per draw:

* integer moments E[T^m] (Kahane): leaf value l^m exp(lam m (m-1)/2);
  segments in series multiply and independent branches combine binomially.
  m = 2 is the conditional quadratic form sum exp(K(p, q)) M(p) M(q);
* edge marginals m_e, the mass of the cylinders through e, from one upward
  and one downward pass; t(p) = (K M)(p) = lam sum_{e in p} m_e and
  theta = M . K M = lam sum_e m_e^2.

Two edge-weight modes are exposed.  exact-discrete,
lam = log[(1 + R(r + a - n)) / (1 + R(r - n))], makes every finite-n
correlation identity exact: reweighting the generation-n correlation measure
at parameter r by exp(K) gives the one at r + a.  asymptotic,
lam = a * kappa^2 / n^2, matches the limiting intersection kernel and is
used for the strong-disorder bound.  The exact-discrete weight depends only
on (r - n, a), so the level-n construction at r + 1 and the level-(n-1)
construction at r share one edge weight; that is what makes the composite
(renormalized) construction agree weight-by-weight with the single-level
one, mirroring the hierarchical decomposition of the kernel operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .cascade import (
    SeedSpec,
    assemble,
    default_leaf_population,
    sample_measure_batch,
    simulate_mass_law,
    substream,
    tree_total,
    upsilon_combine,
)
from .errors import DomainError, RangeError, UsageError
from .lattice import LatticeParams, decision_count, path_count_int
from .rfunction import VarianceProfile, kappa_sq
from .reporting import (
    SEEDING_BIAS_NOTE,
    CheckResult,
    ExperimentReport,
    exact_check,
    se_check,
)

KERNEL_MODES = ("exact-discrete", "asymptotic")

# Stream realm for chaos gaussians (cascade uses 0..2).
_REALM_GMC = 3
_REALM_DIRECT = 4


def edge_weight(profile: VarianceProfile, r: float, a: float, n: int, mode: str) -> float:
    if mode not in KERNEL_MODES:
        raise UsageError(f"unknown kernel mode {mode!r}; choose from {KERNEL_MODES}")
    if a < 0:
        raise DomainError("kernel coupling requires a >= 0")
    if n < 1:
        raise UsageError("kernel needs generation >= 1")
    if mode == "exact-discrete":
        return math.log1p(profile.evaluate_R(r + a - n)) - math.log1p(
            profile.evaluate_R(r - n)
        )
    return a * kappa_sq(profile.b) / n**2


def _edge_factors(lam: float, g: np.ndarray) -> np.ndarray:
    """Chaos edge factors exp(sqrt(lam) g_e - lam/2), computed in place of ``g``."""
    g *= math.sqrt(lam)
    g -= 0.5 * lam
    return np.exp(g, out=g)


def chaos_totals(
    leaves, b: int, lam: float, rng: np.random.Generator, draws: int
) -> np.ndarray:
    """Totals of ``draws`` chaos reweightings of one reference leaf vector.

    The gaussians are drawn as one (edges, draws) array.
    """
    leaves = np.asarray(leaves, dtype=float)
    weights = _edge_factors(lam, rng.standard_normal((leaves.size, draws)))
    weights *= leaves[:, None]
    return tree_total(weights, b)


@dataclass
class GmcRealization:
    """One chaos reweighting of reference leaf masses (edge order)."""

    leaves: np.ndarray
    b: int
    edge_weight: float
    gaussian: np.ndarray
    weights: np.ndarray  # chaos leaf weights

    @property
    def total(self) -> float:
        return float(tree_total(self.weights, self.b))


def sample_gmc(leaves, b: int, lam: float, rng: np.random.Generator) -> GmcRealization:
    """Draw one standard normal per edge and form the reweighted leaves."""
    leaves = np.asarray(leaves, dtype=float)
    edges = b * b
    while edges < leaves.size:
        edges *= b * b
    if leaves.ndim != 1 or edges != leaves.size:
        raise UsageError(
            f"reference has shape {leaves.shape}; leaves of a generation-n tree "
            f"number (b^2)^n for b = {b}"
        )
    if lam < 0:
        raise DomainError(f"per-edge weight must be >= 0, got {lam}")
    g = rng.standard_normal(leaves.size)
    weights = leaves * _edge_factors(lam, g.copy())
    if not np.all(np.isfinite(weights)):
        raise RangeError("chaos weights overflowed double precision")
    return GmcRealization(leaves, b, lam, g, weights)


def shift_field(realization: GmcRealization, phi) -> GmcRealization:
    """Rebuild the realization from the shifted field g + phi.

    Deterministic contract: the leaf weights of the result equal the original
    ones multiplied by exp(sqrt(lam) phi) exactly (up to rounding), so every
    cylinder weight is multiplied by exp(sqrt(lam) sum_{e in p} phi_e).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != realization.gaussian.shape:
        raise UsageError(
            f"shift has length {phi.size}, expected {realization.gaussian.size} edges"
        )
    g = realization.gaussian + phi
    weights = realization.leaves * _edge_factors(realization.edge_weight, g.copy())
    return GmcRealization(realization.leaves, realization.b, realization.edge_weight, g, weights)


def cameron_martin_density(phi, g) -> float:
    """<g, phi> - ||phi||^2 / 2, the log of the shifted-field likelihood ratio at g.

    Returned in log form: with one Gaussian per edge the ratio itself
    underflows to 0 from a few thousand edges on.
    """
    phi = np.asarray(phi, dtype=float)
    g = np.asarray(g, dtype=float)
    return float(g @ phi) - 0.5 * float(phi @ phi)


def kahane_moment(leaves, b: int, lam: float, m: int = 2) -> float:
    """Exact E[T^m] of the chaos total over reference leaves.

    Equals sum over m-tuples of cylinders of prod M(p_k) exp(sum_{k<l} K(p_k, p_l));
    m = 2 is the conditional quadratic form.  Carries the moments 0..m of
    every node up the tree.
    """
    if m < 1:
        raise UsageError("moment order must be >= 1")
    k = np.arange(m + 1)
    moments = np.asarray(leaves, dtype=float)[:, None] ** k * np.exp(0.5 * lam * k * (k - 1))
    binom = [[math.comb(kk, r) for r in range(kk + 1)] for kk in range(m + 1)]
    while moments.shape[0] > 1:
        branches = moments.reshape(-1, b, b, m + 1).prod(axis=2)
        acc = branches[:, 0]
        for i in range(1, b):
            x = branches[:, i]
            acc = np.stack(
                [
                    sum(binom[kk][r] * acc[:, r] * x[:, kk - r] for r in range(kk + 1))
                    for kk in range(m + 1)
                ],
                axis=-1,
            )
        moments = acc / float(b) ** k
    return float(moments[0, m])


def _sibling_products(x: np.ndarray) -> np.ndarray:
    """prod_{j' != j} x[..., j'] for every j, without dividing by x[..., j]."""
    ones = np.ones_like(x[..., :1])
    before = np.cumprod(np.concatenate([ones, x[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([ones, x[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    return before * after


def edge_marginals(leaves, b: int) -> np.ndarray:
    """m_e = sum_{p through e} M(p), in edge order.

    The upward pass keeps every node total; the downward pass carries the
    mass factor outside each node, (1/b) prod_{j' != j} T_ij' per level.
    """
    levels = [np.asarray(leaves, dtype=float)]
    while levels[-1].size > 1:
        levels.append(levels[-1].reshape(-1, b, b).prod(axis=2).sum(axis=1) / b)
    outside = np.ones(1)
    for totals in reversed(levels[:-1]):
        siblings = _sibling_products(totals.reshape(-1, b, b))
        outside = (outside[:, None, None] * siblings / b).reshape(-1)
    return outside * levels[0]


def theta_recursion(leaves, b: int, lam: float) -> float:
    """theta = M . K M by the upward recursion theta = sum_ij theta_ij prod_{j' != j} T_ij'^2 / b^2.

    Leaf value lam * l^2; independent of the edge marginals, so the two
    routes audit each other.
    """
    totals = np.asarray(leaves, dtype=float)
    theta = lam * totals**2
    while totals.size > 1:
        grouped = totals.reshape(-1, b, b)
        theta = (theta.reshape(-1, b, b) * _sibling_products(grouped) ** 2).sum(axis=(1, 2)) / b**2
        totals = grouped.prod(axis=2).sum(axis=1) / b
    return float(theta[0])


def half_moment_log_bounds(leaves, b: int, lam: float, r_grid) -> np.ndarray:
    """Log of the half-moment bound (sum_p exp(-sqrt(r) t(p)) M0(p))^(1/2) exp(theta/2).

    The sum is the tree total of l exp(-sqrt(r) lam m); in log space the
    bound stays finite where exp(theta/2) leaves double range.
    """
    leaves = np.asarray(leaves, dtype=float)
    marginals = edge_marginals(leaves, b)
    theta = lam * float(marginals @ marginals)
    sums = [
        float(tree_total(leaves * np.exp(-math.sqrt(r) * lam * marginals), b))
        for r in r_grid
    ]
    return np.array([0.5 * (math.log(s) if s > 0 else -math.inf) + 0.5 * theta for s in sums])


def _cluster_moment(per_cluster_means: np.ndarray):
    est = float(per_cluster_means.mean())
    se = float(per_cluster_means.std(ddof=1) / math.sqrt(per_cluster_means.size))
    return est, se


def _pooled_moments(totals: np.ndarray, powers=(1, 2, 3)):
    """Cluster-robust moment estimates from a (realizations, draws) array."""
    out = {}
    for k in powers:
        out[k] = _cluster_moment((totals**k).mean(axis=1))
    return out


def _direct_moments(masses: np.ndarray, powers=(1, 2, 3)):
    out = {}
    for k in powers:
        vals = masses**k
        out[k] = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size)))
    return out


def conditional_gmc_experiment(
    profile: VarianceProfile,
    r: float,
    a: float,
    n: int,
    depth: int,
    realizations: int,
    draws: int,
    master_seed: int,
    seed_spec: "SeedSpec | None" = None,
    leaf_pop_size: int = 1_000_000,
    direct_size: "int | None" = None,
    big_direct_size: int = 1_000_000,
    mode: str = "exact-discrete",
) -> ExperimentReport:
    """Chaos-over-random-reference composition experiment.

    For each of ``realizations`` references at (r, n), draw ``draws``
    conditional chaos realizations with the (r, a, n) kernel and pool the
    total masses.  Checks:

    * conditional layer -- per reference, the Monte Carlo second moment of
      the chaos totals against the exact quadratic form
      sum exp(K) M_p M_q (sharp at any disorder strength);
    * pooled second moment against 1 + R(r + a) with cluster SEs.  In the
      strongly disordered regime this target is dominated by reference-tail
      events no feasible sample sees, and the check reports as flagged via
      the SE-reliability rule rather than pass/fail;
    * pooled moments against a directly simulated population at r + a of
      matched size (``direct_size`` defaults to ``realizations`` so both
      routes see comparable tail depth); a large direct population and a
      two-sample KS statistic are attached as diagnostics.
    """
    seed_spec = seed_spec or SeedSpec()
    b = profile.b
    lam = edge_weight(profile, r, a, n, mode)
    leaf = default_leaf_population(
        b, r, n, depth, seed_spec, master_seed, pop_size=leaf_pop_size, profile=profile
    )
    refs = sample_measure_batch(b, r, n, realizations, leaf, master_seed)

    totals = np.empty((realizations, draws))
    cond_z = np.empty(realizations)
    for i in range(realizations):
        rng = substream(master_seed, _REALM_GMC, i)
        totals[i] = chaos_totals(refs[i], b, lam, rng, draws)
        quad = kahane_moment(refs[i], b, lam, 2)
        sq = totals[i] ** 2
        se_i = sq.std(ddof=1) / math.sqrt(draws)
        cond_z[i] = (sq.mean() - quad) / se_i if se_i > 0 else math.inf

    pooled = _pooled_moments(totals)
    target2 = 1.0 + profile.evaluate_R(r + a)

    direct_seed = int(
        np.random.SeedSequence((int(master_seed), _REALM_DIRECT)).generate_state(1)[0]
    )
    direct_size = direct_size or realizations
    direct = simulate_mass_law(
        b, r + a, seed_spec, depth, max(direct_size, b * b), direct_seed, profile=profile
    )
    dmoms = _direct_moments(direct.masses)
    big_seed = int(
        np.random.SeedSequence((int(master_seed), _REALM_DIRECT, 2)).generate_state(1)[0]
    )
    big_direct = simulate_mass_law(
        b, r + a, seed_spec, depth, big_direct_size, big_seed, profile=profile
    )
    big_moms = _direct_moments(big_direct.masses)

    report = ExperimentReport(
        name="conditional-gmc",
        notes=[SEEDING_BIAS_NOTE],
        provenance={
            "b": b,
            "r": r,
            "a": a,
            "n": n,
            "depth": depth,
            "realizations": realizations,
            "draws": draws,
            "master_seed": master_seed,
            "seed_kind": seed_spec.kind,
            "mode": mode,
            "leaf_pop_size": leaf_pop_size,
            "direct_size": direct_size,
            "big_direct_size": big_direct_size,
        },
    )
    report.add(se_check("mean-vs-one", 1.0, pooled[1][0], pooled[1][1], 4.0))
    # The per-reference z statistics are skewed (lognormal-sum draws with an
    # estimated SE), so the coverage bound is the distribution-free Chebyshev
    # one (>= 93.75% at 4 sigma); sharpness comes from the median |z|, which
    # sits near 0.7 under the exact conditional law and explodes if the
    # kernel or the weight normalization is wrong.
    cond_within = int(np.count_nonzero(np.abs(cond_z) <= 4.0))
    cond_fraction = cond_within / realizations
    median_z = float(np.median(np.abs(cond_z)))
    report.add(
        CheckResult(
            "conditional-second-moment-layer",
            "pass" if cond_fraction >= 0.90 and median_z <= 1.5 else "fail",
            target=1.0,
            estimate=cond_fraction,
            tolerance=">= 90% of references within 4*SE of the exact quadratic "
            "form and median |z| <= 1.5",
            detail=f"{cond_within}/{realizations} references, median |z| = {median_z:.2f}",
        )
    )
    report.add(
        se_check("second-moment-vs-1+R", target2, pooled[2][0], pooled[2][1], 4.0)
    )
    comb2 = math.hypot(pooled[2][1], dmoms[2][1])
    report.add(
        se_check("second-moment-vs-direct", dmoms[2][0], pooled[2][0], comb2, 5.0)
    )
    comb3 = math.hypot(pooled[3][1], dmoms[3][1])
    report.add(
        se_check("third-moment-vs-direct", dmoms[3][0], pooled[3][0], comb3, 5.0)
    )
    ks = stats.ks_2samp(totals.ravel(), big_direct.masses)
    report.arrays["totals"] = totals.ravel()
    report.arrays["direct_totals"] = direct.masses
    report.diagnostics.update(
        {
            "pooled_moments": {str(k): v for k, v in pooled.items()},
            "direct_moments_matched": {str(k): v for k, v in dmoms.items()},
            "direct_moments_large": {str(k): v for k, v in big_moms.items()},
            "target_second_moment": target2,
            "ks_statistic": float(ks.statistic),
            "ks_pvalue": float(ks.pvalue),
            "kernel_edge_weight": lam,
        }
    )
    return report


def _cylinder_chaos_factor(g: np.ndarray, b: int, n: int, lam: float) -> np.ndarray:
    """exp(W(p) - K(p, p)/2) per generation-n cylinder (leading axes batch)."""
    return b ** decision_count(b, n) * assemble(_edge_factors(lam, g.copy()), b, n)


def renormalization_weight_audit(
    profile: VarianceProfile, r: float, a: float, n: int, master_seed: int
) -> float:
    """Deterministic product-structure audit of the composite construction.

    For one hand-set Gaussian edge vector, builds the single-level chaos at
    (r + 1, a, n) over a combined reference and the per-copy chaoses at
    (r, a, n - 1) on the edge blocks, and returns the maximum relative gap
    between the combined cylinder weights.  The sub-references are arbitrary
    cylinder vectors, not leaf products.  Exact up to rounding because the
    exact-discrete edge weight is level-invariant.
    """
    if n < 2:
        raise UsageError("the composite construction needs n >= 2")
    b = profile.b
    lam_full = edge_weight(profile, r + 1, a, n, "exact-discrete")
    lam_sub = edge_weight(profile, r, a, n - 1, "exact-discrete")
    rng = substream(master_seed, _REALM_GMC, 0)
    g = rng.standard_normal((b * b) ** n)
    subs = rng.lognormal(mean=0.0, sigma=0.5, size=(b, b, path_count_int(LatticeParams(b, b), n - 1)))

    single = upsilon_combine(subs) * _cylinder_chaos_factor(g, b, n, lam_full)
    block_factors = _cylinder_chaos_factor(g.reshape(b, b, -1), b, n - 1, lam_sub)
    composite = upsilon_combine(subs * block_factors)
    scale = np.maximum(np.abs(single), 1e-300)
    return float(np.max(np.abs(single - composite) / scale))


def renormalization_consistency(
    profile: VarianceProfile,
    r: float,
    a: float,
    n: int,
    depth: int,
    realizations: int,
    draws: int,
    master_seed: int,
    seed_spec: "SeedSpec | None" = None,
    leaf_pop_size: int = 1_000_000,
) -> ExperimentReport:
    """Single-level vs composite chaos constructions of the same law.

    (A) one chaos at (r + 1, a, n) over references at (r + 1, n);
    (B) b^2 independent chaoses at (r, a, n - 1) over independent references
    at (r, n - 1), combined by the one-step renormalization map.  Both
    total-mass laws target 1 + R(r + 1 + a) in second moment.
    """
    if n < 2:
        raise UsageError("the composite construction needs n >= 2")
    seed_spec = seed_spec or SeedSpec()
    b = profile.b
    bb = b * b

    lam_a = edge_weight(profile, r + 1, a, n, "exact-discrete")
    leaf_a = default_leaf_population(
        b, r + 1, n, depth, seed_spec, master_seed, pop_size=leaf_pop_size, profile=profile
    )
    refs_a = sample_measure_batch(b, r + 1, n, realizations, leaf_a, master_seed)
    totals_a = np.empty((realizations, draws))
    for i in range(realizations):
        rng = substream(master_seed, _REALM_GMC, 2 * i)
        totals_a[i] = chaos_totals(refs_a[i], b, lam_a, rng, draws)

    lam_b = edge_weight(profile, r, a, n - 1, "exact-discrete")
    leaf_seed = int(
        np.random.SeedSequence((int(master_seed), _REALM_DIRECT, 1)).generate_state(1)[0]
    )
    leaf_b = default_leaf_population(
        b, r, n - 1, depth, seed_spec, leaf_seed, pop_size=leaf_pop_size, profile=profile
    )
    refs_b = sample_measure_batch(
        b, r, n - 1, realizations * bb, leaf_b, leaf_seed
    ).reshape(realizations, bb, -1)
    totals_b = np.empty((realizations, draws))
    for i in range(realizations):
        rng = substream(master_seed, _REALM_GMC, 2 * i + 1)
        copy_totals = np.empty((bb, draws))
        for c in range(bb):
            copy_totals[c] = chaos_totals(refs_b[i, c], b, lam_b, rng, draws)
        totals_b[i] = tree_total(copy_totals, b)

    pooled_a = _pooled_moments(totals_a)
    pooled_b = _pooled_moments(totals_b)
    target2 = 1.0 + profile.evaluate_R(r + 1 + a)

    report = ExperimentReport(
        name="renormalization-consistency",
        notes=[SEEDING_BIAS_NOTE],
        provenance={
            "b": b,
            "r": r,
            "a": a,
            "n": n,
            "depth": depth,
            "realizations": realizations,
            "draws": draws,
            "master_seed": master_seed,
            "seed_kind": seed_spec.kind,
            "leaf_pop_size": leaf_pop_size,
        },
    )
    report.add(
        se_check("single-level-second-moment", target2, pooled_a[2][0], pooled_a[2][1], 4.0)
    )
    report.add(
        se_check("composite-second-moment", target2, pooled_b[2][0], pooled_b[2][1], 4.0)
    )
    comb2 = math.hypot(pooled_a[2][1], pooled_b[2][1])
    report.add(
        se_check(
            "second-moment-single-vs-composite",
            pooled_a[2][0],
            pooled_b[2][0],
            comb2,
            4.0,
        )
    )
    comb3 = math.hypot(pooled_a[3][1], pooled_b[3][1])
    report.add(
        se_check(
            "third-moment-single-vs-composite",
            pooled_a[3][0],
            pooled_b[3][0],
            comb3,
            5.0,
        )
    )
    audit = renormalization_weight_audit(profile, r, a, n, master_seed)
    report.add(
        exact_check("weight-decomposition-audit", audit, 1e-12, detail="max relative gap")
    )
    ks = stats.ks_2samp(totals_a.ravel(), totals_b.ravel())
    report.arrays["single_level_totals"] = totals_a.ravel()
    report.arrays["composite_totals"] = totals_b.ravel()
    report.diagnostics.update(
        {
            "single_level_moments": {str(k): v for k, v in pooled_a.items()},
            "composite_moments": {str(k): v for k, v in pooled_b.items()},
            "target_second_moment": target2,
            "ks_statistic": float(ks.statistic),
            "ks_pvalue": float(ks.pvalue),
        }
    )
    return report


def strong_disorder_bound(
    profile: VarianceProfile,
    r_grid,
    n: int,
    depth: int,
    realizations: int,
    draws: int,
    master_seed: int,
    seed_spec: "SeedSpec | None" = None,
    leaf_pop_size: int = 1_000_000,
) -> ExperimentReport:
    """Fractional-moment bound and decay for chaos over references at level 0.

    For each reference M0 at (0, n), the conditional half moment of the
    coupled chaos total at coupling r obeys

        E[ sqrt(M_r(Gamma)) | M0 ] <= (sum_p exp(-sqrt(r) t(p)) M0(p))^(1/2)
                                      * exp(theta/2),

    where t = K1 M0 and theta = M0 . K1 M0 for the unit-coupling asymptotic
    kernel K1: this is the finite-dimensional Cameron-Martin/Cauchy-Schwarz
    bound with the field shifted by -sqrt(r) t.  The experiment checks the
    bound per realization, in log space, and the strict decay of the pooled
    half moment across the grid.
    """
    seed_spec = seed_spec or SeedSpec()
    r_grid = [float(x) for x in r_grid]
    if any(x <= 0 for x in r_grid):
        raise UsageError("strong-disorder grid must be positive")
    b = profile.b
    lam1 = edge_weight(profile, 0.0, 1.0, n, "asymptotic")
    leaf = default_leaf_population(
        b, 0.0, n, depth, seed_spec, master_seed, pop_size=leaf_pop_size, profile=profile
    )
    refs = sample_measure_batch(b, 0.0, n, realizations, leaf, master_seed)

    half = np.empty((len(r_grid), realizations))
    half_se = np.empty_like(half)
    log_bounds = np.empty_like(half)
    theta_totals = np.empty(realizations)
    ref_totals = np.empty(realizations)
    t_pos_fraction = np.empty(realizations)
    audit_gap = 0.0
    for i in range(realizations):
        leaves = refs[i]
        marginals = edge_marginals(leaves, b)
        theta = lam1 * float(marginals @ marginals)
        theta_totals[i] = theta
        audit_gap = max(
            audit_gap, abs(theta - theta_recursion(leaves, b, lam1)) / max(theta, 1e-300)
        )
        ref_totals[i] = tree_total(leaves, b)
        # t(p) = lam1 * sum_{e in p} m_e vanishes only on paths whose edges all
        # have m_e = 0; their mass is the tree total of l * 1{m = 0}
        t_pos_fraction[i] = 1.0 - tree_total(leaves * (marginals <= 0), b) / ref_totals[i]
        log_bounds[:, i] = half_moment_log_bounds(leaves, b, lam1, r_grid)
        for k, rr in enumerate(r_grid):
            rng = substream(master_seed, _REALM_GMC, i * len(r_grid) + k)
            roots = np.sqrt(chaos_totals(leaves, b, rr * lam1, rng, draws))
            half[k, i] = roots.mean()
            half_se[k, i] = roots.std(ddof=1) / math.sqrt(draws)

    report = ExperimentReport(
        name="strong-disorder",
        notes=[SEEDING_BIAS_NOTE],
        provenance={
            "b": b,
            "n": n,
            "depth": depth,
            "r_grid": r_grid,
            "realizations": realizations,
            "draws": draws,
            "master_seed": master_seed,
            "seed_kind": seed_spec.kind,
            "leaf_pop_size": leaf_pop_size,
        },
    )
    # mc > bound + 4 SE, compared as log(mc - 4 SE) > log(bound)
    excess = half - 4.0 * half_se
    positive = excess > 0
    log_excess = np.log(excess, out=np.full_like(excess, -np.inf), where=positive)
    violations = int(np.count_nonzero(positive & (log_excess > log_bounds)))
    report.add(
        CheckResult(
            "half-moment-bound",
            "pass" if violations == 0 else "fail",
            target=0.0,
            estimate=float(violations),
            tolerance="violations of mc <= bound + 4*SE",
            detail=f"{realizations} realizations x {len(r_grid)} grid points",
        )
    )
    pooled = half.mean(axis=1)
    pooled_se = half.std(axis=1, ddof=1) / math.sqrt(realizations)
    decays = []
    for k in range(len(r_grid) - 1):
        comb = math.hypot(pooled_se[k], pooled_se[k + 1])
        decays.append(pooled[k] - pooled[k + 1] > comb)
    report.add(
        CheckResult(
            "half-moment-decay",
            "pass" if all(decays) else "fail",
            estimate=float(sum(decays)),
            target=float(len(decays)),
            tolerance="each consecutive drop exceeds the combined SE",
            detail=f"pooled half moments {['%.4f' % v for v in pooled]}",
        )
    )
    report.add(
        exact_check(
            "theta-audit", audit_gap, 1e-12, detail="edge marginals vs upward recursion"
        )
    )
    report.add(
        CheckResult(
            "t-positivity",
            "pass" if np.all(t_pos_fraction >= 1.0 - 1e-12) else "fail",
            target=1.0,
            estimate=float(t_pos_fraction.min()),
            tolerance="mass-weighted fraction with t > 0 equals 1",
            detail="t(p) >= K(p,p) M0(p) > 0 wherever M0(p) > 0",
        )
    )
    report.arrays["half_moments"] = half.T  # rows = realizations, cols = grid
    # finite-dimensional trace sum_p K(p,p) M0(p) = lam1 * b^n * total; reported
    # as an illustration of its growth in n, nothing is asserted about a limit
    traces = lam1 * b**n * ref_totals
    report.diagnostics.update(
        {
            "pooled_half_moments": dict(zip(map(str, r_grid), map(float, pooled))),
            "pooled_half_moment_ses": dict(zip(map(str, r_grid), map(float, pooled_se))),
            "theta_total_mean": float(theta_totals.mean()),
            "kernel_trace_mean": float(traces.mean()),
            "kernel_edge_weight": lam1,
        }
    )
    return report
