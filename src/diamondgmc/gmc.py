"""Finite-dimensional Gaussian multiplicative chaos on the cascade's leaf tree.

The intersection kernel on generation-``n`` cylinders counts shared edges:
with per-edge weight ``lam``, K(p, q) = lam * N_n(p, q), and the Gaussian
field W(p) = sqrt(lam) * sum_{e in p} g_e carries one standard normal per
edge.  References come from the cascade as leaf masses ``l_e`` in edge order,
with M(p) = b^(-d_n) prod_{e in p} l_e, so the chaos reweighting

    M(p) exp(W(p) - K(p, p)/2) = b^(-d_n) prod_{e in p} l_e exp(sqrt(lam) g_e - lam/2)

is again a product over edges: a chaos realization is the leaf vector
``l * exp(sqrt(lam) g - lam/2)``, and its total mass is the tree reduction
T = (1/b) sum_i prod_j T_ij.  The b edges of a bottom branch lie on exactly
the same cylinders, so W reads only their sum, an N(0, b) normal: every
chaos here draws one gaussian h per bottom branch, with factor
exp(sqrt(b lam) h - b lam/2) on the branch's leaf product, the same joint
law of every W(p) from b times fewer normals.
Every functional used here is a recursion on the same tree, at O(b^(2n))
cost per draw:

* integer moments E[T^m] (Kahane): the cascade's overlap polynomial Q_m,
  the sum over m-tuples of cylinders of prod M(p_i) z^(shared edges of all
  pairs), at z = exp(lam).  m = 2 is the conditional quadratic form
  sum exp(K(p, q)) M(p) M(q), and theta = M . K M = lam Q_2'(1);
* edge marginals m_e, the mass of the cylinders through e, from one upward
  and one downward pass; t(p) = (K M)(p) = lam sum_{e in p} m_e and
  theta = lam sum_e m_e^2, a second route to theta;
* the Cameron-Martin law of the total under a shift psi of the branch
  gaussians: reweighting T(h) by exp(<h, psi> - |psi|^2/2) gives
  E[T(h + psi)], the total of the leaves tilted by exp(sqrt(lam / b) psi_B)
  on each edge of branch B.

The edge weight is the exact-discrete one,
lam = log[(1 + R(r + a - n)) / (1 + R(r - n))] (``correlation.edge_weight``,
the change-of-parameter kernel per shared edge), which makes every
finite-n correlation identity exact: reweighting the generation-n correlation
measure at parameter r by exp(K) gives the one at r + a.  Only the
strong-disorder bound uses another, the unit-coupling weight kappa^2 / n^2
of the limiting intersection kernel.  The exact-discrete weight depends only
on (r - n, a), so the level-n chaos at r and the level-(n-1) chaos at r - 1
share one edge weight.  Over b^2 blocks of sub-leaves the level-n chaos
total is therefore (1/b) sum_i prod_j of the block chaos totals, the
hierarchical decomposition of the kernel operator: one renormalization step
of the chaos is the chaos one level down.  The conditional experiment checks
this exactly, as its weight-decomposition audit on the leaf tree.
"""

from __future__ import annotations

import math

import numpy as np

from .cascade import (
    ISLANDS,
    edge_cells,
    for_each,
    horner,
    island_group_mean_se,
    leaf_level,
    overlap_moments,
    simulate_mass_trajectory,
    substream,
    tree_total,
)
from .correlation import edge_weight
from .errors import AUDIT_CELL_BUDGET, UsageError, check_budget
from .rfunction import (
    SeedSpec, VarianceProfile, kappa_sq, law_se, moment_recursion_step, moment_table, or_inf,
)
from .reporting import (
    SEEDING_BIAS_NOTE,
    SE_RELIABILITY_RATIO,
    CheckResult,
    ExperimentReport,
    exact_check,
    mean_se,
    se_check,
)

# Stream realm for chaos gaussians (cascade uses 0..2).
_REALM_GMC = 3


def _branch_chaos_totals(branches, h: np.ndarray, b: int, lam: float) -> np.ndarray:
    """Chaos totals from bottom-branch leaf products ``branches`` (broadcast
    against ``h``) and normals ``h``, one per bottom branch on the first axis,
    trailing axes batched: ``h`` becomes exp(sqrt(b lam) h - b lam/2) in place,
    the b branches of each bottom diamond combine as (1/b) sum_i, and
    ``tree_total`` does the levels above."""
    h *= math.sqrt(b * lam)
    h -= 0.5 * b * lam
    np.exp(h, out=h)
    h *= branches
    return tree_total(h.reshape(-1, b, *h.shape[1:]).sum(axis=1) / b, b)


def chaos_totals(
    leaves, b: int, lam: float, rng: np.random.Generator, draws: int
) -> np.ndarray:
    """Totals of ``draws`` chaos reweightings of one reference leaf vector,
    from one (bottom branches, draws) block of b^(2n-1) x ``draws`` normals."""
    branches = np.asarray(leaves, dtype=float).reshape(-1, b).prod(axis=1)
    h = rng.standard_normal((branches.size, draws))
    return _branch_chaos_totals(branches[:, None], h, b, lam)


def shift_law(leaves, b: int, lam: float, psi, rng: np.random.Generator, draws: int) -> tuple:
    """The Cameron-Martin law E[T(h + psi)] = E[T(h) exp(<h, psi> - |psi|^2/2)].

    T is the chaos total over ``leaves`` and ``psi`` holds one shift per
    bottom branch.  The left side is exact, the tree total of the leaves
    with each edge of branch B tilted by exp(sqrt(lam / b) psi_B); the right
    side is sampled over ``draws`` blocks of branch gaussians.  Returns
    (exact left side, right-side sample, law SE of the sample's mean); the
    law SE comes from
    E[(T exp(<h, psi> - |psi|^2/2))^2] = exp(|psi|^2) Q_2(l tilt^2; e^lam).
    """
    leaves = np.asarray(leaves, dtype=float)
    psi = np.asarray(psi, dtype=float)
    h = rng.standard_normal((psi.size, draws))
    norm_sq = float(psi @ psi)
    density = np.exp(psi @ h - 0.5 * norm_sq)  # read before h becomes the branch factors
    branches = leaves.reshape(-1, b).prod(axis=1)
    sample = _branch_chaos_totals(branches[:, None], h, b, lam) * density
    tilt = np.repeat(np.exp(math.sqrt(lam / b) * psi), b)
    target = float(tree_total(leaves * tilt, b))
    second = math.exp(norm_sq) * float(
        horner(overlap_moments(leaves * tilt**2, b, 2)[2], math.exp(lam))
    )
    return target, sample, law_se([1.0, target, second], 1, draws)


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


def half_moment_log_bounds(leaves, marginals, theta: float, b: int, lam: float, r_grid):
    """Log of the half-moment bound (sum_p exp(-sqrt(r) t(p)) M0(p))^(1/2) exp(theta/2).

    ``marginals`` are the leaves' edge marginals m and ``theta`` is
    lam |m|^2.  The sum is the tree total of l exp(-sqrt(r) lam m); in log
    space the bound stays finite where exp(theta/2) leaves double range.
    """
    leaves = np.asarray(leaves, dtype=float)
    sums = [
        float(tree_total(leaves * np.exp(-math.sqrt(r) * lam * marginals), b))
        for r in r_grid
    ]
    return np.array([0.5 * (math.log(s) if s > 0 else -math.inf) + 0.5 * theta for s in sums])


def chaos_moment_ladder(b: int, leaf_moments, lam: float, n: int) -> list:
    """Exact E[T^k], k = 0..K, of the level-n chaos total over iid leaves.

    n renormalization steps carry the leaves' raw moments m_k, tilted by the
    edge factor's exp(lam C(k,2)), to the root; m_0 = 1 is not read.  Moments
    from one that leaves double range, or enters as nan, upward read inf.
    """
    moments = [1.0] + [float(m) * or_inf(math.exp, lam * math.comb(k, 2))
                       for k, m in enumerate(leaf_moments[1:], start=1)]
    for _ in range(n):
        moments = moment_recursion_step(b, moments)
    top = next((k for k, m in enumerate(moments) if not math.isfinite(m)), len(moments))
    return moments[:top] + [math.inf] * (len(moments) - top)


def _uniform_reference(profile: VarianceProfile, r: float, a: float, n: int, draws: int):
    """(edge weight, leaves) of the uniform reference at (r, a, n), its chaos
    block checked against the budget first, counted as (edges, draws) cells
    (an upper bound: the chaos draws one gaussian per bottom branch)."""
    b = profile.b
    check_budget(f"chaos draw block at generation {n}", *edge_cells(b, n, draws, "draws"))
    return edge_weight(profile, r, a, n), np.ones((b * b) ** n)


def shift_experiment(
    profile: VarianceProfile, r: float, a: float, n: int, draws: int, master_seed: int
) -> ExperimentReport:
    """``shift_law`` over the uniform reference with a constant psi, |psi| = 1/2:
    its branches carry equal mass, so psi points along their marginals, where
    a flipped density sign moves the mean at first order.  The density's
    variance, exp(|psi|^2) - 1, is 0.28 (law SE near 5% of the target at 1000 draws)."""
    lam, uniform = _uniform_reference(profile, r, a, n, draws)
    branches = uniform.size // profile.b
    psi = np.full(branches, 0.5 / math.sqrt(branches))
    rng = substream(master_seed, _REALM_GMC, 0)
    target, sample, law = shift_law(uniform, profile.b, lam, psi, rng, draws)
    diagnostics = {"law_se": law, "gaussians_drawn": draws * branches}
    report = ExperimentReport("shift", diagnostics=diagnostics)
    report.add(se_check("cameron-martin-law", target, *mean_se(sample), 4.0,
                        detail=f"law SE {law:.3g}", floor=law))
    return report


def kahane_experiment(
    profile: VarianceProfile, r: float, a: float, n: int, draws: int, master_seed: int
) -> ExperimentReport:
    """Sampled E[T^m], m = 2, 3, of the chaos total over the uniform reference
    against Kahane's exact Q_m(e^lam)."""
    lam, uniform = _uniform_reference(profile, r, a, n, draws)
    totals = chaos_totals(uniform, profile.b, lam, substream(master_seed, _REALM_GMC, 1), draws)
    report = ExperimentReport(
        "kahane", diagnostics={"gaussians_drawn": draws * uniform.size // profile.b}
    )
    report.arrays["totals"] = totals
    overlap = overlap_moments(uniform, profile.b, 3)
    for m in (2, 3):
        formula = float(horner(overlap[m], math.exp(lam)))
        est, se = mean_se(totals**m)
        report.add(se_check(f"kahane-m{m}", formula, est, se, 4.0))
    return report


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
    pop_size: int = 1_000_000,
) -> ExperimentReport:
    """Chaos-over-random-reference composition experiment.

    For each of ``realizations`` references at (r, n), draw ``draws``
    conditional chaos realizations with the exact-discrete (r, a, n) kernel,
    the weight that makes the 1 + R(r + a) target exact, and pool the total
    masses.  The references' leaves, each reference's block of gaussians,
    counted as (edges, draws) cells (an upper bound: it draws one per bottom
    branch), and the (realizations, draws) totals must fit
    ``AUDIT_CELL_BUDGET``.  Checks:

    * conditional layer -- per reference, the Monte Carlo second moment of
      the chaos totals against the exact quadratic form
      sum exp(K) M_p M_q, in units of its exact SE from the fourth moment
      (flagged where those SEs leave the layer uninformative);
    * pooled second moment against 1 + R(r + a), and pooled second and
      third moments against E[T^k | pool], exact for the ``pop_size`` leaf
      pool the references draw from (reference i draws from island i mod J,
      so E[T^k | pool] is the island ladders' mean, weighted by their
      references); SEs over the J island groups of references, which carry
      the pool's own error, floored by the law SE
      sqrt((L_2k - L_k^2) / (realizations draws)) of the moment ladder L of
      the law's leaves or of the pool (a lower bound: draws share a reference);
    * for n >= 2, the weight-decomposition audit at (r - 1, a, n): both of
      its edge weights are this run's kernel, so one renormalization step
      of the level-n chaos reproduces it from level n - 1 exactly.

    The references' chaos blocks run on up to one thread each (``for_each``).
    """
    seed_spec = seed_spec or SeedSpec()
    b = profile.b
    lam = edge_weight(profile, r, a, n)
    # the exact moments below hold every reference's overlap polynomials at
    # once, and each reference's chaos totals at most one (edges, draws) block
    check_budget(f"leaf batch at generation {n}", *edge_cells(b, n, realizations, "realizations"))
    check_budget(f"chaos draw block at generation {n}", *edge_cells(b, n, draws, "draws"))
    check_budget(f"totals block of {realizations} x {draws}", realizations * draws,
                 AUDIT_CELL_BUDGET)
    count = realizations * draws
    # the law's leaf moments, at the pool's own base level r - depth; the
    # ladder refuses a too-deep (its step budget) or too-shallow run before
    # the pool is drawn
    leaf_r = leaf_level(r, n, depth)
    law_leaves = moment_table(profile, [leaf_r], 4, seed_spec.kind, depth - n).raw[0]
    leaf, refs = simulate_mass_trajectory(
        b, leaf_r, seed_spec, depth - n, pop_size, master_seed,
        leaves=(r, n, realizations), profile=profile,
    )

    totals = np.empty((realizations, draws))

    def block(i):
        totals[i] = chaos_totals(refs[i], b, lam, substream(master_seed, _REALM_GMC, i), draws)

    for_each(block, realizations)
    # E[T^2 | ref] = Q_2(e^lam) and E[T^4 | ref] = Q_4(e^lam) give the exact
    # SE of each sample second moment; at zero coupling only rounding is
    # left of it, which the floor stands in for
    overlap = overlap_moments(refs.T, b, 4)
    quad, fourth = (horner(overlap[k], math.exp(lam)) for k in (2, 4))
    cond_se = np.maximum(np.sqrt(np.maximum(fourth - quad**2, 0.0) / draws), 1e-12 * quad)
    cond_z = ((totals**2).mean(axis=1) - quad) / cond_se
    pooled_rel_se = math.sqrt(np.sum((cond_se / quad) ** 2)) / realizations

    # over the island groups of references: the SEs carry the pool's own error
    pooled = {k: island_group_mean_se((totals**k).mean(axis=1)) for k in (1, 2, 3)}
    # the exact E[T^k | pool]: each island's ladder, weighted by its references
    groups = min(ISLANDS, realizations)
    pool_ladder = np.average(
        [chaos_moment_ladder(b, [np.mean(island**k) for k in range(7)], lam, n)
         for island in leaf.islands[:groups]],
        axis=0, weights=[len(range(j, realizations, ISLANDS)) for j in range(groups)],
    ).tolist()
    law_ladder = chaos_moment_ladder(b, law_leaves, lam, n)

    report = ExperimentReport(name="conditional-gmc", notes=[SEEDING_BIAS_NOTE])
    report.add(se_check("mean-vs-one", 1.0, pooled[1][0], pooled[1][1], 4.0))
    # With the exact SE, Chebyshev puts >= 93.75% of the references within
    # 4 SE whatever the skew of the chaos totals; sharpness comes from the
    # median |z|, near 0.45 under the exact conditional law.  Where the SEs
    # swamp the quadratic forms the layer shows nothing and reads flagged.
    cond_within = int(np.count_nonzero(np.abs(cond_z) <= 4.0))
    cond_fraction = cond_within / realizations
    median_z = float(np.median(np.abs(cond_z)))
    report.add(
        CheckResult(
            "conditional-second-moment-layer",
            "flagged" if pooled_rel_se > SE_RELIABILITY_RATIO
            else "pass" if cond_fraction >= 0.90 and median_z <= 1.5 else "fail",
            target=1.0,
            estimate=cond_fraction,
            tolerance=">= 90% of references within 4 exact SE of the exact quadratic "
            f"form and median |z| <= 1.5; flagged when the pooled relative SE "
            f"exceeds {SE_RELIABILITY_RATIO:g}",
            detail=f"{cond_within}/{realizations} references, median |z| = {median_z:.2f}, "
            f"pooled relative SE = {pooled_rel_se:.2g}",
        )
    )
    report.add(
        se_check("second-moment-vs-1+R", 1.0 + profile.evaluate_R(r + a), *pooled[2], 4.0,
                 floor=law_se(law_ladder, 2, count))
    )
    for k, word in ((2, "second"), (3, "third")):
        report.add(se_check(f"{word}-moment-vs-pool-ladder", pool_ladder[k], *pooled[k], 5.0,
                            floor=law_se(pool_ladder, k, count)))
    if n >= 2:
        audit = renormalization_weight_audit(profile, r - 1, a, n, master_seed)
        report.add(
            exact_check("weight-decomposition-audit", audit, 1e-12,
                        detail="relative, level-n vs block-composed level-(n-1) total")
        )
    report.arrays["totals"] = totals.ravel()
    report.diagnostics.update(
        {
            "pooled_moments": {str(k): v for k, v in pooled.items()},
            "kernel_edge_weight": lam,
            "gaussians_drawn": count * refs.shape[1] // b,
            "pop_size": pop_size,
        }
    )
    return report


def renormalization_weight_audit(
    profile: VarianceProfile, r: float, a: float, n: int, master_seed: int
) -> float:
    """Deterministic product-structure audit of one renormalization step.

    For one seeded vector of branch gaussians and lognormal leaves, compares
    the total of the level-n chaos at (r + 1, a, n) with the composite one:
    the leaves split into b^2 consecutive blocks of generation-(n - 1)
    sub-leaves, each block carries its own chaos at (r, a, n - 1), and the
    block totals combine as (1/b) sum_i prod_j.  Returns the relative gap,
    exact up to rounding because the exact-discrete edge weight is
    level-invariant.
    """
    if n < 2:
        raise UsageError("the composite construction needs n >= 2")
    b = profile.b
    lam_full = edge_weight(profile, r + 1, a, n)
    lam_sub = edge_weight(profile, r, a, n - 1)
    rng = substream(master_seed, _REALM_GMC, 0)
    h = rng.standard_normal(b ** (2 * n - 1))
    branches = rng.lognormal(mean=0.0, sigma=0.5, size=(h.size, b)).prod(axis=1)

    single = float(_branch_chaos_totals(branches, h.copy(), b, lam_full))
    # the b^2 blocks of sub-leaves as a trailing axis
    blocks = _branch_chaos_totals(branches.reshape(b * b, -1).T, h.reshape(b * b, -1).T, b, lam_sub)
    composite = float(tree_total(blocks, b))
    return abs(single - composite) / max(abs(single), 1e-300)


def strong_disorder_bound(
    profile: VarianceProfile,
    r_grid,
    n: int,
    depth: int,
    realizations: int,
    draws: int,
    master_seed: int,
    seed_spec: "SeedSpec | None" = None,
    pop_size: int = 1_000_000,
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
    half moment across the strictly increasing grid: each drop pairs the
    adjacent grid points of every reference, with its SE over the island
    groups of references.  The references' leaves, each chaos draw block
    (counted as (edges, draws) cells, an upper bound) and the (grid,
    realizations) half-moment arrays must fit ``AUDIT_CELL_BUDGET``, and
    each grid point's branch weight b r kappa^2 / n^2 must be finite, both
    checked before the pool is drawn.
    The realizations run on up to one thread each (``for_each``).
    """
    seed_spec = seed_spec or SeedSpec()
    r_grid = [float(x) for x in r_grid]
    # the decay check compares adjacent points, so it reads a strictly increasing grid
    if any(hi <= lo for lo, hi in zip([0.0] + r_grid, r_grid)):
        raise UsageError(f"strong-disorder grid must be positive and strictly increasing, "
                         f"got {r_grid}")
    if n < 1:
        raise UsageError("kernel needs generation >= 1")
    b = profile.b
    lam1 = kappa_sq(b) / n**2
    for rr in r_grid:  # each chaos at rr takes the square root of its branch weight
        if not math.isfinite(b * (rr * lam1)):
            raise UsageError(f"strong-disorder grid point {rr:g} at n = {n} puts the branch "
                             "weight b r kappa^2 / n^2 beyond double range")
    check_budget(f"leaf batch at generation {n}", *edge_cells(b, n, realizations, "realizations"))
    check_budget(f"chaos draw block at generation {n}", *edge_cells(b, n, draws, "draws"))
    check_budget(f"half-moment block of {len(r_grid)} x {realizations}",
                 len(r_grid) * realizations, AUDIT_CELL_BUDGET)
    leaf_r = leaf_level(0.0, n, depth)
    refs = simulate_mass_trajectory(
        b, leaf_r, seed_spec, depth - n, pop_size, master_seed,
        leaves=(0.0, n, realizations), profile=profile,
    )[1]

    half = np.empty((len(r_grid), realizations))
    half_se = np.empty_like(half)
    log_bounds = np.empty_like(half)
    theta_totals = np.empty(realizations)
    ref_totals = np.empty(realizations)
    t_pos_fraction = np.empty(realizations)

    def realization(i):
        leaves = refs[i]
        marginals = edge_marginals(leaves, b)
        theta_totals[i] = lam1 * float(marginals @ marginals)
        ref_totals[i] = tree_total(leaves, b)
        # t(p) = lam1 * sum_{e in p} m_e vanishes only on paths whose edges all
        # have m_e = 0; their mass is the tree total of l * 1{m = 0}
        t_pos_fraction[i] = 1.0 - tree_total(leaves * (marginals <= 0), b) / ref_totals[i]
        log_bounds[:, i] = half_moment_log_bounds(
            leaves, marginals, theta_totals[i], b, lam1, r_grid
        )
        for k, rr in enumerate(r_grid):
            rng = substream(master_seed, _REALM_GMC, i * len(r_grid) + k)
            roots = np.sqrt(chaos_totals(leaves, b, rr * lam1, rng, draws))
            half[k, i], half_se[k, i] = mean_se(roots)

    for_each(realization, realizations)
    # theta = lam sum_d d S_d from the pair class sums S_d = Q_2[d], a route
    # independent of the edge marginals
    pair_sums = overlap_moments(refs.T, b, 2)[2]
    upward = lam1 * (np.arange(len(pair_sums)) @ pair_sums)
    audit_gap = float(np.max(np.abs(theta_totals - upward) / np.maximum(theta_totals, 1e-300)))

    report = ExperimentReport(name="strong-disorder", notes=[SEEDING_BIAS_NOTE])
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
    # SEs over the island groups of references, which carry the pool's own
    # error; each drop pairs adjacent grid points on the same references,
    # where the pool term largely cancels
    pooled, pooled_se = np.array([island_group_mean_se(row) for row in half]).T
    drops = [island_group_mean_se(half[k] - half[k + 1]) for k in range(len(r_grid) - 1)]
    decays = [drop > se for drop, se in drops]
    if drops:  # a one-point grid has no drop to compare
        report.add(
            CheckResult(
                "half-moment-decay",
                "pass" if all(decays) else "fail",
                estimate=float(sum(decays)),
                target=float(len(decays)),
                tolerance="each consecutive drop, paired by reference, exceeds its SE over "
                "the island groups",
                detail=f"pooled half moments {['%.4f' % v for v in pooled]}, "
                f"paired drops {['%.4f +- %.4f' % drop for drop in drops]}",
            )
        )
    report.add(
        exact_check(
            "theta-audit", audit_gap, 1e-12, detail="edge marginals vs pair class sums"
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
            "half_moment_drops": {f"{lo}-{hi}": list(drop)
                                  for lo, hi, drop in zip(r_grid, r_grid[1:], drops)},
            "gaussians_drawn": len(r_grid) * realizations * draws * refs.shape[1] // b,
            "theta_total_mean": float(theta_totals.mean()),
            "kernel_trace_mean": float(traces.mean()),
            "kernel_edge_weight": lam1,
            "pop_size": pop_size,
        }
    )
    return report
