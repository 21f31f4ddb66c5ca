import itertools
import math
import sys

import numpy as np
import pytest

from _oracles import (
    assemble,
    brute_shared_edges,
    cylinder_chaos_factor,
    dense_chaos,
    dense_kahane,
    dense_kernel,
    incidence_matrix,
    index_ordered_paths,
    upsilon_combine,
)
from diamondgmc import cascade, gmc
from diamondgmc.errors import DomainError, UsageError
from diamondgmc.cascade import (
    SeedSpec,
    horner,
    overlap_moments,
    simulate_mass_trajectory,
    substream,
    tree_total,
)
from diamondgmc.correlation import edge_weight
from diamondgmc.gmc import (
    _REALM_GMC,
    chaos_moment_ladder,
    chaos_totals,
    conditional_gmc_experiment,
    edge_marginals,
    half_moment_log_bounds,
    renormalization_weight_audit,
    shift_law,
    strong_disorder_bound,
)
from diamondgmc.lattice import LatticeParams, path_count_int
from diamondgmc.reporting import mean_se, se_check
from diamondgmc.rfunction import kappa_sq, moment_table


@pytest.fixture(scope="module")
def lam2(profile2):
    return edge_weight(profile2, 0.0, 1.0, 2)


@pytest.fixture(scope="module")
def kernel2(params2, lam2):
    return dense_kernel(params2, 2, lam2)


def theta_from_pair_sums(leaves, b, lam):
    """theta = lam sum_d d S_d from the pair class sums S_d = Q_2[d]; trailing axes batch."""
    pair_sums = overlap_moments(leaves, b, 2)[2]
    return lam * (np.arange(len(pair_sums)) @ pair_sums)


def kahane(leaves, b, lam, m):
    """Exact E[T^m] of the chaos total: the overlap polynomial Q_m at z = exp(lam)."""
    return float(horner(overlap_moments(leaves, b, m)[m], math.exp(lam)))


def readme_shift_law(profile2, seed, sign):
    """``shift_law`` as ``gmc --check shift`` runs it at the README settings (b 2,
    r 0, a 1, n 2, 1000 draws): the constant psi of norm 1/2 over the 8 bottom
    branches, times ``sign``."""
    lam = edge_weight(profile2, 0.0, 1.0, 2)
    psi = np.full(8, sign * 0.5 / math.sqrt(8))
    return shift_law(np.ones(16), 2, lam, psi, substream(seed, _REALM_GMC, 0), 1000)


def cylinder_weights(leaves, lam, g, b, n):
    """Cylinder chaos weights, (draws, |Gamma_n|), from leaves and (edges, draws) gaussians."""
    return assemble((leaves[:, None] * np.exp(math.sqrt(lam) * g - 0.5 * lam)).T, b, n)


class TestBuildKernel:
    """The dense oracle kernel is lam * N_n, factored through edge incidence."""

    def test_zero_coupling_gives_zero_matrix(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 0.0, 2)
        kernel, factor = dense_kernel(params2, 2, lam)
        assert np.all(kernel == 0.0)
        assert np.all(factor == 0.0)

    def test_n1_diagonal_form(self, params2):
        lam = math.log(2.0)
        kernel, _ = dense_kernel(params2, 1, lam)
        assert np.allclose(kernel, lam * np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_gram_reproduces_kernel(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 1.0, 3)
        kernel, factor = dense_kernel(params2, 3, lam)
        assert np.max(np.abs(factor @ factor.T - kernel)) <= 1e-12
        paths = index_ordered_paths(params2, 3)
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, len(paths), size=(40, 2)):
            assert kernel[i, j] == pytest.approx(
                lam * brute_shared_edges(params2, 3, paths[i], paths[j]), rel=1e-15
            )

    def test_positive_semidefinite(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 1.0, 3)
        kernel, _ = dense_kernel(params2, 3, lam)
        min_eig = np.linalg.eigvalsh(kernel).min()
        assert min_eig >= -1e-10 * kernel.diagonal().max()

    def test_cholesky_cross_check_n2(self, kernel2):
        kernel, _ = kernel2
        jitter = 1e-12 * np.eye(kernel.shape[0])
        L = np.linalg.cholesky(kernel + jitter)
        assert np.max(np.abs(L @ L.T - kernel)) <= 1e-10

    def test_diagonal_is_row_maximum(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 1.0, 3)
        kernel, _ = dense_kernel(params2, 3, lam)
        assert np.all(np.argmax(kernel, axis=1) == np.arange(kernel.shape[0]))

    def test_asymptotic_mode_weight(self, profile2):
        # the strong-disorder bound alone uses the unit-coupling weight kappa^2 / n^2
        report = strong_disorder_bound(
            profile2, [1.0], 4, 24, realizations=2, draws=2, master_seed=1, pop_size=1000
        )
        assert report.diagnostics["kernel_edge_weight"] == kappa_sq(2) / 16.0

    def test_negative_coupling_rejected(self, profile2):
        with pytest.raises(DomainError):
            edge_weight(profile2, 0.0, -0.5, 2)


class TestSampleGmc:
    def test_zero_kernel_returns_reference(self):
        leaves = substream(0, 8).lognormal(size=16)
        totals = chaos_totals(leaves, 2, 0.0, substream(0, 9), 5)
        assert np.array_equal(totals, np.full(5, tree_total(leaves, 2)))

    def test_conditional_means(self, lam2):
        draws = 100_000
        g = substream(1, 9).standard_normal((16, draws))
        weights = cylinder_weights(np.ones(16), lam2, g, 2, 2)
        se = weights.std(axis=0, ddof=1) / math.sqrt(draws)
        assert np.all(np.abs(weights.mean(axis=0) - 1.0 / 8.0) <= 4 * se)

    def test_pair_moments(self, kernel2, lam2):
        kernel, _ = kernel2
        draws = 100_000
        g = substream(2, 9).standard_normal((16, draws))
        weights = cylinder_weights(np.ones(16), lam2, g, 2, 2).T
        prods = weights[:, None, :] * weights[None, :, :]
        emp = prods.mean(axis=2)
        se = prods.std(axis=2, ddof=1) / math.sqrt(draws)
        target = np.exp(kernel) / 64.0
        assert np.max(np.abs(emp - target) / se) <= 4.0

    @pytest.mark.parametrize("b, n", [(2, 2), (3, 2)])
    def test_one_gaussian_per_bottom_branch(self, b, n, request, monkeypatch):
        # each route's generator, next drawn, is a fresh stream's after b^(2n-1)
        # normals per draw (and after the audit's b^(2n) lognormal leaves)
        profile = request.getfixturevalue(f"profile{b}")
        leaves, branches = np.ones((b * b) ** n), b ** (2 * n - 1)

        def audit(rng):
            monkeypatch.setattr(gmc, "substream", lambda *key: rng)
            renormalization_weight_audit(profile, 0.0, 1.0, n, 0)

        for take, normals, leaf_draws in (
            (lambda rng: chaos_totals(leaves, b, 0.37, rng, 30), branches * 30, 0),
            (lambda rng: shift_law(leaves, b, 0.37, np.full(branches, 0.1), rng, 30),
             branches * 30, 0),
            (audit, branches, leaves.size),
        ):
            rng, fresh = substream(9, b, n), substream(9, b, n)
            take(rng)
            fresh.standard_normal(normals)
            fresh.lognormal(sigma=0.5, size=leaf_draws)
            assert np.array_equal(rng.standard_normal(8), fresh.standard_normal(8))

    def test_weights_nonnegative_finite(self, lam2):
        totals = chaos_totals(np.ones(16), 2, lam2, substream(4, 9), 1000)
        assert np.all(totals >= 0) and np.all(np.isfinite(totals))


class TestShiftField:
    """The Cameron-Martin law E[T(h + psi)] = E[T(h) exp(<h, psi> - |psi|^2/2)],
    one gaussian h and one shift psi per bottom branch."""

    def test_zero_shift_identity(self, kernel2, lam2):
        # at psi = 0 the density is 1: the sample is the chaos totals of the
        # same draws, and the dense oracle's with each edge of branch B
        # carrying h_B / sqrt(b)
        _, factor = kernel2
        leaves = substream(5, 8).lognormal(size=16)
        target, sample, _ = shift_law(leaves, 2, lam2, np.zeros(8), substream(5, 9), 50)
        assert target == tree_total(leaves, 2)
        assert np.array_equal(sample, chaos_totals(leaves, 2, lam2, substream(5, 9), 50))
        g = np.repeat(substream(5, 9).standard_normal((8, 50)) / math.sqrt(2), 2, axis=0)
        dense = dense_chaos(factor, assemble(leaves, 2, 2), g).sum(axis=0)
        assert np.max(np.abs(sample - dense) / dense) <= 1e-12

    def test_shift_covariance_exact(self, params2, kernel2, lam2):
        # E[T(h + psi)]: each cylinder's mean weight picks up exp(sqrt(lam) sum_{e in p} phi_e)
        # with the per-edge phi = psi_B / sqrt(b) on each edge of branch B; the law SE's
        # second moment is exp(|phi|^2) sum_pq w_p w_q exp(K(p, q)) with
        # w = M exp(2 sqrt(lam) sum_{e in p} phi_e)
        kernel, _ = kernel2
        leaves = substream(6, 8).lognormal(size=16)
        psi = substream(6, 9).standard_normal(8)
        phi = np.repeat(psi / math.sqrt(2), 2)
        draws = 7
        target, _, law = shift_law(leaves, 2, lam2, psi, substream(6, 10), draws)
        inc = incidence_matrix(params2, 2, index_ordered_paths(params2, 2))
        shift = math.sqrt(lam2) * inc @ phi
        reference = assemble(leaves, 2, 2)
        assert target == pytest.approx(reference @ np.exp(shift), rel=1e-12)
        weighted = reference * np.exp(2 * shift)
        second = math.exp(phi @ phi) * (weighted @ np.exp(kernel) @ weighted)
        assert law**2 * draws + target**2 == pytest.approx(second, rel=1e-12)

    def test_cameron_martin_density_is_likelihood_ratio(self, profile2):
        for seed in range(1, 21):
            target, sample, law = readme_shift_law(profile2, seed, 1.0)
            check = se_check("cameron-martin-law", target, *mean_se(sample), 4.0, floor=law)
            assert check.verdict == "pass", (seed, check.detail)
            assert law < 0.1 * target

    def test_flipped_density_sign_fails(self, profile2):
        # the estimate at -phi, read against the target at +phi, reweights the
        # same gaussians by the density with the sign of <g, phi> flipped
        for seed in range(1, 21):
            target, _, _ = readme_shift_law(profile2, seed, 1.0)
            _, flipped, law = readme_shift_law(profile2, seed, -1.0)
            check = se_check("cameron-martin-law", target, *mean_se(flipped), 4.0, floor=law)
            assert check.verdict == "fail", (seed, check.detail)


class TestKahane:
    def test_first_moment_is_reference_mass(self, lam2):
        assert kahane(np.ones(16), 2, lam2, m=1) == pytest.approx(1.0)

    def test_hand_enumerated_value(self):
        # n = 1, unit leaves: two paths of mass 1/2 sharing 2 edges with themselves
        value = kahane(np.ones(4), 2, math.log(2.0), m=2)
        assert value == pytest.approx(2.5, abs=1e-12)

    def test_subset_restriction(self, lam2):
        # zeroing the leaves of the second top branch and of branch 2 inside
        # the first segment keeps exactly cylinders 0 and 1
        leaves = np.ones(16)
        leaves[8:] = 0.0
        leaves[2:4] = 0.0
        assert kahane(leaves, 2, lam2, m=1) == pytest.approx(0.25)
        assert np.array_equal(np.nonzero(assemble(leaves, 2, 2))[0], [0, 1])

    def test_monte_carlo_agreement(self, lam2):
        ones = np.ones(16)
        totals = chaos_totals(ones, 2, lam2, substream(8, 9), 200_000)
        for m in (2, 3):
            formula = kahane(ones, 2, lam2, m=m)
            vals = totals**m
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - formula) <= 4 * se

    def test_orders_beyond_three_match_enumeration(self, params2, kernel2, lam2):
        kernel, _ = kernel2
        leaves = substream(8, 10).lognormal(size=16)
        reference = assemble(leaves, 2, 2)
        for m in (4, 5):
            exact = dense_kahane(kernel, reference, m)
            assert kahane(leaves, 2, lam2, m=m) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("b, n", [(2, 2), (2, 3), (3, 2)])
class TestDenseEquivalence:
    """Leaf-tree functionals against the dense oracle on identical draws."""

    REL = 1e-12

    @pytest.fixture
    def setup(self, b, n):
        lam = 0.37
        leaves = substream(50, b, n).lognormal(sigma=0.8, size=(b * b) ** n)
        kernel, factor = dense_kernel(LatticeParams(b, b), n, lam)
        return lam, leaves, assemble(leaves, b, n), kernel, factor

    def close(self, got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        return np.max(np.abs(got - want) / np.abs(want)) <= self.REL

    def test_totals(self, b, n, setup):
        lam, leaves, reference, _, factor = setup
        totals = chaos_totals(leaves, b, lam, substream(51, b, n), 40)
        # one N(0, b) normal h per bottom branch: each of its b edges carries h / sqrt(b)
        h = substream(51, b, n).standard_normal((leaves.size // b, 40))
        g = np.repeat(h / math.sqrt(b), b, axis=0)
        assert self.close(totals, dense_chaos(factor, reference, g).sum(axis=0))
        assert self.close(tree_total(leaves, b), reference.sum())

    def test_quadratic_form_and_kahane(self, b, n, setup):
        lam, leaves, reference, kernel, _ = setup
        assert self.close(kahane(leaves, b, lam, 2), reference @ np.exp(kernel) @ reference)
        assert self.close(kahane(leaves, b, lam, 3), dense_kahane(kernel, reference, 3))

    def test_marginals_t_and_theta(self, b, n, setup):
        lam, leaves, reference, kernel, factor = setup
        inc = factor / math.sqrt(lam)
        marginals = edge_marginals(leaves, b)
        assert self.close(marginals, inc.T @ reference)
        assert self.close(lam * inc @ marginals, kernel @ reference)  # t(p)
        theta = reference @ kernel @ reference
        assert self.close(lam * marginals @ marginals, theta)
        assert self.close(theta_from_pair_sums(leaves, b, lam), theta)

    def test_bound_sum(self, b, n, setup):
        lam, leaves, reference, kernel, _ = setup
        t = kernel @ reference
        theta = reference @ t
        grid = [1.0, 4.0]
        want = [
            0.5 * math.log(np.exp(-math.sqrt(r) * t) @ reference) + 0.5 * theta for r in grid
        ]
        marginals = edge_marginals(leaves, b)
        bounds = half_moment_log_bounds(
            leaves, marginals, lam * marginals @ marginals, b, lam, grid
        )
        assert self.close(bounds, want)

    def test_shift_covariance(self, b, n, setup):
        lam, leaves, reference, kernel, factor = setup
        branches, draws = leaves.size // b, 40
        psi = substream(53, b, n).standard_normal(branches)
        target, sample, law = shift_law(leaves, b, lam, psi, substream(52, b, n), draws)
        # per edge, each of branch B's b edges carries h_B / sqrt(b) and psi_B / sqrt(b)
        h = substream(52, b, n).standard_normal((branches, draws))
        g, phi = np.repeat(h / math.sqrt(b), b, axis=0), np.repeat(psi / math.sqrt(b), b)
        density = np.exp(phi @ g - 0.5 * phi @ phi)
        assert self.close(sample, dense_chaos(factor, reference, g).sum(axis=0) * density)
        # the field shifted by phi is the chaos over the leaves tilted by
        # exp(sqrt(lam / b) psi_B) on each edge of branch B, whose total is
        # the exact side of the Cameron-Martin law
        tilted = leaves * np.exp(math.sqrt(lam) * phi)
        shifted = chaos_totals(tilted, b, lam, substream(52, b, n), draws)
        assert self.close(shifted, dense_chaos(factor, reference, g + phi[:, None]).sum(axis=0))
        shift = factor @ phi
        assert self.close(target, reference @ np.exp(shift))
        weighted = reference * np.exp(2 * shift)
        second = math.exp(phi @ phi) * (weighted @ np.exp(kernel) @ weighted)
        assert self.close(law**2 * draws + target**2, second)


class TestCompositionStructure:
    def test_rn_chain_two_step_second_moment(self, profile2):
        # chaos at coupling a then a' over the result matches coupling a + a'
        # in second moments (uniform reference, n = 2)
        ones = np.ones(16)
        lam1 = edge_weight(profile2, 0.0, 1.0, 2)
        lam2 = edge_weight(profile2, 1.0, 0.5, 2)
        lam12 = edge_weight(profile2, 0.0, 1.5, 2)
        draws = 120_000
        rng = substream(9, 9)
        w1 = ones[:, None] * np.exp(
            math.sqrt(lam1) * rng.standard_normal((16, draws)) - 0.5 * lam1
        )
        w2 = w1 * np.exp(math.sqrt(lam2) * rng.standard_normal((16, draws)) - 0.5 * lam2)
        totals_sq = tree_total(w2, 2) ** 2
        target = kahane(ones, 2, lam12, m=2)
        se = totals_sq.std(ddof=1) / math.sqrt(draws)
        assert abs(totals_sq.mean() - target) <= 4 * se

    def test_weight_decomposition_audit_exact(self, profile2):
        assert renormalization_weight_audit(profile2, 0.0, 1.0, 3, 99) <= 1e-12
        assert renormalization_weight_audit(profile2, -3.0, 0.5, 2, 7) <= 1e-12

    def test_weight_decomposition_audit_at_n5(self, profile2):
        # 1024 leaves; the cylinder route would need |Gamma_5| = 2^31 weights
        assert renormalization_weight_audit(profile2, 0.0, 1.0, 5, 98) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_cylinder_weight_decomposition_oracle(self, profile2, n):
        # per cylinder, over arbitrary sub-reference vectors (not leaf
        # products): the single-level weights at (r + 1, a, n) equal the
        # composite of the block chaoses at (r, a, n - 1)
        b, r, a = 2, 0.0, 1.0
        lam_full = edge_weight(profile2, r + 1, a, n)
        lam_sub = edge_weight(profile2, r, a, n - 1)
        rng = substream(97, n)
        g = rng.standard_normal((b * b) ** n)
        subs = rng.lognormal(sigma=0.5, size=(b, b, path_count_int(LatticeParams(b, b), n - 1)))
        single = upsilon_combine(subs) * cylinder_chaos_factor(g, b, n, lam_full)
        block_factors = cylinder_chaos_factor(g.reshape(b, b, -1), b, n - 1, lam_sub)
        composite = upsilon_combine(subs * block_factors)
        assert np.max(np.abs(single - composite) / single) <= 1e-12

    def test_audit_needs_composite_generation(self, profile2):
        with pytest.raises(UsageError):
            renormalization_weight_audit(profile2, 0.0, 1.0, 1, 0)

    def test_upsilon_reduction_at_zero_coupling(self, profile2):
        # a = 0: combining b^2 independent references reproduces the law one
        # level up; matched-size second moments agree within 4 combined SEs
        count = 1500
        leaves_low = simulate_mass_trajectory(
            2, -7.0, SeedSpec(), 23, 300_000, 23, leaves=(-6.0, 1, count * 4), profile=profile2
        )[1]
        subs = assemble(leaves_low, 2, 1).reshape(count, 2, 2, 2)
        combined_totals = upsilon_combine(subs).sum(axis=-1)
        leaves_up = simulate_mass_trajectory(
            2, -7.0, SeedSpec(), 22, 300_000, 24, leaves=(-5.0, 2, count), profile=profile2
        )[1]
        up_totals = tree_total(leaves_up.T, 2)
        a2, b2 = combined_totals**2, up_totals**2
        comb = math.hypot(
            a2.std(ddof=1) / math.sqrt(count), b2.std(ddof=1) / math.sqrt(count)
        )
        assert abs(a2.mean() - b2.mean()) <= 4 * comb


class TestChaosMomentLadder:
    """E[T^k] of the chaos over iid leaves, from the leaf law's raw moments."""

    @pytest.mark.parametrize(
        "b, n, values, probs, k_max",
        [
            (2, 1, [0.4, 1.0, 1.9], [0.3, 0.45, 0.25], 6),
            (3, 1, [0.4, 1.0, 1.9], [0.3, 0.45, 0.25], 4),
            (2, 2, [0.5, 1.5], [0.5, 0.5], 3),
        ],
    )
    def test_matches_enumeration(self, b, n, values, probs, k_max):
        # sum over every leaf assignment of P(leaves) Q_k(e^lam)
        lam = 0.37
        picks = np.array(list(itertools.product(range(len(values)), repeat=(b * b) ** n))).T
        weights = np.prod(np.asarray(probs)[picks], axis=0)
        overlap = overlap_moments(np.asarray(values)[picks], b, k_max)
        enumerated = [float(weights @ horner(overlap[k], math.exp(lam))) for k in range(k_max + 1)]
        leaf = [float(np.dot(probs, np.power(values, k))) for k in range(k_max + 1)]
        ladder = chaos_moment_ladder(b, leaf, lam, n)
        assert np.max(np.abs(np.subtract(ladder, enumerated)) / enumerated) <= 1e-12

    @pytest.mark.parametrize("b", [2, 3])
    def test_law_second_moment_is_one_plus_R(self, b, profile2, profile3):
        # the exact-discrete kernel makes E[T^2] = 1 + R(r + a) at every finite n
        profile = {2: profile2, 3: profile3}[b]
        worst = 0.0
        for r, a, n in itertools.product([-6.0, -2.5, 0.0, 1.0], [0.0, 0.5, 1.0, 2.0], range(1, 6)):
            lam = edge_weight(profile, r, a, n)
            leaf = moment_table(profile, [r - n], 4, "two-point", 24 - n).raw[0]
            target = 1.0 + profile.evaluate_R(r + a)
            worst = max(worst, abs(chaos_moment_ladder(b, leaf, lam, n)[2] - target) / target)
        assert worst <= 1e-12

    def test_out_of_range_moments_read_inf(self):
        # 10^300 overflows in its b-th power, and a nan enters as out of range
        assert chaos_moment_ladder(2, [1.0, 1.0, 2.0, 1e300], 0.0, 1) == [1.0, 1.0, 2.5, math.inf]
        assert chaos_moment_ladder(2, [np.nan] * 3, 0.5, 2) == [1.0, math.inf, math.inf]


class TestExperiments:
    def test_conditional_zero_coupling_totals_equal_reference(self, profile2):
        lam = edge_weight(profile2, -6.0, 0.0, 2)
        refs = simulate_mass_trajectory(
            2, -8.0, SeedSpec(), 22, 100_000, 31, leaves=(-6.0, 2, 5), profile=profile2
        )[1]
        for i in range(5):
            totals = chaos_totals(refs[i], 2, lam, substream(31, 9, i), 7)
            assert np.allclose(totals, assemble(refs[i], 2, 2).sum(), rtol=0, atol=1e-15)

    def test_conditional_experiment_tame_config(self, profile2):
        report = conditional_gmc_experiment(
            profile2, -6.0, 1.0, 2, 24, realizations=200, draws=200,
            master_seed=101, pop_size=200_000,
        )
        assert not report.failed
        by_name = {c.name: c for c in report.checks}
        assert by_name["second-moment-vs-1+R"].verdict == "pass"
        assert by_name["conditional-second-moment-layer"].verdict == "pass"

    @pytest.mark.parametrize("workers", [None, 4])  # usable CPUs; more threads than cores
    def test_threaded_runs_match_serial_bit_for_bit(self, profile2, monkeypatch, workers):
        # every array a per-reference task writes, read from the task's closure
        written = []
        for_each, usable = gmc.for_each, cascade.worker_count

        def recording(task, count):
            for_each(task, count)
            cells = (c.cell_contents for c in task.__closure__)
            written.append({
                name: value for name, value in zip(task.__code__.co_freevars, cells)
                if isinstance(value, np.ndarray) and name != "refs"
            })

        def run(worker_count):
            monkeypatch.setattr(cascade, "worker_count", worker_count)
            conditional_gmc_experiment(
                profile2, -6.0, 1.0, 2, 24, realizations=40, draws=400,
                master_seed=7, pop_size=20_000,
            )
            strong_disorder_bound(
                profile2, [1.0, 4.0], 2, 24, realizations=20, draws=200,
                master_seed=8, pop_size=20_000,
            )

        monkeypatch.setattr(gmc, "for_each", recording)
        run(lambda tasks: 1)
        serial, written[:] = list(written), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run(usable if workers is None else lambda tasks: min(tasks, workers))
        finally:
            sys.setswitchinterval(interval)
        assert [sorted(w) for w in serial] == [
            ["totals"],
            ["half", "half_se", "log_bounds", "ref_totals", "t_pos_fraction", "theta_totals"],
        ]
        assert [sorted(w) for w in written] == [sorted(w) for w in serial]
        for one, threaded in zip(serial, written):
            for name in one:
                assert np.array_equal(one[name], threaded[name]), name

    def test_conditional_simulates_only_the_leaf_pool(self, profile2, monkeypatch):
        calls = []
        trajectory = cascade.simulate_mass_trajectory

        def counting(b, r, seed_spec, depth, size, *args, **kwargs):
            calls.append((r, depth, size))
            return trajectory(b, r, seed_spec, depth, size, *args, **kwargs)

        monkeypatch.setattr(gmc, "simulate_mass_trajectory", counting)
        conditional_gmc_experiment(
            profile2, -6.0, 1.0, 2, 24, realizations=10, draws=20,
            master_seed=9, pop_size=20_000,
        )
        assert calls == [(-8.0, 22, 20_000)]  # leaf level r - n, depth - n steps

    def test_strong_disorder_small(self, profile2):
        report = strong_disorder_bound(
            profile2, [1.0, 4.0], 2, 24, realizations=40, draws=150,
            master_seed=103, pop_size=100_000,
        )
        assert not report.failed
        # the decay reads each reference's paired drop, with its SE over the island groups
        half = report.arrays["half_moments"]
        drop, se = cascade.island_group_mean_se(half[:, 0] - half[:, 1])
        assert report.diagnostics["half_moment_drops"] == {"1.0-4.0": [drop, se]}

    def test_gaussians_drawn_one_per_bottom_branch(self, profile2, profile3):
        shift = gmc.shift_experiment(profile3, 0.0, 1.0, 2, 30, 1)
        assert shift.diagnostics["gaussians_drawn"] == 3**3 * 30
        kahane = gmc.kahane_experiment(profile3, 0.0, 1.0, 2, 30, 1)
        assert kahane.diagnostics["gaussians_drawn"] == 3**3 * 30
        conditional = conditional_gmc_experiment(
            profile2, -6.0, 1.0, 2, 24, realizations=10, draws=20,
            master_seed=9, pop_size=20_000,
        )
        assert conditional.diagnostics["gaussians_drawn"] == 10 * 20 * 2**3
        strong = strong_disorder_bound(
            profile2, [1.0, 4.0], 2, 24, realizations=4, draws=5, master_seed=1, pop_size=1000
        )
        assert strong.diagnostics["gaussians_drawn"] == 2 * 4 * 5 * 2**3

    def test_strong_disorder_one_point_grid_has_no_decay(self, profile2):
        # one grid point has no drop to compare: the decay row is omitted, the bound still runs
        report = strong_disorder_bound(
            profile2, [4.0], 2, 24, realizations=16, draws=20, master_seed=1, pop_size=1000
        )
        names = [c.name for c in report.checks]
        assert "half-moment-decay" not in names and "half-moment-bound" in names
        assert report.diagnostics["half_moment_drops"] == {}

    def test_strong_disorder_grid_validated(self, profile2):
        with pytest.raises(UsageError):
            strong_disorder_bound(
                profile2, [0.0, 1.0], 2, 24, realizations=4, draws=4, master_seed=1
            )


class TestTernaryLattice:
    def test_kahane_agreement_b3(self, profile3):
        lam = edge_weight(profile3, -6.0, 1.0, 2)
        ones = np.ones(81)
        totals = chaos_totals(ones, 3, lam, substream(7, 3, 0), 50_000)
        for m in (2, 3):
            formula = kahane(ones, 3, lam, m=m)
            vals = totals**m
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - formula) <= 4 * se

    def test_weight_decomposition_audit_b3(self, profile3):
        assert renormalization_weight_audit(profile3, -4.0, 1.0, 2, 11) <= 1e-12


class TestThetaSummary:
    def test_contraction_audit(self, profile2):
        # theta from the edge marginals and from the pair class sums agree
        lam = kappa_sq(2) / 2**2
        leaves = substream(11, 9).lognormal(size=16)
        marginals = edge_marginals(leaves, 2)
        theta = lam * marginals @ marginals
        assert theta_from_pair_sums(leaves, 2, lam) == pytest.approx(theta, rel=1e-12)
        assert theta > 0
        assert np.all(marginals > 0)

    def test_expected_total_matches_correlation_route(self, profile2):
        # dual route: E[sum T(p,q) M(p) M(q)] over references equals the
        # kernel-weighted correlation mass lam * sum_k k h(k) w(k), computed
        # from the exact histogram rather than any sampling
        from diamondgmc.correlation import correlation_table, pair_count_histogram

        r, n = -6.0, 2
        lam = kappa_sq(2) / n**2
        table = correlation_table(profile2, r, n)
        expected = lam * sum(
            k * c * math.exp(table.log_weight(k))
            for k, c in pair_count_histogram(LatticeParams(2, 2), n)
        )
        refs = simulate_mass_trajectory(
            2, r - n, SeedSpec(), 24 - n, 400_000, 41, leaves=(r, n, 4000), profile=profile2
        )[1]
        thetas = theta_from_pair_sums(refs.T, 2, lam)
        se = thetas.std(ddof=1) / math.sqrt(thetas.size)
        assert abs(thetas.mean() - expected) <= 4 * se

    def test_bound_beyond_double_range_stays_finite(self):
        # unit-coupling weight 2 at n = 1, b = 2, leaves 6: every edge carries
        # one path of mass 18, theta = 2 * 4 * 18^2 = 2592 and exp(theta/2)
        # overflows; the log bound is 0.5 * (log 36 - 72 sqrt(r) + theta)
        leaves = np.full(4, 6.0)
        marginals = edge_marginals(leaves, 2)
        bounds = half_moment_log_bounds(
            leaves, marginals, 2.0 * marginals @ marginals, 2, 2.0, [1.0, 4.0]
        )
        want = [0.5 * (math.log(36.0) - 72.0 * math.sqrt(r) + 2592.0) for r in (1.0, 4.0)]
        assert np.all(np.isfinite(bounds))
        assert bounds == pytest.approx(want, rel=1e-14)
