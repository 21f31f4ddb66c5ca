import math

import numpy as np
import pytest

from _oracles import dense_chaos, dense_kahane, dense_kernel, incidence_matrix
from diamondgmc.errors import DomainError, UsageError
from diamondgmc.cascade import (
    SeedSpec,
    assemble,
    default_leaf_population,
    sample_measure_batch,
    substream,
    tree_total,
    upsilon_combine,
)
from diamondgmc.gmc import (
    cameron_martin_density,
    chaos_totals,
    conditional_gmc_experiment,
    edge_weight,
    edge_marginals,
    half_moment_log_bounds,
    kahane_moment,
    renormalization_consistency,
    renormalization_weight_audit,
    sample_gmc,
    shift_field,
    strong_disorder_bound,
    theta_recursion,
)
from diamondgmc.lattice import LatticeParams, enumerate_paths, shared_edge_count
from diamondgmc.rfunction import kappa_sq


@pytest.fixture(scope="module")
def lam2(profile2):
    return edge_weight(profile2, 0.0, 1.0, 2, "exact-discrete")


@pytest.fixture(scope="module")
def kernel2(params2, lam2):
    return dense_kernel(params2, 2, lam2)


def cylinder_weights(leaves, lam, g, b, n):
    """Cylinder chaos weights, (draws, |Gamma_n|), from leaves and (edges, draws) gaussians."""
    return assemble((leaves[:, None] * np.exp(math.sqrt(lam) * g - 0.5 * lam)).T, b, n)


class TestBuildKernel:
    """The dense oracle kernel is lam * N_n, factored through edge incidence."""

    def test_zero_coupling_gives_zero_matrix(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 0.0, 2, "exact-discrete")
        kernel, factor = dense_kernel(params2, 2, lam)
        assert np.all(kernel == 0.0)
        assert np.all(factor == 0.0)

    def test_n1_diagonal_form(self, params2):
        lam = math.log(2.0)
        kernel, _ = dense_kernel(params2, 1, lam)
        assert np.allclose(kernel, lam * np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_gram_reproduces_kernel(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 1.0, 3, "exact-discrete")
        kernel, factor = dense_kernel(params2, 3, lam)
        assert np.max(np.abs(factor @ factor.T - kernel)) <= 1e-12
        paths = enumerate_paths(params2, 3)
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, len(paths), size=(40, 2)):
            assert kernel[i, j] == pytest.approx(
                lam * shared_edge_count(params2, 3, paths[i], paths[j]), rel=1e-15
            )

    def test_positive_semidefinite(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 1.0, 3, "exact-discrete")
        kernel, _ = dense_kernel(params2, 3, lam)
        min_eig = np.linalg.eigvalsh(kernel).min()
        assert min_eig >= -1e-10 * kernel.diagonal().max()

    def test_cholesky_cross_check_n2(self, kernel2):
        kernel, _ = kernel2
        jitter = 1e-12 * np.eye(kernel.shape[0])
        L = np.linalg.cholesky(kernel + jitter)
        assert np.max(np.abs(L @ L.T - kernel)) <= 1e-10

    def test_diagonal_is_row_maximum(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 1.0, 3, "exact-discrete")
        kernel, _ = dense_kernel(params2, 3, lam)
        assert np.all(np.argmax(kernel, axis=1) == np.arange(kernel.shape[0]))

    def test_asymptotic_mode_weight(self, profile2):
        assert edge_weight(profile2, 0.0, 2.0, 4, "asymptotic") == pytest.approx(
            2.0 * kappa_sq(2) / 16.0
        )

    def test_negative_coupling_rejected(self, profile2):
        with pytest.raises(DomainError):
            edge_weight(profile2, 0.0, -0.5, 2, "exact-discrete")

    def test_mode_validation(self, profile2):
        with pytest.raises(UsageError):
            edge_weight(profile2, 0.0, 1.0, 2, "continuum")


class TestSampleGmc:
    def test_zero_kernel_returns_reference(self):
        leaves = substream(0, 8).lognormal(size=16)
        real = sample_gmc(leaves, 2, 0.0, substream(0, 9))
        assert np.array_equal(real.weights, leaves)

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

    def test_weights_nonnegative_finite(self, lam2):
        real = sample_gmc(np.ones(16), 2, lam2, substream(3, 9))
        assert np.all(real.weights >= 0) and np.all(np.isfinite(real.weights))

    def test_reference_shape_checked(self, lam2):
        with pytest.raises(UsageError):
            sample_gmc(np.ones(5), 2, lam2, substream(4, 9))


class TestShiftField:
    def test_zero_shift_identity(self, lam2):
        real = sample_gmc(np.ones(16), 2, lam2, substream(5, 9))
        shifted = shift_field(real, np.zeros(16))
        assert np.array_equal(shifted.weights, real.weights)

    def test_shift_covariance_exact(self, params2, lam2):
        # cylinder weights pick up exp(sqrt(lam) * sum_{e in p} phi_e)
        rng = substream(6, 9)
        real = sample_gmc(np.ones(16), 2, lam2, rng)
        phi = rng.standard_normal(16)
        shifted = shift_field(real, phi)
        inc = incidence_matrix(params2, 2, enumerate_paths(params2, 2))
        direct = assemble(real.weights, 2, 2) * np.exp(math.sqrt(lam2) * inc @ phi)
        assert np.max(np.abs(assemble(shifted.weights, 2, 2) - direct) / direct) <= 1e-12

    def test_cameron_martin_density_is_likelihood_ratio(self):
        rng = substream(7, 9)
        g = rng.standard_normal(16)
        phi = rng.standard_normal(16)
        log_ratio = -0.5 * float(((g - phi) ** 2).sum()) + 0.5 * float((g**2).sum())
        assert cameron_martin_density(phi, g) == pytest.approx(log_ratio, abs=1e-12)


class TestKahane:
    def test_first_moment_is_reference_mass(self, lam2):
        assert kahane_moment(np.ones(16), 2, lam2, m=1) == pytest.approx(1.0)

    def test_hand_enumerated_value(self):
        # n = 1, unit leaves: two paths of mass 1/2 sharing 2 edges with themselves
        value = kahane_moment(np.ones(4), 2, math.log(2.0), m=2)
        assert value == pytest.approx(2.5, abs=1e-12)

    def test_subset_restriction(self, lam2):
        # zeroing the leaves of the second top branch and of branch 2 inside
        # the first segment keeps exactly cylinders 0 and 1
        leaves = np.ones(16)
        leaves[8:] = 0.0
        leaves[2:4] = 0.0
        assert kahane_moment(leaves, 2, lam2, m=1) == pytest.approx(0.25)
        assert np.array_equal(np.nonzero(assemble(leaves, 2, 2))[0], [0, 1])

    def test_monte_carlo_agreement(self, lam2):
        ones = np.ones(16)
        totals = chaos_totals(ones, 2, lam2, substream(8, 9), 200_000)
        for m in (2, 3):
            formula = kahane_moment(ones, 2, lam2, m=m)
            vals = totals**m
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - formula) <= 4 * se

    def test_orders_beyond_three_match_enumeration(self, params2, kernel2, lam2):
        kernel, _ = kernel2
        leaves = substream(8, 10).lognormal(size=16)
        reference = assemble(leaves, 2, 2)
        for m in (4, 5):
            exact = dense_kahane(kernel, reference, m)
            assert kahane_moment(leaves, 2, lam2, m=m) == pytest.approx(exact, rel=1e-12)


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
        g = substream(51, b, n).standard_normal((leaves.size, 40))
        assert self.close(totals, dense_chaos(factor, reference, g).sum(axis=0))
        assert self.close(tree_total(leaves, b), reference.sum())

    def test_quadratic_form_and_kahane(self, b, n, setup):
        lam, leaves, reference, kernel, _ = setup
        assert self.close(kahane_moment(leaves, b, lam, 2), reference @ np.exp(kernel) @ reference)
        assert self.close(kahane_moment(leaves, b, lam, 3), dense_kahane(kernel, reference, 3))

    def test_marginals_t_and_theta(self, b, n, setup):
        lam, leaves, reference, kernel, factor = setup
        inc = factor / math.sqrt(lam)
        marginals = edge_marginals(leaves, b)
        assert self.close(marginals, inc.T @ reference)
        assert self.close(lam * inc @ marginals, kernel @ reference)  # t(p)
        theta = reference @ kernel @ reference
        assert self.close(lam * marginals @ marginals, theta)
        assert self.close(theta_recursion(leaves, b, lam), theta)

    def test_bound_sum(self, b, n, setup):
        lam, leaves, reference, kernel, _ = setup
        t = kernel @ reference
        theta = reference @ t
        grid = [1.0, 4.0]
        want = [
            0.5 * math.log(np.exp(-math.sqrt(r) * t) @ reference) + 0.5 * theta for r in grid
        ]
        assert self.close(half_moment_log_bounds(leaves, b, lam, grid), want)

    def test_shift_covariance(self, b, n, setup):
        lam, leaves, reference, _, factor = setup
        rng = substream(52, b, n)
        real = sample_gmc(leaves, b, lam, rng)
        phi = rng.standard_normal(leaves.size)
        shifted = shift_field(real, phi)
        assert self.close(assemble(real.weights, b, n), dense_chaos(factor, reference, real.gaussian))
        assert self.close(
            assemble(shifted.weights, b, n), dense_chaos(factor, reference, real.gaussian + phi)
        )


class TestCompositionStructure:
    def test_rn_chain_two_step_second_moment(self, profile2):
        # chaos at coupling a then a' over the result matches coupling a + a'
        # in second moments (uniform reference, n = 2)
        ones = np.ones(16)
        lam1 = edge_weight(profile2, 0.0, 1.0, 2, "exact-discrete")
        lam2 = edge_weight(profile2, 1.0, 0.5, 2, "exact-discrete")
        lam12 = edge_weight(profile2, 0.0, 1.5, 2, "exact-discrete")
        draws = 120_000
        rng = substream(9, 9)
        w1 = ones[:, None] * np.exp(
            math.sqrt(lam1) * rng.standard_normal((16, draws)) - 0.5 * lam1
        )
        w2 = w1 * np.exp(math.sqrt(lam2) * rng.standard_normal((16, draws)) - 0.5 * lam2)
        totals_sq = tree_total(w2, 2) ** 2
        target = kahane_moment(ones, 2, lam12, m=2)
        se = totals_sq.std(ddof=1) / math.sqrt(draws)
        assert abs(totals_sq.mean() - target) <= 4 * se

    def test_weight_decomposition_audit_exact(self, profile2):
        assert renormalization_weight_audit(profile2, 0.0, 1.0, 3, 99) <= 1e-12
        assert renormalization_weight_audit(profile2, -3.0, 0.5, 2, 7) <= 1e-12

    def test_audit_needs_composite_generation(self, profile2):
        with pytest.raises(UsageError):
            renormalization_weight_audit(profile2, 0.0, 1.0, 1, 0)

    def test_upsilon_reduction_at_zero_coupling(self, profile2):
        # a = 0: combining b^2 independent references reproduces the law one
        # level up; matched-size second moments agree within 4 combined SEs
        count = 1500
        leaf_low = default_leaf_population(
            2, -6.0, 1, 24, SeedSpec(), 23, pop_size=300_000, profile=profile2
        )
        subs = assemble(
            sample_measure_batch(2, -6.0, 1, count * 4, leaf_low, 23), 2, 1
        ).reshape(count, 2, 2, 2)
        combined_totals = upsilon_combine(subs).sum(axis=-1)
        leaf_up = default_leaf_population(
            2, -5.0, 2, 24, SeedSpec(), 24, pop_size=300_000, profile=profile2
        )
        up_totals = tree_total(sample_measure_batch(2, -5.0, 2, count, leaf_up, 24).T, 2)
        a2, b2 = combined_totals**2, up_totals**2
        comb = math.hypot(
            a2.std(ddof=1) / math.sqrt(count), b2.std(ddof=1) / math.sqrt(count)
        )
        assert abs(a2.mean() - b2.mean()) <= 4 * comb


class TestExperiments:
    def test_conditional_zero_coupling_totals_equal_reference(self, profile2):
        lam = edge_weight(profile2, -6.0, 0.0, 2, "exact-discrete")
        leaf = default_leaf_population(
            2, -6.0, 2, 24, SeedSpec(), 31, pop_size=100_000, profile=profile2
        )
        refs = sample_measure_batch(2, -6.0, 2, 5, leaf, 31)
        for i in range(5):
            totals = chaos_totals(refs[i], 2, lam, substream(31, 9, i), 7)
            assert np.allclose(totals, assemble(refs[i], 2, 2).sum(), rtol=0, atol=1e-15)

    def test_conditional_experiment_tame_config(self, profile2):
        report = conditional_gmc_experiment(
            profile2, -6.0, 1.0, 2, 24, realizations=200, draws=200,
            master_seed=101, leaf_pop_size=200_000, big_direct_size=200_000,
        )
        assert not report.failed
        by_name = {c.name: c for c in report.checks}
        assert by_name["second-moment-vs-1+R"].verdict == "pass"
        assert by_name["conditional-second-moment-layer"].verdict == "pass"

    def test_renormalization_tame_config(self, profile2):
        report = renormalization_consistency(
            profile2, -6.0, 1.0, 2, 24, realizations=150, draws=150,
            master_seed=102, leaf_pop_size=200_000,
        )
        assert not report.failed
        by_name = {c.name: c for c in report.checks}
        assert by_name["weight-decomposition-audit"].verdict == "pass"
        assert by_name["single-level-second-moment"].verdict == "pass"

    def test_strong_disorder_small(self, profile2):
        report = strong_disorder_bound(
            profile2, [1.0, 4.0], 2, 24, realizations=40, draws=150,
            master_seed=103, leaf_pop_size=100_000,
        )
        assert not report.failed

    def test_strong_disorder_grid_validated(self, profile2):
        with pytest.raises(UsageError):
            strong_disorder_bound(
                profile2, [0.0, 1.0], 2, 24, realizations=4, draws=4, master_seed=1
            )


class TestTernaryLattice:
    def test_kahane_agreement_b3(self, profile3):
        lam = edge_weight(profile3, -6.0, 1.0, 2, "exact-discrete")
        ones = np.ones(81)
        totals = chaos_totals(ones, 3, lam, substream(7, 3, 0), 50_000)
        for m in (2, 3):
            formula = kahane_moment(ones, 3, lam, m=m)
            vals = totals**m
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - formula) <= 4 * se

    def test_weight_decomposition_audit_b3(self, profile3):
        assert renormalization_weight_audit(profile3, -4.0, 1.0, 2, 11) <= 1e-12


class TestThetaSummary:
    def test_contraction_audit(self, profile2):
        # theta from the edge marginals and from the upward recursion agree
        lam = edge_weight(profile2, 0.0, 1.0, 2, "asymptotic")
        leaves = substream(11, 9).lognormal(size=16)
        marginals = edge_marginals(leaves, 2)
        theta = lam * marginals @ marginals
        assert theta_recursion(leaves, 2, lam) == pytest.approx(theta, rel=1e-12)
        assert theta > 0
        assert np.all(marginals > 0)

    def test_expected_total_matches_correlation_route(self, profile2):
        # dual route: E[sum T(p,q) M(p) M(q)] over references equals the
        # kernel-weighted correlation mass lam * sum_k k h(k) w(k), computed
        # from the exact histogram rather than any sampling
        from diamondgmc.correlation import correlation_table

        r, n = -6.0, 2
        lam = edge_weight(profile2, r, 1.0, n, "asymptotic")
        table = correlation_table(profile2, r, n)
        expected = lam * sum(k * c * table.weight(k) for k, c in table.histogram.counts)
        leaf = default_leaf_population(
            2, r, n, 24, SeedSpec(), 41, pop_size=400_000, profile=profile2
        )
        refs = sample_measure_batch(2, r, n, 4000, leaf, 41)
        thetas = np.array([theta_recursion(leaves, 2, lam) for leaves in refs])
        se = thetas.std(ddof=1) / math.sqrt(thetas.size)
        assert abs(thetas.mean() - expected) <= 4 * se

    def test_bound_beyond_double_range_stays_finite(self):
        # unit-coupling weight 2 at n = 1, b = 2, leaves 6: every edge carries
        # one path of mass 18, theta = 2 * 4 * 18^2 = 2592 and exp(theta/2)
        # overflows; the log bound is 0.5 * (log 36 - 72 sqrt(r) + theta)
        leaves = np.full(4, 6.0)
        bounds = half_moment_log_bounds(leaves, 2, 2.0, [1.0, 4.0])
        want = [0.5 * (math.log(36.0) - 72.0 * math.sqrt(r) + 2592.0) for r in (1.0, 4.0)]
        assert np.all(np.isfinite(bounds))
        assert bounds == pytest.approx(want, rel=1e-14)
