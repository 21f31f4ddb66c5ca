import math

import numpy as np
import pytest

from _oracles import brute_pair_histogram, shared_edge_matrix
from diamondgmc.errors import UsageError
from diamondgmc.correlation import (
    conditional_pair_histogram,
    correlation_table,
    kernel_marginal_identity_check,
    lebesgue_decomposition_weights,
    marginal_check,
    pair_count_histogram,
    rn_log_kernel,
    upsilon_pair_matrix,
    upsilon_total_mass,
)
from diamondgmc.lattice import (
    LatticeParams,
    enumerate_paths,
    path_count_int,
    shared_edge_count,
)
from diamondgmc.rfunction import kappa_sq, psi


class TestPairCountHistogram:
    def test_matches_brute_force_n1(self, params2):
        assert pair_count_histogram(params2, 1).as_dict() == brute_pair_histogram(
            params2, 1
        ) == {0: 2, 2: 2}

    def test_matches_brute_force_n2(self, params2):
        assert pair_count_histogram(params2, 2).as_dict() == brute_pair_histogram(
            params2, 2
        ) == {0: 40, 2: 16, 4: 8}

    def test_matches_brute_force_b3_n1(self):
        params = LatticeParams(3, 3)
        assert pair_count_histogram(params, 1).as_dict() == brute_pair_histogram(
            params, 1
        )

    def test_mass_partition_n2(self, params2):
        assert pair_count_histogram(params2, 2).total_pairs() == 64

    def test_exact_moment_identities_up_to_n12(self, params2):
        for n in range(13):
            hist = pair_count_histogram(params2, n)
            total = path_count_int(params2, n) ** 2
            assert hist.total_pairs() == total
            assert hist.moment(1) == total
            assert hist.moment(2) == (1 + n) * total

    def test_non_critical_rejected(self):
        with pytest.raises(UsageError):
            pair_count_histogram(LatticeParams(2, 3), 1)


class TestUpsilonTotalMass:
    def test_one_step_algebraic_identity(self, profile2):
        table = correlation_table(profile2, 0.0, 1)
        R_shift = profile2.evaluate_R(-1.0)
        explicit = 0.25 * (2.0 + 2.0 * (1.0 + R_shift) ** 2)
        assert upsilon_total_mass(table) == pytest.approx(explicit, abs=1e-12)
        assert explicit == pytest.approx(1.0 + psi(2, R_shift), abs=1e-12)

    def test_weak_disorder_limit(self, profile2):
        table = correlation_table(profile2, -1e4, 3)
        assert upsilon_total_mass(table) == pytest.approx(1.0, abs=1e-3)
        assert table.weight(0) == pytest.approx(1.0 / 128**2, rel=1e-12)

    def test_generation_consistency(self, profile2):
        target = 1.0 + profile2.evaluate_R(0.0)
        masses = [
            upsilon_total_mass(correlation_table(profile2, 0.0, n))
            for n in range(1, 11)
        ]
        assert max(abs(m - target) for m in masses) < 1e-9

    def test_n2_vs_n5(self, profile2):
        m2 = upsilon_total_mass(correlation_table(profile2, 0.0, 2))
        m5 = upsilon_total_mass(correlation_table(profile2, 0.0, 5))
        assert abs(m2 - m5) < 1e-9


class TestMarginal:
    def test_one_step_closed_form(self, profile2):
        table = correlation_table(profile2, 0.0, 1)
        assert marginal_check(table) == pytest.approx(
            (1.0 + profile2.evaluate_R(0.0)) / 2.0, rel=1e-12
        )

    def test_path_independence_by_enumeration(self):
        # homogeneity of the path space, checked rather than assumed: every
        # fixed p sees exactly the conditional histogram over q in Gamma_n,
        # so the marginal and kernel-marginal checks hold for every p
        for b, n in ((2, 2), (2, 3), (3, 2)):
            params = LatticeParams(b, b)
            paths = enumerate_paths(params, n)
            expected = dict(conditional_pair_histogram(b, n))
            for p in paths:
                counts = np.bincount(shared_edge_count(params, n, p, paths))
                assert {k: int(c) for k, c in enumerate(counts) if c} == expected

    def test_weak_disorder_limit(self, profile2):
        table = correlation_table(profile2, -1e4, 2)
        assert marginal_check(table) == pytest.approx(1.0 / 8.0, rel=1e-3)

    def test_conditional_histogram_total(self, params2):
        cond = conditional_pair_histogram(2, 3)
        assert sum(c for _, c in cond) == path_count_int(params2, 3)


class TestRnKernel:
    def test_zero_shift(self, profile2):
        assert rn_log_kernel(profile2, 0.0, 0.0, 4, 7) == 0.0

    def test_zero_intersections(self, profile2):
        assert rn_log_kernel(profile2, 0.0, 1.0, 4, 0) == 0.0

    def test_negative_shift_rejected(self, profile2):
        with pytest.raises(UsageError):
            rn_log_kernel(profile2, 0.0, -1.0, 4, 1)

    def test_exactness_identity(self, profile2):
        # sum h * w_r * exp(K) reproduces the total mass at r + a
        for n in (2, 5, 8):
            table = correlation_table(profile2, 0.0, n)
            terms = [
                math.log(c)
                + table.log_weight(k)
                + rn_log_kernel(profile2, 0.0, 1.0, n, k)
                for k, c in table.histogram.counts
            ]
            peak = max(terms)
            total = math.exp(peak) * math.fsum(math.exp(t - peak) for t in terms)
            assert total == pytest.approx(
                1.0 + profile2.evaluate_R(1.0), abs=1e-9
            )

    def test_chain_rule_exact(self, profile2):
        for N in (0, 1, 4, 16):
            two_steps = rn_log_kernel(profile2, 0.0, 1.0, 6, N) + rn_log_kernel(
                profile2, 1.0, 0.5, 6, N
            )
            one_step = rn_log_kernel(profile2, 0.0, 1.5, 6, N)
            assert abs(two_steps - one_step) <= 1e-12

    def test_asymptotic_rate(self, profile2):
        # n^2 K / (kappa^2 N) approaches 1 like O(log n / n): about +10%
        # at n = 64 and within 5% by n = 256
        for n, band in ((64, 0.15), (256, 0.05)):
            ratio = (
                n**2
                * rn_log_kernel(profile2, 0.0, 1.0, n, 1)
                / kappa_sq(2)
            )
            assert 1.0 < ratio < 1.0 + band


class TestLebesgue:
    def test_rho_vanishes_off_intersections(self, profile2):
        leb = lebesgue_decomposition_weights(correlation_table(profile2, 0.0, 3))
        assert leb.rho_log_weight(0) == -math.inf

    def test_rho_total_is_one(self, profile2):
        leb = lebesgue_decomposition_weights(correlation_table(profile2, 0.0, 3))
        assert leb.rho_total() == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_dominates(self, profile2):
        leb = lebesgue_decomposition_weights(correlation_table(profile2, 0.0, 3))
        weights = [leb.rho_log_weight(N) for N in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(weights, weights[1:]))

    def test_product_part_is_uniform(self, profile2):
        table = correlation_table(profile2, 0.0, 3)
        leb = lebesgue_decomposition_weights(table)
        assert leb.product_log_weight == pytest.approx(-2 * table.log_gamma)


class TestKernelMarginalIdentity:
    def test_one_step_exact(self, profile2):
        lhs, rhs = kernel_marginal_identity_check(profile2, 0.0, 1)
        R, Rp = profile2.evaluate_pair(-1.0)
        assert lhs == pytest.approx(2.0 * (1.0 + R) * Rp / 4.0, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_relative_agreement_up_to_n8(self, profile2):
        for n in range(1, 9):
            lhs, rhs = kernel_marginal_identity_check(profile2, 0.0, n)
            assert abs(lhs - rhs) / rhs <= 1e-8

    def test_deep_asymptotic_ratio(self, profile2):
        lhs, rhs = kernel_marginal_identity_check(profile2, -1e4, 2)
        assert lhs / rhs == pytest.approx(1.0, abs=1e-6)


class TestTernaryLattice:
    """The identities hold for every critical b; spot-check b = 3."""

    def test_total_mass_and_marginals(self, profile3):
        target = 1.0 + profile3.evaluate_R(0.0)
        masses = [
            upsilon_total_mass(correlation_table(profile3, 0.0, n))
            for n in range(1, 7)
        ]
        assert max(abs(m - target) for m in masses) < 1e-9
        table = correlation_table(profile3, 0.0, 2)
        assert abs(marginal_check(table) - target / 81.0) <= 1e-12

    def test_kernel_marginal_and_rho(self, profile3):
        lhs, rhs = kernel_marginal_identity_check(profile3, 0.0, 4)
        assert abs(lhs - rhs) / rhs <= 1e-8
        leb = lebesgue_decomposition_weights(correlation_table(profile3, 0.0, 3))
        assert leb.rho_total() == pytest.approx(1.0, abs=1e-9)


class TestPairMatrix:
    def test_matches_weights_from_counts(self, profile2, params2):
        support = enumerate_paths(params2, 2)
        table = correlation_table(profile2, 0.0, 2)
        U = upsilon_pair_matrix(table, support)
        N = shared_edge_matrix(params2, 2, support)
        for i in range(8):
            for j in range(8):
                assert U[i, j] == pytest.approx(
                    table.weight(int(N[i, j])), rel=1e-12
                )

    def test_support_generation_checked(self, profile2, params2):
        table = correlation_table(profile2, 0.0, 2)
        with pytest.raises(UsageError):
            upsilon_pair_matrix(table, enumerate_paths(params2, 1))
