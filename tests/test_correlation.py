import math
import sys

import numpy as np
import pytest

from _oracles import (
    all_paths,
    brute_pair_histogram,
    histogram_mass_all_terms,
    index_ordered_paths,
    pair_histogram_by_recursion,
    shared_edge_matrix,
    upsilon_pair_matrix,
)
from diamondgmc import correlation
from diamondgmc.errors import BudgetError, DomainError, UsageError
from diamondgmc.correlation import (
    HISTOGRAM_EDGE_BUDGET,
    conditional_pair_histogram,
    correlation_table,
    edge_weight,
    histogram_mass,
    kernel_marginal_identity_check,
    marginal_check,
    pair_count_histogram,
    rho_total,
)
from diamondgmc.lattice import LatticeParams, path_count_int
from diamondgmc.rfunction import VarianceProfile, kappa_sq, psi


class TestPairCountHistogram:
    def test_matches_brute_force_n1(self, params2):
        assert dict(pair_count_histogram(params2, 1)) == brute_pair_histogram(
            params2, 1
        ) == {0: 2, 2: 2}

    def test_matches_brute_force_n2(self, params2):
        assert dict(pair_count_histogram(params2, 2)) == brute_pair_histogram(
            params2, 2
        ) == {0: 40, 2: 16, 4: 8}

    def test_matches_brute_force_b3_n1(self):
        params = LatticeParams(3, 3)
        assert dict(pair_count_histogram(params, 1)) == brute_pair_histogram(
            params, 1
        )

    def test_mass_partition_n2(self, params2):
        assert sum(c for _, c in pair_count_histogram(params2, 2)) == 64

    @pytest.mark.parametrize("b, n_max", [(2, 13), (3, 8), (4, 6), (5, 5)])
    def test_exact_moment_identities_to_budget_edge(self, b, n_max):
        # N_n is 0 off q's top branch and a sum of b copies of N_(n-1) on it,
        # so E N_n = 1 and E N_n^2 = 1 + (b - 1) n over uniform pairs
        params = LatticeParams(b, b)
        for n in range(n_max + 1):
            hist = pair_count_histogram(params, n)
            total = path_count_int(params, n) ** 2
            assert sum(c for _, c in hist) == total
            assert sum(k * c for k, c in hist) == total
            assert sum(k * k * c for k, c in hist) == (1 + (b - 1) * n) * total

    def test_matches_recursion_oracle(self):
        # H_n = |Gamma_n| c_n against the pair recursion, exactly
        for b, n_max in ((2, 11), (3, 6), (4, 4)):
            for n in range(n_max + 1):
                hist = pair_count_histogram(LatticeParams(b, b), n)
                assert hist == pair_histogram_by_recursion(b, n)

    def test_non_critical_rejected(self):
        with pytest.raises(UsageError):
            pair_count_histogram(LatticeParams(2, 3), 1)

    @pytest.mark.parametrize("b, feasible", [(2, 13), (3, 8), (4, 6), (5, 5)])
    def test_edge_budget(self, b, feasible, monkeypatch):
        # b^n <= 8192 shared edges; beyond it the error comes before any step
        def no_step(*args):
            raise AssertionError("a histogram step ran before the budget check")

        monkeypatch.setattr(correlation, "_power", no_step)
        with pytest.raises(BudgetError, match=f"largest feasible n at b = {b} is {feasible}$"):
            pair_count_histogram(LatticeParams(b, b), feasible + 1)
        assert b**feasible <= HISTOGRAM_EDGE_BUDGET < b ** (feasible + 1)
        # the step to n = feasible packs the widest slots, and int() reads a
        # slot back only within the interpreter's digit limit
        width = correlation._slot_width(path_count_int(LatticeParams(b, b), feasible - 1), b)
        assert width <= (sys.get_int_max_str_digits() or math.inf)


class TestHistogramMass:
    @pytest.mark.parametrize(
        "b, r, n, tilt",
        [
            (2, 0.0, 11, 0.0),
            (2, 3.0, 8, 0.4),
            (3, 5.0, 7, 0.0),
            (3, 5.0, 7, -0.3),
            # the longest counts within the histogram budget
            (2, 0.0, 13, 0.0),
            (4, -2.0, 6, 0.0),
        ],
    )
    def test_window_matches_every_term_sum(self, b, r, n, tilt):
        # the terms more than e^-80 below the largest cannot move the sum;
        # the reference sums every term of the pair counts H_n over
        # |Gamma_n|^2, the marginal every term of c_n
        table = correlation_table(VarianceProfile(b), r, n)
        pairs = pair_count_histogram(LatticeParams(b, b), n)
        assert histogram_mass(table, tilt) == histogram_mass_all_terms(table, pairs, tilt)
        assert marginal_check(table) == histogram_mass_all_terms(table, table.conditional)


class TestUpsilonTotalMass:
    def test_one_step_algebraic_identity(self, profile2):
        table = correlation_table(profile2, 0.0, 1)
        R_shift = profile2.evaluate_R(-1.0)
        explicit = 0.25 * (2.0 + 2.0 * (1.0 + R_shift) ** 2)
        assert histogram_mass(table) == pytest.approx(explicit, abs=1e-12)
        assert explicit == pytest.approx(1.0 + psi(2, R_shift), abs=1e-12)

    def test_weak_disorder_limit(self, profile2):
        table = correlation_table(profile2, -1e4, 3)
        assert histogram_mass(table) == pytest.approx(1.0, abs=1e-3)
        assert math.exp(table.log_weight(0)) == pytest.approx(1.0 / 128**2, rel=1e-12)

    def test_generation_consistency(self, profile2):
        target = 1.0 + profile2.evaluate_R(0.0)
        masses = [
            histogram_mass(correlation_table(profile2, 0.0, n))
            for n in range(1, 11)
        ]
        assert max(abs(m - target) for m in masses) < 1e-9

    def test_n2_vs_n5(self, profile2):
        m2 = histogram_mass(correlation_table(profile2, 0.0, 2))
        m5 = histogram_mass(correlation_table(profile2, 0.0, 5))
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
            shared = shared_edge_matrix(params, n, all_paths(params, n)).astype(int)
            expected = dict(conditional_pair_histogram(b, n))
            for row in shared:
                counts = np.bincount(row)
                assert {k: int(c) for k, c in enumerate(counts) if c} == expected

    def test_weak_disorder_limit(self, profile2):
        table = correlation_table(profile2, -1e4, 2)
        assert marginal_check(table) == pytest.approx(1.0 / 8.0, rel=1e-3)

    def test_conditional_histogram_total(self, params2):
        cond = conditional_pair_histogram(2, 3)
        assert sum(c for _, c in cond) == path_count_int(params2, 3)


class TestRnKernel:
    def test_zero_shift(self, profile2):
        assert 7 * edge_weight(profile2, 0.0, 0.0, 4) == 0.0

    def test_zero_intersections(self, profile2):
        assert 0 * edge_weight(profile2, 0.0, 1.0, 4) == 0.0

    def test_negative_shift_rejected(self, profile2):
        with pytest.raises(DomainError):
            edge_weight(profile2, 0.0, -1.0, 4)

    def test_exactness_identity(self, profile2):
        # sum h * w_r * exp(K) reproduces the total mass at r + a
        for n in (2, 5, 8):
            table = correlation_table(profile2, 0.0, n)
            terms = [
                math.log(c)
                + table.log_weight(k)
                + k * edge_weight(profile2, 0.0, 1.0, n)
                for k, c in pair_count_histogram(LatticeParams(2, 2), n)
            ]
            peak = max(terms)
            total = math.exp(peak) * math.fsum(math.exp(t - peak) for t in terms)
            assert total == pytest.approx(
                1.0 + profile2.evaluate_R(1.0), abs=1e-9
            )

    def test_chain_rule_exact(self, profile2):
        for N in (0, 1, 4, 16):
            two_steps = N * edge_weight(profile2, 0.0, 1.0, 6) + N * edge_weight(
                profile2, 1.0, 0.5, 6
            )
            one_step = N * edge_weight(profile2, 0.0, 1.5, 6)
            assert abs(two_steps - one_step) <= 1e-12

    def test_asymptotic_rate(self, profile2):
        # n^2 K / (kappa^2 N) approaches 1 like O(log n / n): about +10%
        # at n = 64 and within 5% by n = 256
        for n, band in ((64, 0.15), (256, 0.05)):
            ratio = (
                n**2
                * edge_weight(profile2, 0.0, 1.0, n)
                / kappa_sq(2)
            )
            assert 1.0 < ratio < 1.0 + band


class TestLebesgue:
    def test_rho_total_is_one(self, profile2):
        assert rho_total(correlation_table(profile2, 0.0, 3)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("r", [-1e40, -1e100])
    def test_rho_total_is_one_where_1_plus_R_rounds_to_1(self, b, r):
        # R(r - 3), about kappa^2 / |r|, is below 1e-30: 30 digits of 1 + R
        # read 1, and S / |Gamma_n| - 1 would read 0
        profile = VarianceProfile(b)
        assert profile.evaluate_R(r - 3) < 1e-30
        assert rho_total(correlation_table(profile, r, 3)) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_dominates(self, profile2):
        # rho's weight (1 + R(r - n))^N - 1 grows with the shared-edge count N
        table = correlation_table(profile2, 0.0, 3)
        weights = [math.expm1(N * table.log1p_R_shifted) for N in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(weights, weights[1:]))

    def test_product_part_is_uniform(self, profile2):
        table = correlation_table(profile2, 0.0, 3)
        # 1/|Gamma_n|^2 on every pair, one in total
        pairs = sum(c for _, c in pair_count_histogram(LatticeParams(2, 2), 3))
        assert pairs == path_count_int(LatticeParams(2, 2), 3) ** 2
        assert pairs * math.exp(-2 * table.log_gamma) == pytest.approx(1.0, rel=1e-12)


class TestKernelMarginalIdentity:
    def test_one_step_exact(self, profile2):
        log_lhs, log_rhs = kernel_marginal_identity_check(profile2, 0.0, 1)
        R, Rp = profile2.evaluate_pair(-1.0)
        assert math.exp(log_lhs) == pytest.approx(2.0 * (1.0 + R) * Rp / 4.0, rel=1e-12)
        assert abs(math.expm1(log_lhs - log_rhs)) <= 1e-10

    def test_relative_agreement_up_to_n8(self, profile2):
        for n in range(1, 9):
            log_lhs, log_rhs = kernel_marginal_identity_check(profile2, 0.0, n)
            assert abs(math.expm1(log_lhs - log_rhs)) <= 1e-8

    def test_deep_asymptotic_ratio(self, profile2):
        log_lhs, log_rhs = kernel_marginal_identity_check(profile2, -1e4, 2)
        assert math.exp(log_lhs - log_rhs) == pytest.approx(1.0, abs=1e-6)

    def test_beyond_double_range(self, profile3):
        # b = 3, n = 7: rhs = R'(0) 3^(-1093) is far below the smallest double
        log_lhs, log_rhs = kernel_marginal_identity_check(profile3, 0.0, 7)
        assert log_rhs < math.log(sys.float_info.min)
        assert abs(math.expm1(log_lhs - log_rhs)) <= 1e-8


class TestTernaryLattice:
    """The identities hold for every critical b; spot-check b = 3."""

    def test_total_mass_and_marginals(self, profile3):
        target = 1.0 + profile3.evaluate_R(0.0)
        masses = [
            histogram_mass(correlation_table(profile3, 0.0, n))
            for n in range(1, 7)
        ]
        assert max(abs(m - target) for m in masses) < 1e-9
        table = correlation_table(profile3, 0.0, 2)
        assert abs(marginal_check(table) - target / 81.0) <= 1e-12

    def test_kernel_marginal_and_rho(self, profile3):
        log_lhs, log_rhs = kernel_marginal_identity_check(profile3, 0.0, 4)
        assert abs(math.expm1(log_lhs - log_rhs)) <= 1e-8
        assert rho_total(correlation_table(profile3, 0.0, 3)) == pytest.approx(1.0, abs=1e-9)


class TestPairMatrix:
    def test_matches_weights_from_counts(self, profile2, params2):
        support = index_ordered_paths(params2, 2)
        table = correlation_table(profile2, 0.0, 2)
        U = upsilon_pair_matrix(table, support)
        N = shared_edge_matrix(params2, 2, support)
        for i in range(8):
            for j in range(8):
                assert U[i, j] == pytest.approx(
                    math.exp(table.log_weight(int(N[i, j]))), rel=1e-12
                )

    def test_support_generation_checked(self, profile2, params2):
        table = correlation_table(profile2, 0.0, 2)
        with pytest.raises(UsageError):
            upsilon_pair_matrix(table, index_ordered_paths(params2, 1))
