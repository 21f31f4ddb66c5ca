import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from _oracles import (
    all_paths,
    brute_shared_edges,
    edge_index_from_label,
    edge_label_chains,
    incidence_matrix,
    path_edge_indices,
    shared_edge_matrix,
)
from diamondgmc.errors import BudgetError, DomainError, UsageError
from diamondgmc.lattice import (
    BigCount,
    CylinderPath,
    LatticeParams,
    decision_count,
    enumerate_paths,
    intersection_fixed_point,
    intersection_hausdorff_dim,
    join_paths,
    kernel_estimate,
    path_count,
    path_count_int,
    path_from_index,
    path_index,
    sample_uniform_path,
    shared_edge_count,
    ultrametric_proxy_distance,
)


def random_path(params, n, rng):
    return sample_uniform_path(params, n, rng)


class TestParams:
    def test_validation(self):
        with pytest.raises(UsageError):
            LatticeParams(1, 2)
        with pytest.raises(UsageError):
            LatticeParams(2, 1)

    def test_critical(self):
        assert LatticeParams(2, 2).critical()
        assert not LatticeParams(2, 3).critical()
        with pytest.raises(UsageError):
            LatticeParams(2, 3).require_critical()


class TestPathCount:
    def test_generation_zero(self, params2):
        assert path_count(params2, 0).exact == 1

    def test_enumeration_oracle_n2(self, params2):
        # every decision array is a distinct path
        assert path_count(params2, 2).exact == len(all_paths(params2, 2)) == 8

    def test_recursion_and_closed_form_n3(self, params2):
        c2 = path_count(params2, 2).exact
        assert path_count(params2, 3).exact == 2 * c2**2 == 2**7 == 128

    def test_recursion_exact_up_to_six(self):
        for b, s in ((2, 2), (3, 3), (2, 3)):
            params = LatticeParams(b, s)
            prev = 1
            for n in range(1, 7):
                current = path_count_int(params, n)
                assert current == b * prev**s
                prev = current

    def test_log_space_beyond_exact_limit(self, params2):
        bc = path_count(params2, 9)
        assert bc.exact is None
        assert bc.log_value == pytest.approx(decision_count(2, 9) * math.log(2))

    def test_bigcount_consistency(self):
        bc = BigCount.from_int(12345)
        assert bc.consistent()


class TestPathEncoding:
    def test_decision_length_checked(self, params2):
        with pytest.raises(UsageError):
            CylinderPath(params2, 2, (1, 2))
        with pytest.raises(UsageError):
            CylinderPath(params2, 1, (3,))

    def test_split_join_roundtrip(self, params2):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_path(params2, 3, rng)
            top, subs = p.split()
            assert join_paths(top, subs) == p

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coarsen_truncates_and_is_idempotent(self, k, data):
        params = LatticeParams(2, 2)
        n = 3
        decisions = tuple(
            data.draw(st.integers(1, 2)) for _ in range(decision_count(2, n))
        )
        p = CylinderPath(params, n, decisions)
        coarse = p.coarsen(k)
        assert coarse.decisions == decisions[: decision_count(2, k)]
        assert coarse.coarsen(k) == coarse

    def test_index_bijection(self):
        for b, n in ((2, 0), (2, 1), (2, 2), (2, 3), (3, 2)):
            params = LatticeParams(b, b)
            paths = enumerate_paths(params, n)
            assert len(paths) == path_count_int(params, n)
            assert [path_index(p) for p in paths] == list(range(len(paths)))
            assert all(path_from_index(params, n, i) == p for i, p in enumerate(paths))

    def test_enumeration_budget(self, params2):
        with pytest.raises(BudgetError):
            enumerate_paths(params2, 6)


class TestSharedEdges:
    def test_identical_paths_share_everything(self, params2):
        rng = np.random.default_rng(1)
        p = random_path(params2, 3, rng)
        assert shared_edge_count(p, p) == 8

    def test_different_top_branch_shares_nothing(self, params2):
        p = CylinderPath(params2, 2, (1, 1, 2))
        q = CylinderPath(params2, 2, (2, 1, 2))
        assert shared_edge_count(p, q) == 0

    def test_against_brute_force_all_pairs_n2(self, params2):
        paths = all_paths(params2, 2)
        for p in paths:
            for q in paths:
                assert shared_edge_count(p, q) == brute_shared_edges(p, q)

    def test_against_brute_force_sampled_n4(self, params2):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p, q = random_path(params2, 4, rng), random_path(params2, 4, rng)
            assert shared_edge_count(p, q) == brute_shared_edges(p, q)

    def test_pair_average_is_one_n2(self, params2):
        paths = enumerate_paths(params2, 2)
        N = shared_edge_matrix(paths)
        assert N.mean() == 1.0
        assert (N**2).mean() == 1.0 + 2 * (2 - 1)

    def test_mismatched_inputs_rejected(self, params2):
        p = CylinderPath(params2, 1, (1,))
        q = CylinderPath(params2, 2, (1, 1, 1))
        with pytest.raises(UsageError):
            shared_edge_count(p, q)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_bounds_symmetry_refinement(self, data):
        params = LatticeParams(2, 2)
        n = data.draw(st.integers(1, 4))
        length = decision_count(2, n)
        p = CylinderPath(
            params, n, tuple(data.draw(st.integers(1, 2)) for _ in range(length))
        )
        q = CylinderPath(
            params, n, tuple(data.draw(st.integers(1, 2)) for _ in range(length))
        )
        N = shared_edge_count(p, q)
        assert 0 <= N <= 2**n
        assert shared_edge_count(q, p) == N
        assert shared_edge_count(p, p) == 2**n
        if n >= 2:
            coarse = shared_edge_count(p.coarsen(n - 1), q.coarsen(n - 1))
            assert N <= 2 * coarse


class TestRefinementMartingale:
    def test_conditional_mean_of_shared_edges_is_preserved(self, params2):
        # on the critical lattice, averaging N_{n+1} over all uniform
        # refinements of a fixed pair of generation-n paths returns N_n:
        # each shared edge splits into s children, each shared with
        # probability 1/b
        from fractions import Fraction
        from itertools import product

        for p1 in all_paths(params2, 1):
            for q1 in all_paths(params2, 1):
                total = Fraction(0)
                count = 0
                for ext_p in product((1, 2), repeat=2):
                    for ext_q in product((1, 2), repeat=2):
                        p2 = CylinderPath(params2, 2, p1.decisions + ext_p)
                        q2 = CylinderPath(params2, 2, q1.decisions + ext_q)
                        total += shared_edge_count(p2, q2)
                        count += 1
                assert total / count == shared_edge_count(p1, q1)


class TestKernelEstimate:
    def test_diagonal_value(self, params2):
        p = CylinderPath(params2, 2, (1, 2, 1))
        assert kernel_estimate(p, p) == pytest.approx(2.0)

    def test_disjoint_is_zero(self, params2):
        p = CylinderPath(params2, 2, (1, 1, 1))
        q = CylinderPath(params2, 2, (2, 1, 1))
        assert kernel_estimate(p, q) == 0.0

    def test_two_shared_edges_at_n3(self, params2):
        paths = enumerate_paths(params2, 3)
        found = False
        for q in paths[1:]:
            if shared_edge_count(paths[0], q) == 2:
                assert kernel_estimate(paths[0], q) == pytest.approx(4.0 / 9.0)
                found = True
                break
        assert found

    def test_non_critical_rejected(self):
        params = LatticeParams(2, 3)
        p = CylinderPath(params, 1, (1,))
        with pytest.raises(UsageError):
            kernel_estimate(p, p)


class TestFixedPoint:
    def test_analytic_value(self):
        # the fixed-point equation factors as (u - 1)(u^2 + u - 1) with u = 1 - x
        analytic = (3.0 - math.sqrt(5.0)) / 2.0
        assert intersection_fixed_point(2, 3) == pytest.approx(analytic, abs=1e-12)

    def test_residual(self):
        x = intersection_fixed_point(2, 3)
        assert abs((1.0 - (1.0 - x) ** 3) / 2.0 - x) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            intersection_fixed_point(3, 2)
        with pytest.raises(DomainError):
            intersection_fixed_point(2, 2)


class TestHausdorffDim:
    def test_values(self):
        assert intersection_hausdorff_dim(2, 3) == pytest.approx(
            1.0 - math.log(2) / math.log(3), abs=1e-15
        )
        assert intersection_hausdorff_dim(2, 4) == pytest.approx(0.5, abs=1e-15)

    def test_near_critical_limit(self):
        assert intersection_hausdorff_dim(999, 1000) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            intersection_hausdorff_dim(3, 2)


class TestUltrametric:
    def test_equal_paths(self, params2):
        p = CylinderPath(params2, 3, (1,) * 7)
        assert ultrametric_proxy_distance(p, p) == 0.125

    def test_top_disagreement(self, params2):
        p = CylinderPath(params2, 3, (1,) * 7)
        q = CylinderPath(params2, 3, (2,) + (1,) * 6)
        assert ultrametric_proxy_distance(p, q) == 1.0

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_ultrametric_inequality(self, data):
        params = LatticeParams(2, 2)
        length = decision_count(2, 3)
        draw = lambda: CylinderPath(
            params, 3, tuple(data.draw(st.integers(1, 2)) for _ in range(length))
        )
        p, q, z = draw(), draw(), draw()
        assert ultrametric_proxy_distance(p, q) <= max(
            ultrametric_proxy_distance(p, z), ultrametric_proxy_distance(z, q)
        ) + 1e-15


class TestUniformSampling:
    def test_generation_zero_unique(self, params2):
        rng = np.random.default_rng(3)
        assert sample_uniform_path(params2, 0, rng).decisions == ()

    def test_chi_square_uniformity_n2(self, params2):
        rng = np.random.default_rng(4)
        draws = 1_000_000
        counts = np.zeros(8, dtype=int)
        sampled = rng.integers(1, 3, size=(draws, 3))
        idx = (
            (sampled[:, 0] - 1) * 4 + (sampled[:, 1] - 1) * 2 + (sampled[:, 2] - 1)
        )
        counts = np.bincount(idx, minlength=8)
        # the sampler uses the same decision law; exercise it directly too
        p = sample_uniform_path(params2, 2, rng)
        assert len(p.decisions) == 3
        result = stats.chisquare(counts)
        assert result.pvalue > 1e-6

    def test_chi_square_uniformity_of_sampler_n3(self, params2):
        rng = np.random.default_rng(5)
        draws = 200_000
        counts = np.zeros(128, dtype=int)
        for _ in range(draws):
            counts[path_index(sample_uniform_path(params2, 3, rng))] += 1
        assert stats.chisquare(counts).pvalue > 1e-6

    def test_first_decision_marginal(self, params2):
        rng = np.random.default_rng(6)
        draws = 1_000_000
        firsts = rng.integers(1, 3, size=draws)
        ones = np.count_nonzero(firsts == 1)
        sigma = math.sqrt(draws * 0.25)
        assert abs(ones - draws / 2) <= 4 * sigma


class TestEdges:
    def test_path_crosses_s_pow_n_edges(self, params2):
        rng = np.random.default_rng(7)
        p = random_path(params2, 3, rng)
        edges = path_edge_indices(p)
        assert edges.size == 8
        assert np.unique(edges).size == 8

    def test_edge_indices_match_label_oracle(self, params2):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            p = random_path(params2, n, rng)
            expected = sorted(
                edge_index_from_label(params2, lab) for lab in edge_label_chains(p)
            )
            assert sorted(path_edge_indices(p).tolist()) == expected

    def test_incidence_reproduces_shared_counts(self, params2):
        paths = enumerate_paths(params2, 2)
        N = incidence_matrix(paths) @ incidence_matrix(paths).T
        for i, p in enumerate(paths):
            for j, q in enumerate(paths):
                assert N[i, j] == shared_edge_count(p, q)

    def test_incidence_budget(self, params2):
        with pytest.raises(BudgetError):
            incidence_matrix([CylinderPath(params2, 8, (1,) * 255)] * 300)
