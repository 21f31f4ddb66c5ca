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
    recursive_path_index,
    shared_edge_matrix,
)
from diamondgmc.errors import BudgetError, DomainError, UsageError
from diamondgmc.gmc import edge_weight
from diamondgmc.lattice import (
    LatticeParams,
    decision_count,
    enumerate_paths,
    intersection_fixed_point,
    intersection_hausdorff_dim,
    path_count_int,
    path_index,
    shared_edge_count,
)


def random_path(params, n, rng):
    """A path from the uniform cylinder measure: decisions iid on 1..b."""
    return rng.integers(1, params.b + 1, size=decision_count(params.s, n))


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
        assert path_count_int(params2, 0) == 1

    def test_enumeration_oracle_n2(self, params2):
        # every decision array is a distinct path
        assert path_count_int(params2, 2) == len(all_paths(params2, 2)) == 8

    def test_recursion_and_closed_form_n3(self, params2):
        c2 = path_count_int(params2, 2)
        assert path_count_int(params2, 3) == 2 * c2**2 == 2**7 == 128

    def test_recursion_exact_up_to_six(self):
        for b, s in ((2, 2), (3, 3), (2, 3)):
            params = LatticeParams(b, s)
            prev = 1
            for n in range(1, 7):
                current = path_count_int(params, n)
                assert current == b * prev**s
                prev = current

    def test_log_space_beyond_exact_limit(self, params2):
        # the log count d_n log b, which callers use where the exact count
        # is unwieldy, agrees with the exact integer
        for b, s, n in ((2, 2, 6), (2, 2, 9), (3, 3, 5)):
            exact = path_count_int(LatticeParams(b, s), n)
            assert decision_count(s, n) * math.log(b) == pytest.approx(
                math.log(exact), rel=1e-12
            )


class TestPathEncoding:
    def test_decision_length_checked(self, params2):
        with pytest.raises(UsageError):
            path_index(params2, 2, [1, 2])
        with pytest.raises(UsageError):
            path_index(params2, 2, np.ones((4, 2), dtype=int))
        with pytest.raises(UsageError):
            path_index(params2, 1, [3])
        with pytest.raises(UsageError):
            path_index(params2, 1, [0])
        with pytest.raises(UsageError):
            path_index(params2, 1, [1.0])
        with pytest.raises(UsageError):
            path_index(params2, -1, [])

    def test_index_bijection(self):
        # enumeration order, the linear index form and the recursive
        # definition agree, on critical and non-critical lattices
        cases = ((2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3, 2), (3, 2, 2))
        for b, s, n in cases:
            params = LatticeParams(b, s)
            paths = enumerate_paths(params, n)
            assert paths.shape == (path_count_int(params, n), decision_count(s, n))
            assert np.array_equal(path_index(params, n, paths), np.arange(len(paths)))
            assert [recursive_path_index(params, n, p) for p in paths] == list(
                range(len(paths))
            )

    def test_index_beyond_enumeration(self, params2):
        rng = np.random.default_rng(9)
        paths = rng.integers(1, 3, size=(20, decision_count(2, 6)))
        assert path_index(params2, 6, paths).tolist() == [
            recursive_path_index(params2, 6, p) for p in paths
        ]
        with pytest.raises(BudgetError):
            path_index(params2, 7, np.ones(decision_count(2, 7), dtype=int))

    def test_enumeration_budget(self, params2):
        with pytest.raises(BudgetError):
            enumerate_paths(params2, 6)


class TestSharedEdges:
    def test_identical_paths_share_everything(self, params2):
        rng = np.random.default_rng(1)
        p = random_path(params2, 3, rng)
        assert shared_edge_count(params2, 3, p, p) == 8

    def test_different_top_branch_shares_nothing(self, params2):
        assert shared_edge_count(params2, 2, [1, 1, 2], [2, 1, 2]) == 0

    def test_against_brute_force_all_pairs_n2(self):
        # broadcast over all ordered pairs at once, critical or not
        for b, s in ((2, 2), (2, 3), (3, 2)):
            params = LatticeParams(b, s)
            paths = all_paths(params, 2)
            N = shared_edge_count(params, 2, paths[:, None], paths[None])
            assert N.shape == (len(paths), len(paths))
            for i, p in enumerate(paths):
                for j, q in enumerate(paths):
                    assert N[i, j] == brute_shared_edges(params, 2, p, q)

    def test_against_brute_force_sampled_n4(self, params2):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p, q = random_path(params2, 4, rng), random_path(params2, 4, rng)
            assert shared_edge_count(params2, 4, p, q) == brute_shared_edges(params2, 4, p, q)

    def test_pair_average_is_one_n2(self, params2):
        paths = enumerate_paths(params2, 2)
        N = shared_edge_matrix(params2, 2, paths)
        assert N.mean() == 1.0
        assert (N**2).mean() == 1.0 + 2 * (2 - 1)

    def test_mismatched_inputs_rejected(self, params2):
        # a generation-1 path against a generation-2 one
        with pytest.raises(UsageError):
            shared_edge_count(params2, 2, [1], [1, 1, 1])
        with pytest.raises(UsageError):
            shared_edge_count(params2, 1, [1], [1, 1, 1])
        # leading axes that do not broadcast
        with pytest.raises(UsageError):
            shared_edge_count(params2, 2, np.ones((2, 3), dtype=int), np.ones((3, 3), dtype=int))
        with pytest.raises(UsageError):
            shared_edge_count(params2, 1, [1], [3])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_bounds_symmetry_refinement(self, data):
        params = LatticeParams(2, 2)
        n = data.draw(st.integers(1, 4))
        length = decision_count(2, n)
        p = [data.draw(st.integers(1, 2)) for _ in range(length)]
        q = [data.draw(st.integers(1, 2)) for _ in range(length)]
        N = shared_edge_count(params, n, p, q)
        assert 0 <= N <= 2**n
        assert shared_edge_count(params, n, q, p) == N
        assert shared_edge_count(params, n, p, p) == 2**n
        if n >= 2:
            # coarsening is a prefix truncation of the breadth-first array
            prefix = decision_count(2, n - 1)
            coarse = shared_edge_count(params, n - 1, p[:prefix], q[:prefix])
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
                        p2 = np.concatenate([p1, ext_p])
                        q2 = np.concatenate([q1, ext_q])
                        total += int(shared_edge_count(params2, 2, p2, q2))
                        count += 1
                assert total / count == shared_edge_count(params2, 1, p1, q1)


class TestKernelEstimate:
    """kappa^2 N_n / n^2, the finite-generation intersection kernel, is the
    asymptotic edge weight times the shared-edge count."""

    def test_diagonal_value(self, profile2, params2):
        p = np.array([1, 2, 1])
        lam = edge_weight(profile2, 0.0, 1.0, 2, "asymptotic")
        assert lam * shared_edge_count(params2, 2, p, p) == pytest.approx(2.0)

    def test_disjoint_is_zero(self, profile2, params2):
        lam = edge_weight(profile2, 0.0, 1.0, 2, "asymptotic")
        assert lam * shared_edge_count(params2, 2, [1, 1, 1], [2, 1, 1]) == 0.0

    def test_two_shared_edges_at_n3(self, profile2, params2):
        paths = enumerate_paths(params2, 3)
        N = shared_edge_count(params2, 3, paths[0], paths[1:])
        assert np.any(N == 2)
        lam = edge_weight(profile2, 0.0, 1.0, 3, "asymptotic")
        assert lam * N[np.argmax(N == 2)] == pytest.approx(4.0 / 9.0)


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


class TestUniformSampling:
    def test_generation_zero_unique(self, params2):
        assert enumerate_paths(params2, 0).shape == (1, 0)
        draws = np.random.default_rng(3).integers(1, 3, size=(5, decision_count(2, 0)))
        assert np.array_equal(path_index(params2, 0, draws), np.zeros(5))

    def test_chi_square_uniformity_n2(self, params2):
        rng = np.random.default_rng(4)
        draws = 1_000_000
        counts = np.zeros(8, dtype=int)
        sampled = rng.integers(1, 3, size=(draws, 3))
        idx = (
            (sampled[:, 0] - 1) * 4 + (sampled[:, 1] - 1) * 2 + (sampled[:, 2] - 1)
        )
        assert np.array_equal(path_index(params2, 2, sampled), idx)
        counts = np.bincount(idx, minlength=8)
        result = stats.chisquare(counts)
        assert result.pvalue > 1e-6

    def test_chi_square_uniformity_of_sampler_n3(self, params2):
        rng = np.random.default_rng(5)
        draws = 200_000
        paths = rng.integers(1, 3, size=(draws, decision_count(2, 3)))
        counts = np.bincount(path_index(params2, 3, paths), minlength=128)
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
        edges = path_edge_indices(params2, 3, p)
        assert edges.size == 8
        assert np.unique(edges).size == 8

    def test_edge_indices_match_label_oracle(self, params2):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            p = random_path(params2, n, rng)
            expected = sorted(
                edge_index_from_label(params2, lab)
                for lab in edge_label_chains(params2, n, p)
            )
            assert path_edge_indices(params2, n, p).tolist() == expected

    def test_incidence_reproduces_shared_counts(self, params2):
        paths = enumerate_paths(params2, 2)
        inc = incidence_matrix(params2, 2, paths)
        N = shared_edge_count(params2, 2, paths[:, None], paths[None])
        assert np.array_equal(inc @ inc.T, N)

    def test_incidence_budget(self, params2):
        with pytest.raises(BudgetError):
            incidence_matrix(params2, 8, np.ones((300, 255), dtype=int))
