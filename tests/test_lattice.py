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
    index_ordered_paths,
    path_edge_indices,
    recursive_path_index,
    shared_edge_matrix,
)
from diamondgmc.errors import BudgetError, DomainError, UsageError
from diamondgmc.lattice import (
    LatticeParams,
    decision_count,
    intersection_fixed_point,
    intersection_hausdorff_dim,
    path_count_int,
)
from diamondgmc.rfunction import kappa_sq


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
        LatticeParams(2, 2).require_critical()
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
    def test_index_bijection(self):
        # the recursive cylinder index maps Gamma_n one to one onto
        # 0..|Gamma_n| - 1, on critical and non-critical lattices
        cases = ((2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3, 2), (3, 2, 2))
        for b, s, n in cases:
            params = LatticeParams(b, s)
            paths = index_ordered_paths(params, n)
            assert paths.shape == (path_count_int(params, n), decision_count(s, n))
            assert [recursive_path_index(params, n, p) for p in paths] == list(
                range(len(paths))
            )


class TestSharedEdges:
    def test_identical_paths_share_everything(self, params2):
        rng = np.random.default_rng(1)
        p = random_path(params2, 3, rng)
        assert brute_shared_edges(params2, 3, p, p) == 8

    def test_different_top_branch_shares_nothing(self, params2):
        assert brute_shared_edges(params2, 2, [1, 1, 2], [2, 1, 2]) == 0

    def test_against_brute_force_all_pairs_n2(self):
        # the incidence route against the label route over all ordered
        # pairs, critical or not
        for b, s in ((2, 2), (2, 3), (3, 2)):
            params = LatticeParams(b, s)
            paths = all_paths(params, 2)
            inc = incidence_matrix(params, 2, paths)
            assert np.array_equal(inc.sum(axis=1), np.full(len(paths), s**2))
            N = shared_edge_matrix(params, 2, paths)
            assert N.shape == (len(paths), len(paths))
            for i, p in enumerate(paths):
                for j, q in enumerate(paths):
                    assert N[i, j] == brute_shared_edges(params, 2, p, q)

    def test_against_brute_force_sampled_n4(self, params2):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p, q = random_path(params2, 4, rng), random_path(params2, 4, rng)
            N = shared_edge_matrix(params2, 4, np.stack([p, q]))
            assert N[0, 1] == brute_shared_edges(params2, 4, p, q)

    def test_pair_average_is_one_n2(self, params2):
        paths = index_ordered_paths(params2, 2)
        N = shared_edge_matrix(params2, 2, paths)
        assert N.mean() == 1.0
        assert (N**2).mean() == 1.0 + 2 * (2 - 1)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_bounds_symmetry_refinement(self, data):
        params = LatticeParams(2, 2)
        n = data.draw(st.integers(1, 4))
        length = decision_count(2, n)
        p = [data.draw(st.integers(1, 2)) for _ in range(length)]
        q = [data.draw(st.integers(1, 2)) for _ in range(length)]
        N = brute_shared_edges(params, n, p, q)
        assert 0 <= N <= 2**n
        assert brute_shared_edges(params, n, q, p) == N
        assert brute_shared_edges(params, n, p, p) == 2**n
        if n >= 2:
            # coarsening is a prefix truncation of the breadth-first array
            prefix = decision_count(2, n - 1)
            coarse = brute_shared_edges(params, n - 1, p[:prefix], q[:prefix])
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
                        total += brute_shared_edges(params2, 2, p2, q2)
                        count += 1
                assert total / count == brute_shared_edges(params2, 1, p1, q1)


class TestKernelEstimate:
    """kappa^2 N_n / n^2, the finite-generation intersection kernel, is the
    asymptotic edge weight times the shared-edge count."""

    def test_diagonal_value(self, params2):
        p = np.array([1, 2, 1])
        lam = kappa_sq(2) / 2**2
        assert lam * brute_shared_edges(params2, 2, p, p) == pytest.approx(2.0)

    def test_disjoint_is_zero(self, params2):
        lam = kappa_sq(2) / 2**2
        assert lam * brute_shared_edges(params2, 2, [1, 1, 1], [2, 1, 1]) == 0.0

    def test_two_shared_edges_at_n3(self, params2):
        N = shared_edge_matrix(params2, 3, index_ordered_paths(params2, 3))[0, 1:]
        assert np.any(N == 2)
        lam = kappa_sq(2) / 3**2
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
        assert index_ordered_paths(params2, 0).shape == (1, 0)
        draws = np.random.default_rng(3).integers(1, 3, size=(5, decision_count(2, 0)))
        assert [recursive_path_index(params2, 0, d) for d in draws] == [0] * 5

    def test_chi_square_uniformity_n2(self, params2):
        rng = np.random.default_rng(4)
        draws = 1_000_000
        counts = np.zeros(8, dtype=int)
        sampled = rng.integers(1, 3, size=(draws, 3))
        idx = (
            (sampled[:, 0] - 1) * 4 + (sampled[:, 1] - 1) * 2 + (sampled[:, 2] - 1)
        )
        paths = all_paths(params2, 2)
        assert [recursive_path_index(params2, 2, p) for p in paths] == (
            (paths - 1) @ [4, 2, 1]
        ).tolist()
        counts = np.bincount(idx, minlength=8)
        result = stats.chisquare(counts)
        assert result.pvalue > 1e-6

    def test_chi_square_uniformity_of_sampler_n3(self, params2):
        rng = np.random.default_rng(5)
        draws = 200_000
        paths = rng.integers(1, 3, size=(draws, decision_count(2, 3)))
        # bin by the cylinder index: every cell of Gamma_3 is hit, uniformly
        cells, hits = np.unique(paths, axis=0, return_counts=True)
        index = [recursive_path_index(params2, 3, c) for c in cells]
        assert sorted(index) == list(range(128))
        assert stats.chisquare(hits).pvalue > 1e-6

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
        # one generation beyond the all-pairs check: every path of Gamma_3
        # against a sample, by the label route
        paths = index_ordered_paths(params2, 3)
        inc = incidence_matrix(params2, 3, paths)
        assert np.array_equal(inc.sum(axis=1), np.full(len(paths), 8.0))
        rng = np.random.default_rng(9)
        rows = rng.choice(len(paths), size=8, replace=False)
        N = [[brute_shared_edges(params2, 3, paths[i], q) for q in paths] for i in rows]
        assert np.array_equal(inc[rows] @ inc.T, N)

    def test_incidence_budget(self, params2):
        with pytest.raises(BudgetError):
            incidence_matrix(params2, 8, np.ones((300, 255), dtype=int))
