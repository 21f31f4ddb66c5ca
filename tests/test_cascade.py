import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diamondgmc import cascade
from diamondgmc.errors import DomainError, UsageError
from diamondgmc.cascade import (
    POPULATION_BLOCK,
    MassPopulation,
    SeedSpec,
    horner,
    island_group_mean_se,
    leaf_level,
    overlap_moments,
    population_step,
    read_population,
    simulate_mass_trajectory,
    substream,
    tree_total,
    write_population,
)
from diamondgmc.correlation import pair_count_histogram
from diamondgmc.gmc import edge_marginals
from diamondgmc.lattice import LatticeParams, path_count_int
from diamondgmc.reporting import mean_se
from diamondgmc.rfunction import psi

from _oracles import (
    assemble,
    dense_kahane,
    dense_overlap_polynomial,
    dense_pair_class_sums,
    index_ordered_paths,
    kahane_recursion,
    population_step_one_shot,
    shared_edge_matrix,
    upsilon_combine,
)


def ones_population(size=64, b=2):
    header = {
        "b": b, "r": 0.0, "base_level": -24.0, "depth": 24, "size": size,
        "seed_kind": "two-point", "seed_variance": 0.0,
        "master_seed": 0, "overflow_count": 0,
    }
    return MassPopulation(np.ones(size), header)


class TestSeedSpec:
    def test_kind_validation(self):
        with pytest.raises(UsageError):
            SeedSpec("gaussian")

    def test_two_point_support_and_moments(self):
        rng = substream(1, 0)
        V = 0.09
        draws = SeedSpec("two-point").draw(rng, 200_000, V)
        sigma = math.sqrt(V)
        assert set(np.round(np.unique(draws), 12)) == {1.0 - sigma, 1.0 + sigma}
        assert draws.mean() == pytest.approx(1.0, abs=4 * sigma / math.sqrt(200_000))
        assert draws.min() >= 0.0

    def test_two_point_variance_cap(self):
        rng = substream(2, 0)
        with pytest.raises(DomainError):
            SeedSpec("two-point").draw(rng, 10, 1.5)

    def test_lognormal_moments(self):
        rng = substream(3, 0)
        V = 0.2
        draws = SeedSpec("lognormal").draw(rng, 400_000, V)
        assert draws.min() > 0
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.var() == pytest.approx(V, rel=0.05)


class TestEvolvePopulation:
    """One unnormalized step of the population dynamics, as ``simulate_mass_trajectory`` runs it."""

    def test_all_ones_is_bitwise_fixed_point(self):
        out = population_step(np.ones(64), 2, substream(4, 0))
        assert np.array_equal(out, np.ones(64))

    def test_size_precondition(self, profile2):
        with pytest.raises(UsageError):
            population_step(np.ones(3), 2, substream(5, 0))
        with pytest.raises(UsageError):
            simulate_mass_trajectory(2, -24.0, SeedSpec(), 24, 3, 5, profile=profile2)
        # each of the islands needs b^2 entries
        with pytest.raises(UsageError, match="below 16 islands of b\\^2 = 4 entries"):
            simulate_mass_trajectory(2, -24.0, SeedSpec(), 24, 63, 5, profile=profile2)
        simulate_mass_trajectory(2, -24.0, SeedSpec(), 24, 64, 5, profile=profile2)

    @staticmethod
    def step_islands(pop, b, islands, seed, out):
        """Step each of ``islands`` slices of ``pop`` from its own stream into its
        slice of ``out``, the islands through ``for_each``, as a trajectory does."""
        pieces, into = np.array_split(pop, islands), np.array_split(out, islands)
        cascade.for_each(
            lambda j: population_step(pieces[j], b, substream(seed, pop.size, j), into[j]),
            islands,
        )

    @classmethod
    def assert_one_shot_draws(cls, pop, b, islands, seed, monkeypatch):
        expected = np.concatenate([
            population_step_one_shot(piece, b, substream(seed, pop.size, j))
            for j, piece in enumerate(np.array_split(pop, islands))
        ])
        assert population_step(pop, b, substream(seed, pop.size, 0)).tobytes() == (
            population_step_one_shot(pop, b, substream(seed, pop.size, 0)).tobytes())
        for threads in (1, 2):  # the islands one after another, then concurrently
            monkeypatch.setattr(cascade, "worker_count", lambda tasks: min(tasks, threads))
            got = np.full(pop.size, np.nan)
            cls.step_islands(pop, b, islands, seed, got)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("islands", [1, 3, 5])
    def test_keeps_the_one_shot_draws(self, b, islands, monkeypatch):
        # 1001 and 4099 are not multiples of 3 or 5: the islands differ in size
        masses = substream(22, b).lognormal(sigma=0.5, size=4099)
        for size in (islands * (b * b + 1), 1001, 4099):
            self.assert_one_shot_draws(masses[:size], b, islands, 23, monkeypatch)

    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("islands", [1, 3])
    def test_block_edges_keep_the_one_shot_draws(self, b, islands, monkeypatch):
        # every island ends one entry short of, at, or past a block edge
        edges = (POPULATION_BLOCK - 1, POPULATION_BLOCK, POPULATION_BLOCK + 1,
                 2 * POPULATION_BLOCK + 17)
        masses = substream(24, b).lognormal(sigma=0.5, size=islands * edges[-1])
        for edge in edges:
            self.assert_one_shot_draws(masses[: islands * edge], b, islands, 25, monkeypatch)

    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("islands", [1, 3])
    def test_leaves_its_input_unchanged(self, b, islands, monkeypatch):
        # a trajectory draws its leaves from a step's output, so no step may write its input
        masses = substream(26, b).lognormal(sigma=0.5, size=2 * POPULATION_BLOCK + 17)
        before = masses.tobytes()
        for threads in (1, 2):
            monkeypatch.setattr(cascade, "worker_count", lambda tasks: min(tasks, threads))
            self.step_islands(masses, b, islands, 27, np.empty(masses.size))
        assert masses.tobytes() == before

    def test_peak_memory_is_three_arrays_and_a_few_blocks(self, profile2, monkeypatch):
        # numpy reports its allocations to tracemalloc; a trajectory holds its
        # final rows, the leaf batch it was asked for and, for each island
        # running, the island's input, output and branch accumulator, and
        # index and factor blocks; the central moments hold the population
        # and two arrays more
        size, workers = 400_000, 2
        island = -(-size // cascade.ISLANDS)
        monkeypatch.setattr(cascade, "worker_count", lambda tasks: min(tasks, workers))
        # the profile's orbit and numpy's first-call caches are built outside the trace
        simulate_mass_trajectory(
            2, -8.0, SeedSpec(), 16, 1000, 28, leaves=(-8.0, 2, 20), profile=profile2
        )
        # no leaves, then 1000 realizations drawn mid-trajectory and at the final level
        for leaves in (None, (-8.0, 2, 1000), (-6.0, 2, 1000)):
            tracemalloc.start()
            try:
                pop, batch = simulate_mass_trajectory(
                    2, -8.0, SeedSpec(), 16, size, 28, leaves=leaves, profile=profile2
                )
                step_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                pop.central_moments_se(4)
                moment_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            batch_bytes = 0 if batch is None else batch.nbytes
            assert step_peak <= batch_bytes + 8 * (
                size + workers * (3 * island + 2 * POPULATION_BLOCK))
            assert moment_peak <= batch_bytes + 8 * (3 * size + 4 * POPULATION_BLOCK)

    def test_one_step_variance_map(self, profile2):
        # at a weak-disorder level the one-step output variance matches
        # psi(v) of the input sample variance within Monte Carlo error
        pop = simulate_mass_trajectory(
            2, -8.0, SeedSpec(), 16, 1_000_000, 71, profile=profile2
        )[0]
        v_in = pop.central_moments_se(2)[2][0]
        out = replace(pop, masses=population_step(pop.masses, 2, substream(6, 0)))
        v_out, v_se = out.central_moments_se(2)[2]
        assert abs(v_out - psi(2, v_in)) <= 4 * v_se
        m_out, m_se = mean_se(out.masses)
        assert abs(m_out - 1.0) <= 4 * m_se


class TestSimulateMassLaw:
    def test_base_level_enforced(self, profile2):
        with pytest.raises(UsageError):
            simulate_mass_trajectory(2, 0.0, SeedSpec(), 8, 1000, 0, profile=profile2)

    def test_variance_tracks_R_along_trajectory(self, profile2):
        # one trajectory per level from the same base level -24: the same streams
        levels = [-12.0, -8.0, -6.0, -4.0]
        for level in levels:
            pop = simulate_mass_trajectory(
                2, level, SeedSpec(), int(level) + 24, 400_000, 81, profile=profile2
            )[0]
            var, se = pop.central_moments_se(2)[2]
            assert abs(var - profile2.evaluate_R(level)) <= 4 * se

    def test_mean_is_pinned_and_steps_recorded(self, profile2):
        pop = simulate_mass_trajectory(
            2, -6.0, SeedSpec(), 18, 100_000, 5, profile=profile2
        )[0]
        assert pop.masses.mean() == pytest.approx(1.0, abs=1e-13)
        detail = pop.header["detail"]
        assert len(detail["step_pre_means"]) == 18
        assert all(
            abs(m - 1.0) <= 4 * s
            for m, s in zip(detail["step_pre_means"], detail["step_pre_ses"])
        )

    def test_seed_kinds_agree_in_distribution(self, profile2):
        a = simulate_mass_trajectory(
            2, -6.0, SeedSpec("two-point"), 18, 200_000, 9, profile=profile2
        )[0]
        b = simulate_mass_trajectory(
            2, -6.0, SeedSpec("lognormal"), 18, 200_000, 10, profile=profile2
        )[0]
        va, sa = a.central_moments_se(2)[2]
        vb, sb = b.central_moments_se(2)[2]
        assert abs(va - vb) <= 4 * math.hypot(sa, sb)

    def test_reproducibility_and_island_contract(self, profile2, monkeypatch):
        kwargs = dict(profile=profile2)
        one = simulate_mass_trajectory(2, -8.0, SeedSpec(), 16, 10_000, 42, **kwargs)[0]
        two = simulate_mass_trajectory(2, -8.0, SeedSpec(), 16, 10_000, 42, **kwargs)[0]
        assert np.array_equal(one.masses, two.masses)
        # the islands run concurrently or one after another, to the same bytes
        # and so are the leaves drawn on the way
        leaves = []
        for threads in (1, 4):
            monkeypatch.setattr(cascade, "worker_count", lambda tasks: min(tasks, threads))
            again, batch = simulate_mass_trajectory(
                2, -8.0, SeedSpec(), 16, 10_000, 42, leaves=(-8.0, 2, 100), **kwargs
            )
            assert again.masses.tobytes() == one.masses.tobytes()
            leaves.append(batch.tobytes())
        assert leaves[0] == leaves[1]
        # island j reads only its own streams: one entry more, which falls to
        # island 0, leaves the other islands' rows as they were
        more = simulate_mass_trajectory(2, -8.0, SeedSpec(), 16, 10_001, 42, **kwargs)[0]
        assert [island.size for island in more.islands] == [626] + [625] * 15
        assert not np.array_equal(one.islands[0], more.islands[0][:625])
        for j in range(1, 16):
            assert one.islands[j].tobytes() == more.islands[j].tobytes()
        # each island is renormalized by its own mean
        assert all(abs(island.mean() - 1.0) <= 1e-13 for island in one.islands)


class TestTrajectoryLeafPool:
    """``simulate`` draws its cylinder leaves from its own trajectory's level r - n."""

    def test_leaves_on_the_way_are_the_run_stopped_there(self, profile2):
        # the simulate route (leaves at r - n, on the way to r) against the gmc
        # route (leaves at the final level of the trajectory to r - n)
        r, n, depth, size, seed, count = 0.0, 2, 20, 4096, 24, 50
        pop, on_the_way = simulate_mass_trajectory(
            2, r, SeedSpec(), depth, size, seed, leaves=(r, n, count), profile=profile2
        )
        stopped, at_the_end = simulate_mass_trajectory(
            2, r - n, SeedSpec(), depth - n, size, seed, leaves=(r, n, count), profile=profile2
        )
        assert on_the_way.shape == (count, 16)
        assert on_the_way.tobytes() == at_the_end.tobytes()
        for key in ("step_pre_means", "step_pre_ses"):
            assert pop.header["detail"][key][: depth - n] == stopped.header["detail"][key]
        # realization i draws from island i mod 16 with its own leaf substream
        for i in range(count):
            island = stopped.islands[i % cascade.ISLANDS]
            picks = substream(seed, cascade._REALM_LEAF, i).integers(0, island.size, size=16)
            assert on_the_way[i].tobytes() == island[picks].tobytes()

    def test_leaf_level_needs_a_step_below_it(self):
        assert leaf_level(-4.0, 2, 3) == -6.0
        with pytest.raises(UsageError, match="depth 2 must exceed the generation 2"):
            leaf_level(-20.0, 2, 2)


class TestIslandStatistics:
    """Whole-population estimates with the SE of the spread of the 16 island values."""

    def test_islands_and_island_se(self):
        masses = substream(30, 0).lognormal(sigma=0.5, size=16 * 100 + 5)
        pop = replace(ones_population(masses.size), masses=masses)
        islands = pop.islands
        assert [island.size for island in islands] == [101] * 5 + [100] * 11
        assert np.concatenate(islands).tobytes() == masses.tobytes()
        est, se = pop.island_mean_se(pop.masses)
        assert est == pytest.approx(masses.mean(), rel=1e-14)
        assert se == pytest.approx(np.std([i.mean() for i in islands], ddof=1) / 4, rel=1e-12)
        var, var_se = pop.central_moments_se(2)[2]
        squares = [((i - masses.mean()) ** 2).sum() / (i.size - 1) for i in islands]
        assert var == pytest.approx(masses.var(ddof=1), rel=1e-12)
        assert var_se == pytest.approx(np.std(squares, ddof=1) / 4, rel=1e-12)

    def test_group_se_is_never_below_the_realizations_own(self):
        values = substream(31, 0).standard_normal(1600)
        iid_se = mean_se(values)[1]
        # the groups i mod 16 carry a common offset each: their spread sets the SE
        offsets = np.tile(np.linspace(-1.0, 1.0, 16), 100)
        est, se = island_group_mean_se(values + offsets)
        groups = [(values + offsets)[j::16].mean() for j in range(16)]
        assert est == pytest.approx((values + offsets).mean(), rel=1e-14)
        assert se == pytest.approx(np.std(groups, ddof=1) / 4, rel=1e-12) and se > iid_se
        # identical group means: the realizations' own SE
        flat = values - np.tile([values[j::16].mean() for j in range(16)], 100)
        assert island_group_mean_se(flat)[1] == mean_se(flat)[1]


class TestFractionalMoment:
    def test_unit_population(self):
        pop = ones_population()
        est, se = pop.island_mean_se(pop.masses**0.5)
        assert est == 1.0 and se == 0.0

    def test_strong_disorder_decay(self, profile2):
        estimates = []
        for r in (0.0, 2.0, 4.0, 6.0, 8.0):
            pop = simulate_mass_trajectory(
                2, r, SeedSpec(), 24 + int(r), 300_000, 13, profile=profile2
            )[0]
            estimates.append(pop.island_mean_se(pop.masses**0.5))
        for (e1, s1), (e2, s2) in zip(estimates, estimates[1:]):
            assert e1 - e2 > math.hypot(s1, s2)

    def test_theta_one_mean(self, profile2):
        pop = simulate_mass_trajectory(
            2, -4.0, SeedSpec(), 20, 200_000, 14, profile=profile2
        )[0]
        est, se = pop.island_mean_se(pop.masses)
        assert abs(est - 1.0) <= 4 * max(se, 1e-15)


class TestPairClassSums:
    """Overlap polynomials on the leaf tree: Q_1 is the total mass, and the
    coefficients of Q_2 are the pair sums S_d over cylinder pairs sharing d edges."""

    @pytest.mark.parametrize("b, n", [(2, 1), (2, 2), (2, 3), (3, 2)])
    def test_matches_dense_oracle(self, b, n):
        leaves = substream(25, b, n).lognormal(sigma=0.8, size=(3, (b * b) ** n))
        batch = overlap_moments(leaves.T, b, 5)
        assert batch[2].shape == (b**n + 1, 3)
        assert np.array_equal(batch[1][0], tree_total(leaves.T, b))
        for i in range(3):
            single = overlap_moments(leaves[i], b, 5)
            assert all(np.array_equal(q, q_batch[:, i]) for q, q_batch in zip(single, batch))
            want = dense_pair_class_sums(leaves[i], b, n)
            assert np.all(batch[2][want == 0, i] == 0.0)
            nonzero = want > 0
            assert np.max(np.abs(batch[2][nonzero, i] / want[nonzero] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("b, n", [(2, 1), (2, 2), (2, 3), (3, 2)])
    def test_higher_orders_match_enumeration(self, b, n):
        # coefficient by coefficient against the enumerated m-tuples wherever
        # |Gamma_n|^m <= 2^21, and Q_m(exp(lam)) against the dense and the
        # recursive Kahane moments
        lam = 0.37
        params = LatticeParams(b, b)
        leaves = substream(27, b, n).lognormal(sigma=0.8, size=(b * b) ** n)
        reference = assemble(leaves, b, n)
        shared = shared_edge_matrix(params, n, index_ordered_paths(params, n)).astype(int)
        moments = overlap_moments(leaves, b, 5)
        for m in range(1, 6):
            value = horner(moments[m], math.exp(lam))
            assert abs(value / kahane_recursion(leaves, b, lam, m) - 1.0) <= 1e-12
            if reference.size**m > 1 << 21:
                continue
            want = dense_overlap_polynomial(shared, reference, m)
            got = moments[m]
            assert got.shape == (math.comb(m, 2) * b**n + 1,)
            assert np.all(got[want.size :] == 0.0)
            assert np.all(got[: want.size][want == 0] == 0.0)
            nonzero = want > 0
            assert np.max(np.abs(got[: want.size][nonzero] / want[nonzero] - 1.0)) <= 1e-12
            assert abs(value / dense_kahane(lam * shared, reference, m) - 1.0) <= 1e-12

    @pytest.mark.parametrize("b, n_max", [(2, 6), (3, 3)])
    def test_unit_leaves_give_histogram_weights(self, b, n_max):
        # the uniform measure puts 1/|Gamma_n| on every cylinder
        params = LatticeParams(b, b)
        for n in range(1, n_max + 1):
            sums = overlap_moments(np.ones((b * b) ** n), b, 2)[2]
            hist = dict(pair_count_histogram(params, n))
            pairs = path_count_int(params, n) ** 2
            want = [hist.get(k, 0) / pairs for k in range(b**n + 1)]
            assert sums.tolist() == pytest.approx(want, rel=1e-14, abs=0)

    def test_agrees_with_kahane_and_theta(self):
        # at n = 5, where the 2^31 cylinders are out of the dense oracles'
        # reach: Q_m(exp(lam)) against the numeric Kahane recursion, and
        # theta = lam sum_d d S_d against the edge-marginal route
        b, n = 2, 5
        leaves = substream(26, 0).lognormal(sigma=0.8, size=(b * b) ** n)
        moments = overlap_moments(leaves, b, 5)
        for lam in (0.0, 0.37, 1.0):
            for m in range(1, 6):
                want = kahane_recursion(leaves, b, lam, m)
                assert abs(horner(moments[m], math.exp(lam)) / want - 1.0) <= 1e-12
        lam = 0.37
        marginals = edge_marginals(leaves, b)
        theta = lam * (np.arange(len(moments[2])) @ moments[2])
        assert abs(theta / (lam * marginals @ marginals) - 1.0) <= 1e-12


class TestMeasureSamples:
    def test_additivity_audit(self, profile2):
        # sum_k S_k = T^2: the class sums and the tree totals are independent
        # recursions over the same leaves
        leaves = simulate_mass_trajectory(
            2, -5.0, SeedSpec(), 21, 100_000, 15, leaves=(-2.0, 3, 50), profile=profile2
        )[1].T
        sums = overlap_moments(leaves, 2, 2)[2]
        squares = tree_total(leaves, 2) ** 2
        assert np.max(np.abs(sums.sum(axis=0) / squares - 1.0)) <= 1e-12
        assert np.all(sums >= 0)

    def test_cylinder_means(self, profile2):
        leaves = simulate_mass_trajectory(
            2, -6.0, SeedSpec(), 22, 200_000, 16, leaves=(-4.0, 2, 4000), profile=profile2
        )[1]
        batch = assemble(leaves, 2, 2)
        se = batch.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
        assert np.all(np.abs(batch.mean(axis=0) - 1.0 / 8.0) <= 4 * se)

    def test_batch_reproducible(self, profile2):
        one, two = (
            simulate_mass_trajectory(
                2, -5.0, SeedSpec(), 19, 50_000, 17, leaves=(-4.0, 1, 100), profile=profile2
            )[1]
            for _ in range(2)
        )
        assert np.array_equal(one, two)

    def test_leaf_level_checked(self, profile2):
        # above r, off the integer steps, and at the seed level: no step reaches there
        for leaves in ((-3.0, 1, 10), (-4.5, 1, 10), (-23.0, 1, 10)):
            with pytest.raises(UsageError, match="not a level of the trajectory"):
                simulate_mass_trajectory(
                    2, -5.0, SeedSpec(), 19, 50_000, 18, leaves=leaves, profile=profile2
                )


class TestUpsilonCombine:
    def test_matches_direct_outer_product(self):
        rng = substream(19, 0)
        subs = rng.lognormal(size=(2, 2, 8))
        combined = upsilon_combine(subs)
        assert combined.shape == (128,)
        direct_first = np.outer(subs[0, 0], subs[0, 1]).ravel() / 2.0
        assert np.allclose(combined[:64], direct_first, rtol=1e-15)

    def test_total_is_branch_product_sum(self):
        rng = substream(20, 0)
        subs = rng.lognormal(size=(2, 2, 2))
        total = upsilon_combine(subs).sum()
        expected = 0.5 * (
            subs[0, 0].sum() * subs[0, 1].sum() + subs[1, 0].sum() * subs[1, 1].sum()
        )
        assert total == pytest.approx(expected, rel=1e-14)


class TestPersistence:
    def test_roundtrip_and_byte_stability(self, tmp_path, profile2):
        pop = simulate_mass_trajectory(2, -8.0, SeedSpec(), 16, 5000, 21, profile=profile2)[0]
        path = tmp_path / "pop.bin"
        write_population(path, pop)
        loaded = read_population(path)
        assert np.array_equal(loaded.masses, pop.masses)
        assert loaded.header["master_seed"] == 21
        assert loaded.header == pop.header
        first = path.read_bytes()
        write_population(path, pop)
        assert path.read_bytes() == first

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTAPOP!" + b"\x00" * 16)
        with pytest.raises(UsageError):
            read_population(bad)
