import math
from dataclasses import replace

import numpy as np
import pytest

from diamondgmc.errors import BudgetError, UsageError
from diamondgmc.cascade import (
    MassPopulation,
    Provenance,
    SeedSpec,
    assemble,
    default_leaf_population,
    fractional_moment,
    population_step,
    read_population,
    sample_measure_batch,
    sample_measure_cylinders,
    simulate_mass_law,
    simulate_mass_trajectory,
    substream,
    upsilon_combine,
    write_population,
)
from diamondgmc.lattice import path_count_int
from diamondgmc.rfunction import psi


def ones_population(size=64, b=2):
    prov = Provenance(
        b=b, r=0.0, base_level=-24.0, depth=24, size=size,
        seed_kind="deterministic-one", seed_variance=0.0,
        master_seed=0, chunks=1,
    )
    return MassPopulation(0.0, np.ones(size), prov)


class TestSeedSpec:
    def test_kind_validation(self):
        with pytest.raises(UsageError):
            SeedSpec("gaussian")

    def test_deterministic_one(self):
        rng = substream(0, 0)
        assert np.array_equal(SeedSpec("deterministic-one").draw(rng, 5, 0.3), np.ones(5))

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
        with pytest.raises(UsageError):
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
        out = population_step(np.ones(64), 2, [substream(4, 0)])
        assert np.array_equal(out, np.ones(64))

    def test_size_precondition(self, profile2):
        with pytest.raises(UsageError):
            population_step(np.ones(3), 2, [substream(5, 0)])
        with pytest.raises(UsageError):
            simulate_mass_law(2, -24.0, SeedSpec(), 24, 3, 5, profile=profile2)

    def test_one_step_variance_map(self, profile2):
        # at a weak-disorder level the one-step output variance matches
        # psi(v) of the input sample variance within Monte Carlo error
        pop = simulate_mass_law(
            2, -8.0, SeedSpec(), 16, 1_000_000, 71, profile=profile2
        )
        v_in = pop.variance_se()[0]
        out = replace(pop, masses=population_step(pop.masses, 2, substream(6, 0).spawn(1)))
        v_out, v_se = out.variance_se()
        assert abs(v_out - psi(2, v_in)) <= 4 * v_se
        m_out, m_se = out.mean_se()
        assert abs(m_out - 1.0) <= 4 * m_se


class TestSimulateMassLaw:
    def test_base_level_enforced(self, profile2):
        with pytest.raises(UsageError):
            simulate_mass_law(2, 0.0, SeedSpec(), 8, 1000, 0, profile=profile2)

    def test_variance_tracks_R_along_trajectory(self, profile2):
        levels = [-12.0, -8.0, -6.0, -4.0]
        traj = simulate_mass_trajectory(
            2, -4.0, SeedSpec(), 20, 400_000, 81,
            snapshot_levels=levels[:-1], profile=profile2,
        )
        for level in levels:
            var, se = traj[level].variance_se()
            assert abs(var - profile2.evaluate_R(level)) <= 4 * se

    def test_mean_is_pinned_and_steps_recorded(self, profile2):
        pop = simulate_mass_law(2, -6.0, SeedSpec(), 18, 100_000, 5, profile=profile2)
        assert pop.masses.mean() == pytest.approx(1.0, abs=1e-13)
        detail = pop.provenance.detail
        assert len(detail["step_pre_means"]) == 18
        assert all(
            abs(m - 1.0) <= 4 * s
            for m, s in zip(detail["step_pre_means"], detail["step_pre_ses"])
        )

    def test_seed_kinds_agree_in_distribution(self, profile2):
        a = simulate_mass_law(2, -6.0, SeedSpec("two-point"), 18, 200_000, 9, profile=profile2)
        b = simulate_mass_law(2, -6.0, SeedSpec("lognormal"), 18, 200_000, 10, profile=profile2)
        va, sa = a.variance_se()
        vb, sb = b.variance_se()
        assert abs(va - vb) <= 4 * math.hypot(sa, sb)

    def test_reproducibility_and_chunk_contract(self, profile2):
        kwargs = dict(profile=profile2)
        one = simulate_mass_law(2, -8.0, SeedSpec(), 16, 10_000, 42, chunks=4, **kwargs)
        two = simulate_mass_law(2, -8.0, SeedSpec(), 16, 10_000, 42, chunks=4, **kwargs)
        assert np.array_equal(one.masses, two.masses)
        threaded = simulate_mass_law(
            2, -8.0, SeedSpec(), 16, 10_000, 42, chunks=4, threads=3, **kwargs
        )
        assert np.array_equal(one.masses, threaded.masses)
        other_chunks = simulate_mass_law(2, -8.0, SeedSpec(), 16, 10_000, 42, chunks=2, **kwargs)
        assert not np.array_equal(one.masses, other_chunks.masses)


class TestFractionalMoment:
    def test_unit_population(self):
        est, se = fractional_moment(ones_population(), 0.5)
        assert est == 1.0 and se == 0.0

    def test_theta_domain(self):
        with pytest.raises(UsageError):
            fractional_moment(ones_population(), 0.0)
        with pytest.raises(UsageError):
            fractional_moment(ones_population(), 1.5)

    def test_strong_disorder_decay(self, profile2):
        estimates = []
        for r in (0.0, 2.0, 4.0, 6.0, 8.0):
            pop = simulate_mass_law(
                2, r, SeedSpec(), 24 + int(r), 300_000, 13, profile=profile2
            )
            estimates.append(fractional_moment(pop, 0.5))
        for (e1, s1), (e2, s2) in zip(estimates, estimates[1:]):
            assert e1 - e2 > math.hypot(s1, s2)

    def test_theta_one_mean(self, profile2):
        pop = simulate_mass_law(2, -4.0, SeedSpec(), 20, 200_000, 14, profile=profile2)
        est, se = fractional_moment(pop, 1.0)
        assert abs(est - 1.0) <= 4 * max(se, 1e-15)


class TestMeasureSamples:
    def test_unit_seed_gives_uniform_measure(self, profile2):
        sample = sample_measure_cylinders(
            2, 0.0, 2, 24, SeedSpec("deterministic-one"), 3,
            pop_size=1000, profile=profile2,
        )
        assert np.allclose(sample.masses, 1.0 / 8.0, rtol=0, atol=1e-15)
        assert sample.total == pytest.approx(1.0, abs=1e-14)

    def test_additivity_audit(self, profile2, params2):
        sample = sample_measure_cylinders(
            2, -2.0, 3, 24, SeedSpec(), 15, pop_size=100_000, profile=profile2
        )
        assert sample.additivity_gap() <= 1e-12
        assert np.all(sample.masses >= 0)
        assert sample.masses.size == path_count_int(params2, 3) == 128

    def test_budget_error_reports_feasible_generation(self, profile2):
        with pytest.raises(BudgetError) as err:
            sample_measure_cylinders(2, 0.0, 9, 24, SeedSpec(), 0, profile=profile2)
        assert "largest feasible n" in str(err.value)

    def test_cylinder_means(self, profile2):
        leaf = default_leaf_population(
            2, -4.0, 2, 24, SeedSpec(), 16, pop_size=200_000, profile=profile2
        )
        batch = assemble(sample_measure_batch(2, -4.0, 2, 4000, leaf, 16), 2, 2)
        se = batch.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
        assert np.all(np.abs(batch.mean(axis=0) - 1.0 / 8.0) <= 4 * se)

    def test_batch_reproducible(self, profile2):
        leaf = default_leaf_population(
            2, -4.0, 1, 20, SeedSpec(), 17, pop_size=50_000, profile=profile2
        )
        one = sample_measure_batch(2, -4.0, 1, 100, leaf, 17)
        two = sample_measure_batch(2, -4.0, 1, 100, leaf, 17)
        assert np.array_equal(one, two)

    def test_leaf_level_checked(self, profile2):
        leaf = default_leaf_population(
            2, -4.0, 1, 20, SeedSpec(), 18, pop_size=50_000, profile=profile2
        )
        with pytest.raises(UsageError):
            sample_measure_batch(2, -3.0, 1, 10, leaf, 18)


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
        pop = simulate_mass_law(2, -8.0, SeedSpec(), 16, 5000, 21, profile=profile2)
        path = tmp_path / "pop.bin"
        write_population(path, pop)
        loaded = read_population(path)
        assert np.array_equal(loaded.masses, pop.masses)
        assert loaded.provenance.master_seed == 21
        first = path.read_bytes()
        write_population(path, pop)
        assert path.read_bytes() == first

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTAPOP!" + b"\x00" * 16)
        with pytest.raises(UsageError):
            read_population(bad)
