import math
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    asymptotic_R_two_term,
    expansion_by_two_evaluations,
    moment_step_by_compositions,
    orbit_by_mpmath,
)
from diamondgmc import cli, rfunction
from diamondgmc.errors import BudgetError, ConvergenceError, DomainError, RangeError, UsageError
from diamondgmc.rfunction import (
    MomentTable,
    SeedSpec,
    VarianceProfile,
    asymptotic_expansion,
    eta,
    kappa_sq,
    moment_recursion_step,
    moment_table,
    psi,
    raw_to_centered,
)


class TestPsi:
    def test_fixed_point_at_zero(self):
        assert psi(2, 0.0) == 0.0

    def test_direct_values(self):
        assert psi(2, 1.0) == pytest.approx(1.5, abs=1e-14)
        assert psi(3, 1.0) == pytest.approx(7.0 / 3.0, abs=1e-14)

    def test_small_argument_stability(self):
        # exact rational oracle: ((1 + x)^b - 1)/b at x = 1e-9
        x = 1e-9
        exact = (Fraction(1) + Fraction(x)) ** 2 - 1
        exact = exact / 2
        assert psi(2, x) == pytest.approx(float(exact), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi(2, -0.5)
        with pytest.raises(UsageError):
            psi(1, 0.5)


class TestAsymptoticExpansion:
    def test_leading_constants_match_closed_forms(self):
        for b in (2, 3, 4, 5):
            coeffs = asymptotic_expansion(b, 4)
            assert coeffs[(1, 0)] == Fraction(2, b - 1)
            assert coeffs[(2, 1)] == Fraction(2, b - 1) * Fraction(b + 1, 3 * (b - 1))
            assert coeffs[(2, 0)] == 0

    def test_third_order_hand_derivation_b2(self):
        coeffs = asymptotic_expansion(2, 4)
        assert coeffs[(3, 2)] == 2
        assert coeffs[(3, 1)] == -2
        assert coeffs[(3, 0)] == 1

    @pytest.mark.parametrize(
        "b, order", [(2, 2), (2, 5), (2, 10), (3, 3), (3, 10), (4, 4), (4, 10), (5, 10)]
    )
    def test_matches_two_evaluation_oracle(self, b, order):
        # key order matters too: the seed series is summed in dict order
        expected = expansion_by_two_evaluations(b, order)
        assert list(asymptotic_expansion(b, order).items()) == list(expected.items())

    def test_kappa_eta_helpers(self):
        assert kappa_sq(3) == 1.0
        assert eta(2) == 1.0


class TestEvaluateR:
    def test_two_term_asymptotic_agreement(self):
        # deep in the vanishing regime the value matches the quoted two-term
        # asymptotic; the omitted term is O(log^2(-r)/r^3)
        prof = VarianceProfile(2)
        r = -1e6
        val = prof.evaluate_R(r)
        ref = asymptotic_R_two_term(2, r)
        assert abs(val - ref) / ref < 1e-6
        assert ref == pytest.approx(2.0e-6, rel=2e-5)

    def test_depth_insensitivity(self, monkeypatch):
        grid = np.arange(-5.0, 5.5, 1.0)
        deep = VarianceProfile(2)
        with monkeypatch.context() as m:
            m.setattr(rfunction, "SEED_DEPTH", 512)
            shallow = VarianceProfile(2)
            shallow_values = [shallow.evaluate_R(r) for r in grid]
        for r, a in zip(grid, shallow_values):
            b = deep.evaluate_R(r)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_recursion_identity(self, profile2):
        lhs = psi(2, profile2.evaluate_R(-1.0))
        rhs = profile2.evaluate_R(0.0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_recursion_identity_off_grid(self, profile2):
        r = -2.3
        lhs = psi(2, profile2.evaluate_R(r))
        assert lhs == pytest.approx(profile2.evaluate_R(r + 1.0), rel=1e-12)

    def test_monotone_increasing(self, profile2):
        vals = [profile2.evaluate_R(r) for r in np.arange(-8.0, 8.5, 0.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_asymptotic_sandwich(self):
        for r in (-1e3, -1e4, -1e5, -1e6):
            prof = VarianceProfile(2)
            R = prof.evaluate_R(r)
            assert abs(R * (-r) / kappa_sq(2) - 1.0) <= 1.1 * eta(2) * math.log(-r) / (-r)

    def test_far_above_overflow_raises_range_error(self):
        # the series seed would land at a positive level, where it is undefined
        for r in (2000.0, 1e6, 1e300):
            with pytest.raises(RangeError, match="above r = 9"):
                VarianceProfile(2).evaluate_R(r)

    def test_orbit_level_budget(self):
        profile = VarianceProfile(2)
        profile.evaluate_R(-1e6)
        with pytest.raises(BudgetError):
            profile.evaluate_R(-1.0)  # checked before the orbit is extended

    def test_profile_level_budget(self, monkeypatch):
        # the total over a profile's orbits is checked before an orbit is built
        monkeypatch.setattr(rfunction, "PROFILE_LEVEL_BUDGET", 3000)
        profile = VarianceProfile(2)
        profile.evaluate_R(-8.0)  # one converged orbit of 2049 levels
        with pytest.raises(BudgetError, match="R orbits of the b = 2 profile needs 3074"):
            profile.evaluate_R(-7.5)
        assert len(profile._orbits) == 1

    def test_overflow_guard(self, profile3):
        with pytest.raises(RangeError):
            profile3.evaluate_R(9.0)

    def test_cache_stays_consistent_across_overflow(self):
        # an interrupted extension must not desynchronize the cached floats
        # from the high-precision state used for later extensions
        prof = VarianceProfile(3)
        v5 = prof.evaluate_R(5.0)
        with pytest.raises(RangeError):
            prof.evaluate_R(9.0)
        v6 = prof.evaluate_R(6.0)
        with pytest.raises(RangeError):
            prof.evaluate_R(7.0)
        assert psi(3, v5) == pytest.approx(v6, rel=1e-12)
        assert VarianceProfile(3).evaluate_R(6.0) == v6

    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    def test_last_representable_level(self, b):
        # the level below the cap keeps finite floats; the next one raises
        # and leaves the integer state on the last cached pair
        prof = VarianceProfile(b)
        r = 0.0
        with pytest.raises(RangeError):
            while True:
                prof.evaluate_pair(r + 1.0)
                r += 1.0
        R, Rp = prof.evaluate_pair(r)
        assert math.isfinite(R) and math.isfinite(Rp)
        orbit = prof._orbits[0.0]
        one = 1 << orbit.bits
        for _ in range(2):
            with pytest.raises(RangeError):
                prof.evaluate_pair(r + 1.0)
            assert orbit.values[-1] == (R, Rp)
            assert (orbit.R / one, orbit.Rp / one) == (R, Rp)
        assert VarianceProfile(b).evaluate_pair(r) == (R, Rp)

    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    def test_matches_mpmath_orbit(self, b):
        # every cached pair of the integer orbit, from its seed up to the
        # overflow level, against the same series seed evaluated and stepped
        # in 40-digit mpmath
        prof = VarianceProfile(b)
        for xi in (0.0, 0.25, 0.625):
            r = -40.0 + xi
            with pytest.raises(RangeError):
                while True:
                    prof.evaluate_pair(r)
                    r += 1.0
            orbit = prof._orbits[xi]
            want = orbit_by_mpmath(b, xi + orbit.base_floor, len(orbit.values))
            assert len(orbit.values) > orbit.depth + 40
            for got, ref in zip(orbit.values, want):
                for g, w in zip(got, ref):
                    assert abs(g - w) <= math.ulp(w)

    def test_one_orbit_build_per_residue_class(self, monkeypatch, tmp_path):
        # the moment ladder's seed level is the orbit's own seed level, so
        # an rfunc pass builds each residue class once
        builds = []
        build = VarianceProfile._build_orbit

        def counting(self, xi, probe_floor):
            builds.append(xi)
            return build(self, xi, probe_floor)

        monkeypatch.setattr(VarianceProfile, "_build_orbit", counting)
        argv = ["rfunc", "--b", "2", "--grid", "-2:0.125:1", "--allow-flagged",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert sorted(builds) == [k / 8 for k in range(8)]

    def test_convergence_error_reports_iterates(self, monkeypatch):
        monkeypatch.setattr(rfunction, "SEED_DEPTH", 4)
        monkeypatch.setattr(rfunction, "MAX_SEED_DEPTH", 8)
        monkeypatch.setattr(rfunction, "TOLERANCE", 0.0)
        with pytest.raises(ConvergenceError) as err:
            VarianceProfile(2).evaluate_R(0.0)
        assert err.value.last_iterates is not None


class TestEvaluateRPrime:
    def test_two_term_asymptotic_agreement(self):
        # derivative of the two-term asymptotic: kappa^2/t^2 + kappa^2 eta (2 log t - 1)/t^3
        prof = VarianceProfile(2)
        t = 1e6
        val = prof.evaluate_R_prime(-t)
        ref = kappa_sq(2) / t**2 + kappa_sq(2) * eta(2) * (2 * math.log(t) - 1) / t**3
        assert abs(val - ref) / ref < 1e-5
        # the leading term alone is off by the documented ~2.7e-5 relative
        assert abs(val - kappa_sq(2) / t**2) / val < 5e-5

    def test_recursion_identity_grid(self, profile2):
        for r in np.arange(-6.0, 6.0, 1.0):
            R, Rp = profile2.evaluate_pair(r)
            ratio = profile2.evaluate_R_prime(r + 1.0) / Rp
            assert ratio == pytest.approx(1.0 + R, rel=1e-9)

    def test_finite_difference_cross_check(self, profile2):
        h = 1e-4
        for r in (-3.0, 0.25, 2.0):
            fd = (profile2.evaluate_R(r + h) - profile2.evaluate_R(r - h)) / (2 * h)
            assert fd == pytest.approx(profile2.evaluate_R_prime(r), rel=1e-5)

    def test_positive(self, profile2):
        assert all(
            profile2.evaluate_R_prime(r) > 0 for r in np.arange(-8.0, 8.5, 1.0)
        )


class TestMomentRecursion:
    def test_unit_mass_fixed_point(self):
        assert moment_recursion_step(2, [1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]

    def test_second_moment_example(self):
        out = moment_recursion_step(2, [1.0, 1.0, 1.5])
        assert out[2] == pytest.approx(1.625, abs=1e-15)
        assert out[2] == pytest.approx(1.0 + psi(2, 0.5), abs=1e-12)

    def test_third_moment_fixed_point(self):
        out = moment_recursion_step(2, [1.0, 1.0, 1.0, 1.0])
        assert out[3] == pytest.approx(1.0, abs=1e-15)

    def test_mean_preserved_exactly(self):
        moments = [1.0, 1.0, 1.7, 3.2, 9.9]
        for _ in range(8):  # the higher moments overflow soon after
            moments = moment_recursion_step(2, moments)
            assert abs(moments[1] - 1.0) <= 1e-14

    def test_psi_link_single_step(self):
        for m2 in (1.1, 1.9618, 6.41):
            out = moment_recursion_step(2, [1.0, 1.0, m2])
            assert out[2] - 1.0 == pytest.approx(psi(2, m2 - 1.0), abs=1e-12)

    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    def test_matches_composition_sum(self, b):
        # the binomial fold over branches against the sum over all
        # compositions of k into b parts, up to the order budget
        for kind, variance in (("two-point", 0.3), ("lognormal", 0.05)):
            moments = SeedSpec(kind).raw_moments(variance, 16)
            got = moment_recursion_step(b, moments)
            want = moment_step_by_compositions(b, moments)
            assert got[0] == 1.0
            assert np.max(np.abs(np.array(got) / np.array(want) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("b", [2, 3])
    def test_overflow_reads_inf_above_exact_orders(self, b):
        # the top order leaves double range; no order below it reads it
        out = moment_recursion_step(b, [1.0, 1.0, 2.0, 1e300])
        assert out[3] == math.inf
        assert out[:3] == moment_recursion_step(b, [1.0, 1.0, 2.0])

    def test_budget(self):
        with pytest.raises(UsageError):
            moment_recursion_step(2, [1.0] * 20)
        with pytest.raises(UsageError):
            moment_recursion_step(2, [2.0, 1.0])


class TestSeedMoments:
    def test_two_point_matches_mean_and_variance(self):
        V = 0.0831
        m = SeedSpec("two-point").raw_moments(V, 4)
        assert m[0] == 1.0 and m[1] == 1.0
        assert m[2] == pytest.approx(1.0 + V, abs=1e-15)
        centered = raw_to_centered(m)
        assert centered[3] == pytest.approx(0.0, abs=1e-15)

    def test_lognormal_moments(self):
        V = 0.25
        m = SeedSpec("lognormal").raw_moments(V, 4)
        assert m[2] == pytest.approx(1.0 + V, abs=1e-15)
        assert m[3] == pytest.approx((1.0 + V) ** 3, abs=1e-12)

    def test_validation(self):
        with pytest.raises(UsageError):
            SeedSpec("bogus")
        with pytest.raises(DomainError):
            SeedSpec("two-point").raw_moments(1.5, 4)


class TestMomentTable:
    def test_second_channel_reproduces_R(self, profile2):
        for depth in (None, 24):
            table = moment_table(profile2, [-2.0], 4, "two-point", depth=depth)
            assert table.centered[0, 2] == pytest.approx(
                profile2.evaluate_R(-2.0), abs=1e-9
            )

    def test_raw_centered_consistency(self, profile2):
        table = moment_table(profile2, [-4.0], 6, "two-point")
        recomputed = raw_to_centered(list(table.raw[0]))
        assert np.allclose(table.centered[0], recomputed, rtol=0, atol=1e-13)
        assert table.raw[0, 0] == 1.0
        assert table.raw[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_decay_orders(self, profile2):
        # centered moments 3 and 4 decay like (-r)^(-2).  The log-log fit
        # uses the dyadic points -2^6..-2^10: at -2^4 the third/fourth
        # moments still sit ~2x above their asymptote (transient), which
        # would drag the global slope to about -2.56.
        grid = [-(2.0**k) for k in range(6, 11)]
        table = moment_table(profile2, grid, k_max=4, seed_kind="two-point")
        logs_r = np.log([-r for r in grid])
        slope4 = np.polyfit(logs_r, np.log(table.centered[:, 4]), 1)[0]
        slope3 = np.polyfit(logs_r, np.log(table.centered[:, 3]), 1)[0]
        assert slope4 == pytest.approx(-2.0, abs=0.15)
        assert slope3 == pytest.approx(-2.0, abs=0.2)

    def test_moment_ordering_in_r(self, profile2):
        grid = list(np.arange(-12.0, -3.0, 1.0))
        table = moment_table(profile2, grid, k_max=6, seed_kind="two-point")
        order = np.argsort(grid)
        for k in range(2, 7):
            col = table.raw[order, k]
            assert np.all(np.diff(col) > 0)

    def test_overflow_rows_flagged_as_nan(self, profile2):
        table = moment_table(profile2, [-8.0, 2.0], k_max=6, seed_kind="two-point")
        assert np.all(np.isfinite(table.raw[0]))
        assert np.all(np.isnan(table.raw[1]))

    def test_ladder_budget_checked_before_any_step(self, monkeypatch):
        def stepped(*args):
            raise AssertionError("the ladder ran a step")

        monkeypatch.setattr(rfunction, "moment_recursion_step", stepped)
        with pytest.raises(BudgetError, match=r"to -1\.0 needs 1002047, above the budget"):
            moment_table(VarianceProfile(2), [-1e6, -1.0])
        with pytest.raises(BudgetError, match=f"above the budget of {rfunction.ORBIT_LEVEL_BUDGET}"):
            moment_table(VarianceProfile(2), [-1.0], depth=rfunction.ORBIT_LEVEL_BUDGET + 1)

    def test_mixed_residue_grid_matches_each_class(self):
        # each residue class runs its own ladder; rows come back in grid order
        grid = [0.5, -3.0, -1.25, 2.0, -3.0, -7.5, 8.0]
        for b in (2, 3):
            profile = VarianceProfile(b)
            table = moment_table(profile, grid, k_max=6)
            for residue in (0.0, 0.5, 0.75):
                pos = [i for i, r in enumerate(grid) if r % 1 == residue]
                alone = moment_table(profile, [grid[i] for i in pos], k_max=6)
                assert table.raw[pos].tobytes() == alone.raw.tobytes()
                assert table.centered[pos].tobytes() == alone.centered.tobytes()
