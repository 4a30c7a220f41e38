import re

import numpy as np
import pytest

from condks import (
    ConstantFamily,
    ExponentialRate,
    GaussianMixtureSampler,
    NormalLocation,
    PointMassSampler,
    Scenario,
    UniformSampler,
    TabulatedFamily,
    UniformWidth,
    critical_value,
    ks_statistic_uniform,
    meta_test,
    p_value,
    power_estimate,
    replicate_rng,
    run_replicates,
)
from condks.monte_carlo import BLOCK_VALUES, power_from_statistics


def calibration_scenario(n=20, replicates=200, seed=42):
    return Scenario(
        zeta_sampler=UniformSampler(0.0, 1.0),
        null_family=NormalLocation(sigma=1.0),
        n=n,
        replicates=replicates,
        seed=seed,
    )


class TestSamplers:
    def test_uniform_range(self):
        rng = np.random.default_rng(1)
        draws = UniformSampler(-2.0, 3.0).draw(rng, 10_000)
        assert draws.min() >= -2.0 and draws.max() < 3.0
        assert abs(draws.mean() - 0.5) < 0.05

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformSampler(1.0, 1.0)
        with pytest.raises(ValueError):
            UniformSampler(2.0, 1.0)

    def test_point_mass(self):
        draws = PointMassSampler(1.5).draw(np.random.default_rng(0), 100)
        assert np.all(draws == 1.5)

    def test_mixture_moments(self):
        s = GaussianMixtureSampler(components=((0.5, -1.0, 1.0), (0.5, 3.0, 0.5)))
        draws = s.draw(np.random.default_rng(9), 100_000)
        assert abs(draws.mean() - 1.0) < 0.03

    def test_mixture_validation(self):
        with pytest.raises(ValueError, match="sum"):
            GaussianMixtureSampler(components=((0.7, 0.0, 1.0), (0.7, 1.0, 1.0)))
        with pytest.raises(ValueError, match="negative"):
            GaussianMixtureSampler(components=((-0.5, 0.0, 1.0), (1.5, 1.0, 1.0)))
        with pytest.raises(ValueError, match="sd"):
            GaussianMixtureSampler(components=((1.0, 0.0, 0.0),))
        with pytest.raises(ValueError, match="component"):
            GaussianMixtureSampler(components=())


class TestScenario:
    def test_data_family_defaults_to_null(self):
        sc = calibration_scenario()
        assert sc.data_family == sc.null_family
        assert sc.is_calibration

    def test_power_scenario_detected(self):
        sc = Scenario(
            zeta_sampler=UniformSampler(0.0, 1.0),
            null_family=NormalLocation(sigma=1.0),
            data_family=NormalLocation(sigma=2.0),
            n=10, replicates=5, seed=1,
        )
        assert not sc.is_calibration

    def test_size_validation(self):
        with pytest.raises(ValueError):
            calibration_scenario(n=0)
        with pytest.raises(ValueError):
            calibration_scenario(replicates=0)

    def test_incompatible_bounded_sampler_rejected_up_front(self):
        with pytest.raises(ValueError, match="zeta > 0"):
            Scenario(zeta_sampler=UniformSampler(-1.0, 1.0),
                     null_family=ExponentialRate(), n=5, replicates=5, seed=1)
        with pytest.raises(ValueError, match="zeta > 0"):
            Scenario(zeta_sampler=PointMassSampler(-2.0),
                     null_family=ExponentialRate(), n=5, replicates=5, seed=1)
        # data family is checked too
        with pytest.raises(ValueError, match="data"):
            Scenario(zeta_sampler=UniformSampler(-1.0, 1.0),
                     null_family=UniformWidth(),
                     data_family=ExponentialRate(), n=5, replicates=5, seed=1)

    def test_point_mass_outside_domain_rejected_up_front(self):
        # zeta = 0 is the one point of [0, inf) that exponential-rate rejects
        with pytest.raises(ValueError, match=r"null family 'exponential-rate' .*"
                                             r"zeta=0\.0: rate zeta must be > 0"):
            Scenario(zeta_sampler=PointMassSampler(0.0),
                     null_family=ExponentialRate(), n=5, replicates=5, seed=1)
        with pytest.raises(ValueError, match=r"data family .*zeta=0\.0"):
            Scenario(zeta_sampler=PointMassSampler(0.0), null_family=UniformWidth(),
                     data_family=ExponentialRate(), n=5, replicates=5, seed=1)
        # an interval reaching 0 stays accepted: it draws 0 with probability 0
        Scenario(zeta_sampler=UniformSampler(0.0, 1.0),
                 null_family=ExponentialRate(), n=5, replicates=5, seed=1)

    def test_interval_check_follows_the_family_bound(self):
        class ShiftedWindow(UniformWidth):
            zeta_lower = 1.5

        with pytest.raises(ValueError, match=re.escape(
                "null family 'uniform-width' needs zeta > 1.5 but the sampler "
                "can draw values down to 1.0")):
            Scenario(zeta_sampler=UniformSampler(1.0, 2.0),
                     null_family=ShiftedWindow(), n=5, replicates=5, seed=1)
        Scenario(zeta_sampler=UniformSampler(1.5, 2.0),
                 null_family=ShiftedWindow(), n=5, replicates=5, seed=1)

    def test_unbounded_sampler_fails_at_runtime_with_index(self):
        # a mixture straddling zero passes the up-front check but must
        # abort on the first replicate that draws a nonpositive rate
        sc = Scenario(
            zeta_sampler=GaussianMixtureSampler(components=((1.0, 1.0, 0.3),)),
            null_family=ExponentialRate(), n=40, replicates=300, seed=7,
        )
        # re-derive one replicate at a time, in the harness's draw order
        want = None
        for r in range(sc.replicates):
            zetas = sc.zeta_sampler.draw(replicate_rng(7, r), sc.n)
            bad = np.flatnonzero(zetas <= 0.0)
            if bad.size:
                want = (r, int(bad[0]), float(zetas[bad[0]]))
                break
        assert want is not None and want[0] > 0 and want[1] > 0
        r, i, z = want
        with pytest.raises(ValueError) as info:
            run_replicates(sc)
        assert str(info.value) == (
            f"replicate {r}: zeta={z} at index {i} invalid for family "
            f"'exponential-rate': rate zeta must be > 0"
        )


class TestReplicateRng:
    def test_deterministic_per_index(self):
        a = replicate_rng(123, 5).random(4)
        b = replicate_rng(123, 5).random(4)
        assert np.array_equal(a, b)

    def test_streams_differ_across_indices_and_seeds(self):
        a = replicate_rng(123, 5).random(4)
        assert not np.array_equal(a, replicate_rng(123, 6).random(4))
        assert not np.array_equal(a, replicate_rng(124, 5).random(4))


class TestRunReplicates:
    def test_order_independent_slots(self):
        full = run_replicates(calibration_scenario(replicates=140))
        short = run_replicates(calibration_scenario(replicates=40))
        assert np.array_equal(full[:40], short)

    def test_statistic_range(self):
        sc = calibration_scenario(n=15, replicates=50)
        stats = run_replicates(sc)
        assert stats.shape == (50,)
        assert np.all(stats >= 1.0 / 30.0) and np.all(stats <= 1.0)

    def test_point_mass_collapses_to_classic_sampling_bit_for_bit(self):
        # with a unit-window family at zeta = 0 the transform is the
        # identity on the underlying uniforms
        sc = Scenario(zeta_sampler=PointMassSampler(0.0),
                      null_family=UniformWidth(), n=25, replicates=60, seed=99)
        stats = run_replicates(sc)
        direct = []
        for r in range(60):
            rng = replicate_rng(99, r)
            sc.zeta_sampler.draw(rng, 25)  # same draw order as the harness
            u = rng.random(25)
            direct.append(ks_statistic_uniform(np.sort(u)))
        assert np.array_equal(stats, np.array(direct))

    def test_cdf_outside_unit_interval_names_the_replicate(self):
        sc = Scenario(zeta_sampler=PointMassSampler(0.0),
                      null_family=ConstantFamily(lambda x: 2.0 * x),
                      data_family=UniformWidth(), n=10, replicates=5, seed=2)
        with pytest.raises(ValueError, match=r"replicate 0: .*outside \[0, 1\]"):
            run_replicates(sc)

    def test_point_mass_collapse_normal_family(self):
        sc = Scenario(zeta_sampler=PointMassSampler(2.0),
                      null_family=NormalLocation(sigma=1.0),
                      n=20, replicates=40, seed=5)
        stats = run_replicates(sc)
        direct = []
        for r in range(40):
            rng = replicate_rng(5, r)
            sc.zeta_sampler.draw(rng, 20)
            u = rng.random(20)
            direct.append(ks_statistic_uniform(np.sort(u)))
        # quantile-then-cdf round trip reintroduces float noise only
        assert np.max(np.abs(stats - np.array(direct))) < 1e-12


def _one_at_a_time(sc):
    # the reference the block path must match bit for bit: each replicate
    # on its own, through the 1-d family calls and ks_statistic_uniform
    stats = []
    for r in range(sc.replicates):
        rng = replicate_rng(sc.seed, r)
        zetas = sc.zeta_sampler.draw(rng, sc.n)
        u = rng.random(sc.n)
        xi = sc.data_family.quantile(u, zetas)
        stats.append(ks_statistic_uniform(np.sort(sc.null_family.cdf(xi, zetas))))
    return np.array(stats)


def _tabulated():
    zg = np.linspace(-1.0, 3.0, 9)
    xk = np.linspace(-6.0, 9.0, 121)
    return TabulatedFamily(zg, xk, NormalLocation(sigma=1.0).cdf(xk[None, :], zg[:, None]))


BLOCK_FAMILIES = {
    "normal-location": (NormalLocation(sigma=1.0), NormalLocation(sigma=1.5)),
    "exponential-rate": (ExponentialRate(), None),
    "uniform-width": (UniformWidth(), None),
    "tabulated": (_tabulated(), NormalLocation(sigma=1.0)),
}
BLOCK_SAMPLERS = {
    "uniform": UniformSampler(0.5, 2.0),
    "point-mass": PointMassSampler(1.25),
    "gaussian-mixture": GaussianMixtureSampler(components=((0.4, 1.0, 0.1), (0.6, 2.0, 0.2))),
}


class TestBlockMatchesOneReplicateAtATime:
    @pytest.mark.parametrize("sampler", sorted(BLOCK_SAMPLERS))
    @pytest.mark.parametrize("family", sorted(BLOCK_FAMILIES))
    def test_bit_for_bit(self, family, sampler):
        null, data = BLOCK_FAMILIES[family]
        rows = BLOCK_VALUES // 30
        # 2 full blocks and a partial one
        sc = Scenario(zeta_sampler=BLOCK_SAMPLERS[sampler], null_family=null,
                      data_family=data, n=30, replicates=2 * rows + 17, seed=4242)
        assert sc.replicates % rows != 0
        got = run_replicates(sc)
        assert np.array_equal(got.view(np.int64), _one_at_a_time(sc).view(np.int64))

    def test_sample_larger_than_a_block(self):
        sc = Scenario(zeta_sampler=UniformSampler(0.0, 1.0),
                      null_family=NormalLocation(sigma=1.0),
                      data_family=NormalLocation(sigma=2.0),
                      n=BLOCK_VALUES + 123, replicates=3, seed=31)
        got = run_replicates(sc)
        assert np.array_equal(got.view(np.int64), _one_at_a_time(sc).view(np.int64))


class TestMetaTest:
    def test_null_statistics_pass(self):
        # draw from the exact law by inverse transform, then meta-test
        rng = np.random.default_rng(60601)
        n = 12
        stats = [critical_value(n, 1.0 - float(u)) for u in rng.random(400)]
        report = meta_test(stats, n, alpha=0.01)
        assert not report.reject
        assert report.n == 400

    def test_degenerate_statistics_rejected(self):
        report = meta_test([1.0] * 500, 10, alpha=0.01)
        assert report.reject
        assert report.p_value < 1e-10

    def test_shifted_statistics_rejected(self):
        # statistics uniformly too small for their claimed n
        report = meta_test(np.full(300, 0.05), 20, alpha=0.01)
        assert report.reject

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            meta_test([], 10)


class TestPowerEstimate:
    def test_calibration_rate_near_alpha(self):
        est = power_estimate(calibration_scenario(n=30, replicates=2000, seed=8),
                             alpha=0.05)
        assert abs(est.rejection_rate - 0.05) < 0.02
        assert est.std_error == pytest.approx(
            np.sqrt(est.rejection_rate * (1 - est.rejection_rate) / 2000)
        )

    def test_separated_families_have_power(self):
        sc = Scenario(
            zeta_sampler=UniformSampler(0.0, 1.0),
            null_family=NormalLocation(sigma=1.0),
            data_family=NormalLocation(sigma=2.0),
            n=100, replicates=400, seed=17,
        )
        est = power_estimate(sc, alpha=0.05)
        assert est.rejection_rate > 0.5

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            power_estimate(calibration_scenario(replicates=5), alpha=0.0)

    def test_power_from_statistics_counts_p_values(self):
        stats = run_replicates(calibration_scenario(n=20, replicates=300, seed=3))
        est = power_from_statistics(stats, 20, 0.1)
        rejections = sum(1 for s in stats if p_value(float(s), 20) < 0.1)
        assert est.rejection_rate == rejections / 300
        assert est.std_error == np.sqrt(est.rejection_rate * (1 - est.rejection_rate) / 300)
        with pytest.raises(ValueError, match="alpha"):
            power_from_statistics(stats, 20, 1.0)
        with pytest.raises(ValueError, match="statistic"):
            power_from_statistics([], 20, 0.1)
