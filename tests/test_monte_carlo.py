import errno
import gc
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import condks
from condks import monte_carlo
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
        with pytest.raises(ValueError, match="need finite c, got nan"):
            PointMassSampler(math.nan)

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
        with pytest.raises(ValueError, match="must be finite"):
            GaussianMixtureSampler(components=((1.0, math.inf, 1.0),))

    def test_mixture_weight_sum_tolerance(self):
        # The sum may miss 1 by rounding (1e-13), not by a wrong weight (1e-9).
        with pytest.raises(ValueError, match="mixture weights sum to"):
            GaussianMixtureSampler(components=((0.5, 0.0, 1.0), (0.5 + 1e-9, 1.0, 1.0)))
        for off in (1e-13, -1e-13):
            s = GaussianMixtureSampler(components=((0.5, 0.0, 1.0), (0.5 + off, 1.0, 1.0)))
            assert abs(sum(w for w, _, _ in s.components) - 1.0) < 1e-12


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
        with pytest.raises(ValueError, match="^sample size must be an integer >= 1, got 5.5$"):
            calibration_scenario(n=5.5)
        with pytest.raises(ValueError,
                           match="^replicate count must be an integer >= 1, got 2.5$"):
            calibration_scenario(replicates=2.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError) as caught:
            calibration_scenario(seed=seed)
        assert str(caught.value) == f"seed must be a non-negative integer, got {seed}"

    def test_numpy_integer_seed_is_accepted(self):
        stats = run_replicates(calibration_scenario(replicates=3, seed=np.int64(42)))
        assert np.array_equal(stats, run_replicates(calibration_scenario(replicates=3)))

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

    def test_states_match_numpy_for_consecutive_indices(self):
        got = np.array([replicate_rng(88050, r).bit_generator.seed_seq.generate_state(
            4, np.uint64) for r in range(10**5)])
        want = np.array([np.random.SeedSequence(88050, spawn_key=(r,)).generate_state(
            4, np.uint64) for r in range(10**5)])
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**70 + 3, 2**130 + 11])
    def test_full_state_matches_numpy(self, seed):
        # Block edges, the last one-word index, and two-word indices.
        for index in (1023, 1024, 2047, 2**32 - 1, 2**32, 2**40 + 3):
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,)))
            for s, r in ((seed, index), (np.uint64(seed) if seed < 2**64 else seed,
                                         np.int64(index))):
                assert replicate_rng(s, r).bit_generator.state == want.state, (s, r)

    def test_other_state_requests_match_numpy(self):
        seq = replicate_rng(88050, 3).bit_generator.seed_seq
        real = np.random.SeedSequence(88050, spawn_key=(3,))
        assert (seq.entropy, seq.spawn_key) == (real.entropy, real.spawn_key)
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
            assert np.array_equal(seq.generate_state(n_words, dtype),
                                  real.generate_state(n_words, dtype))

    def test_spawned_children_draw_numpy_children(self):
        rng = replicate_rng(88050, 1500)
        real = np.random.SeedSequence(88050, spawn_key=(1500,))
        for _ in range(2):  # a second spawn gives the next children, as numpy's does
            got = [child.random(5) for child in rng.spawn(2)]
            want = [np.random.Generator(np.random.PCG64(c)).random(5) for c in real.spawn(2)]
            assert np.array_equal(got, want)

    def test_two_calls_give_independent_generators(self):
        first, second = replicate_rng(9, 2), replicate_rng(9, 2)
        assert first.bit_generator is not second.bit_generator
        drawn = first.random(100)
        assert np.array_equal(second.random(100), drawn)
        assert np.array_equal(replicate_rng(9, 2).random(100), drawn)

    def test_cached_block_refuses_a_write(self):
        state = replicate_rng(5, 3).bit_generator.seed_seq.generate_state(4, np.uint64)
        with pytest.raises(ValueError, match="read-only"):
            state[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            monte_carlo._state_block(5, 0)[3, 0] = 0
        assert np.array_equal(replicate_rng(5, 3).bit_generator.seed_seq.generate_state(
            4, np.uint64), np.random.SeedSequence(5, spawn_key=(3,)).generate_state(4, np.uint64))

    @pytest.mark.parametrize("sampler", ["uniform", "point-mass", "gaussian-mixture"])
    def test_samplers_draw_numpy_values_per_replicate(self, sampler):
        draw = BLOCK_SAMPLERS[sampler].draw
        for r in range(1000, 1100):  # across a block edge
            want = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(4242, spawn_key=(r,))))
            rng = replicate_rng(4242, r)
            assert np.array_equal(draw(rng, 30), draw(want, 30))
            assert np.array_equal(rng.random(30), want.random(30))

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # numpy.random adds about 6 MB to a process that never draws.
        src = str(Path(condks.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, condks.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
        assert proc.stdout == b"False\n"

    def test_an_exact_law_simulate_leaves_numpy_ma_unloaded(self, tmp_path):
        # The batched law finds its distinct statistics without np.unique,
        # which imports numpy.ma (about 0.6 MB) on its first call.
        src = str(Path(condks.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cfg = tmp_path / "power.cfg"
        cfg.write_text("zeta_sampler = uniform:a=0,b=1\n"
                       "null_family = normal-location:sigma=1\n"
                       "data_family = normal-location:sigma=2\n"
                       "n = 140\nreplicates = 200\nseed = 7\n")
        code = ("import sys, condks.cli\n"
                "try:\n"
                "    condks.cli.main(sys.argv[1:])\n"
                "except SystemExit as stop:\n"
                "    print(stop.code, 'numpy.ma' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, "simulate", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
        assert proc.stdout == b"1 False\n"
        assert (tmp_path / "out" / "summary.json").is_file()


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


def power_scenario(n=37, replicates=3337, seed=25):
    # 3337 = 47 * 71: 16 blocks of 221 at n = 37, the last one short.
    return Scenario(zeta_sampler=UniformSampler(0.0, 1.0),
                    null_family=NormalLocation(sigma=1.0),
                    data_family=NormalLocation(sigma=2.0),
                    n=n, replicates=replicates, seed=seed)


PART_SCENARIOS = {
    "power at n = 37": power_scenario,
    "calibration at n = 50": lambda: calibration_scenario(n=50, replicates=2000),
    "power at n = 141": lambda: power_scenario(n=141, replicates=1000),
    # A lambda does not pickle; a forked child never needs it to.
    "constant family around a lambda": lambda: Scenario(
        zeta_sampler=PointMassSampler(0.0), null_family=ConstantFamily(lambda x: x),
        data_family=UniformWidth(), n=50, replicates=2000, seed=3),
}

# 12 blocks of 204 replicates at n = 40.  A zeta at or below 0 comes first
# at replicates 1328 and 2066: in the second of two parts, and in the
# second and third of three.
FAILING_IN_PARTS = dict(
    zeta_sampler=GaussianMixtureSampler(components=((1.0, 1.0, 0.25),)),
    null_family=ExponentialRate(), n=40, replicates=12 * 204, seed=11)


class NeedsTwoArguments(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestRunReplicatesInParts:
    """``run_replicates(scenario, jobs)`` runs contiguous parts of whole
    blocks, the first in this process and each other in a forked child,
    with the same bits and errors as one process."""

    @pytest.mark.parametrize("name", sorted(PART_SCENARIOS))
    def test_same_bits_for_any_jobs(self, forks, name):
        sc = PART_SCENARIOS[name]()
        serial = run_replicates(sc)
        assert forks == []
        for jobs in (2, 3):
            got = run_replicates(sc, jobs=jobs)
            assert len(forks) == jobs - 1
            assert np.array_equal(got.view(np.int64), serial.view(np.int64))
            forks.clear()

    @pytest.mark.parametrize("blocks, parts", [(1, 1), (4, 1), (7, 1), (8, 2), (11, 2), (12, 3), (40, 3)])
    def test_four_blocks_a_part_at_least(self, forks, blocks, parts):
        rows = BLOCK_VALUES // 50
        sc = calibration_scenario(n=50, replicates=blocks * rows - 1)
        got = run_replicates(sc, jobs=3)
        assert len(forks) == parts - 1
        assert np.array_equal(got, run_replicates(sc))

    def test_each_part_fills_an_open_law_scope(self, forks, monkeypatch):
        sc = power_scenario()
        with condks.kolmogorov._shared_law(37):
            stats = run_replicates(sc, jobs=3)
            filled = condks.kolmogorov._law_memo.get()
        assert len(forks) == 2
        assert filled == {37: condks.kolmogorov._exact_cdf_many(37, stats)}
        # No law is computed outside a scope for n.
        monkeypatch.setattr(monte_carlo, "_exact_cdf_many", None)
        with condks.kolmogorov._shared_law(36):
            assert np.array_equal(run_replicates(sc, jobs=3), stats)
            assert condks.kolmogorov._law_memo.get() == {36: {}}
        assert np.array_equal(run_replicates(sc, jobs=3), stats)

    def test_the_lowest_failing_replicate_is_named_for_any_jobs(self, forks):
        sc = Scenario(**FAILING_IN_PARTS)
        bad = [r for r in range(sc.replicates)
               if (sc.zeta_sampler.draw(replicate_rng(sc.seed, r), sc.n) <= 0.0).any()]
        assert bad == [1328, 2066]
        messages = []
        for jobs in (1, 2, 3):
            with pytest.raises(ValueError) as info:
                run_replicates(sc, jobs=jobs)
            messages.append(str(info.value))
        assert len(forks) == 3
        assert messages[0].startswith("replicate 1328: zeta=-")
        assert messages == messages[:1] * 3

    def test_a_child_exception_keeps_its_type_and_message(self, forks, monkeypatch):
        parent, run = os.getpid(), monte_carlo._run_range

        def failing_in_children(scenario, start, stop, law):
            if os.getpid() != parent:
                raise KeyError(f"part from replicate {start}")
            return run(scenario, start, stop, law)

        monkeypatch.setattr(monte_carlo, "_run_range", failing_in_children)
        with pytest.raises(KeyError) as info:
            run_replicates(power_scenario(), jobs=3)
        # The lower of the two failing parts: 5 of 16 blocks of 221.
        assert info.value.args == ("part from replicate 1105",)
        assert len(forks) == 2

    def test_a_child_that_dies_is_named_with_its_status(self, forks, monkeypatch):
        parent, run = os.getpid(), monte_carlo._run_range

        def dying_in_children(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run(*args)

        monkeypatch.setattr(monte_carlo, "_run_range", dying_in_children)
        with pytest.raises(ChildProcessError, match="^a worker process exited with status 3$"):
            run_replicates(power_scenario(), jobs=2)
        assert len(forks) == 1

    @pytest.mark.parametrize("error, message", [
        # Pickles, but its class cannot be rebuilt from its args.
        (lambda: NeedsTwoArguments(1, 2), "^NeedsTwoArguments: 1 and 2$"),
        # Does not pickle at all.
        (lambda: ValueError(lambda: None), "^ValueError: <function .*<lambda> at 0x"),
    ])
    def test_a_child_exception_that_does_not_pickle_keeps_its_type_name(
            self, forks, monkeypatch, error, message):
        parent, run = os.getpid(), monte_carlo._run_range

        def failing_in_children(*args):
            if os.getpid() != parent:
                raise error()
            return run(*args)

        monkeypatch.setattr(monte_carlo, "_run_range", failing_in_children)
        with pytest.raises(RuntimeError, match=message):
            run_replicates(power_scenario(), jobs=2)
        assert len(forks) == 1

    def test_the_first_parts_error_stops_the_children(self, forks, monkeypatch):
        parent = os.getpid()

        def failing(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("the first part failed")

        monkeypatch.setattr(monte_carlo, "_run_range", failing)
        started = time.monotonic()
        with pytest.raises(ValueError, match="^the first part failed$"):
            run_replicates(power_scenario(), jobs=3)
        assert time.monotonic() - started < 30
        assert len(forks) == 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_failed_fork_stops_the_children_and_closes_the_pipes(self, forks, monkeypatch):
        fork = os.fork

        def second_fails():
            if forks:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_replicates(power_scenario(), jobs=3)
        assert len(forks) == 1
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_the_collector_is_frozen_across_the_forks_only(self, forks):
        # Frozen objects are left out of collections, which would otherwise
        # write to the pages that the children share with this process.
        frozen = monte_carlo._in_parts(gc.get_freeze_count, [(), ()])
        assert frozen[0] > 0 and frozen[1] > 0
        assert gc.get_freeze_count() == 0

        def failing():
            raise ValueError("a part failed")

        with pytest.raises(ValueError, match="^a part failed$"):
            monte_carlo._in_parts(failing, [(), ()])
        assert len(forks) == 2
        assert gc.get_freeze_count() == 0
        assert monte_carlo._in_parts(gc.get_freeze_count, [()]) == [0]
        assert len(forks) == 2

    def test_without_fork_the_run_stays_in_this_process(self, monkeypatch):
        sc = power_scenario()
        serial = run_replicates(sc)
        monkeypatch.delattr(os, "fork")
        assert np.array_equal(run_replicates(sc, jobs=3), serial)

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2"])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        with pytest.raises(ValueError, match=f"^jobs must be an integer >= 1, got {jobs}$"):
            run_replicates(calibration_scenario(), jobs=jobs)


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
