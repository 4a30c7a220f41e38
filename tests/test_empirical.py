import numpy as np
import pytest

from condks import (
    SortedUnitSample,
    ks_statistic_uniform,
)


def brute_force_uniform_stat(u: np.ndarray, grid_size: int = 20_000) -> float:
    """Sup distance via dense grid plus both one-sided gaps at jumps."""
    candidates = np.concatenate([np.linspace(0.0, 1.0, grid_size), u])
    right = np.searchsorted(u, candidates, side="right") / u.size
    left = np.searchsorted(u, candidates, side="left") / u.size
    return float(np.maximum(np.abs(right - candidates),
                            np.abs(left - candidates)).max())


class TestSortedUnitSample:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            SortedUnitSample(np.array([0.5, 0.2]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SortedUnitSample(np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            SortedUnitSample(np.array([0.5, 1.1]))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            SortedUnitSample(np.array([]))
        with pytest.raises(ValueError):
            SortedUnitSample(np.array([0.1, np.nan]))

    def test_endpoints_allowed(self):
        s = SortedUnitSample(np.array([0.0, 1.0]))
        assert s.n == 2


class TestKsStatisticUniform:
    def test_single_point_zero(self):
        assert ks_statistic_uniform([0.0]) == 1.0

    def test_midpoint_sample_attains_lower_bound(self):
        # n a power of two keeps every quantity exactly representable
        n = 8
        u = [(2 * i - 1) / (2 * n) for i in range(1, n + 1)]
        assert ks_statistic_uniform(u) == 1.0 / (2.0 * n)

    def test_range_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            u = np.sort(rng.random(n))
            s = ks_statistic_uniform(u)
            assert 1.0 / (2.0 * n) <= s <= 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8675309)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            u = np.sort(rng.random(n))
            fast = ks_statistic_uniform(u)
            assert fast == pytest.approx(brute_force_uniform_stat(u), abs=1e-12)

    def test_accepts_sample_object(self):
        u = np.sort(np.random.default_rng(0).random(10))
        assert ks_statistic_uniform(SortedUnitSample(u)) == ks_statistic_uniform(u)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ks_statistic_uniform([0.7, 0.2])

