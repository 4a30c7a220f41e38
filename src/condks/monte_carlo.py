"""Simulation harness for calibration checks and power studies.

A Scenario fixes a zeta sampler, a null family, an optional different
data-generating family, a sample size, a replicate count and a seed.
Each replicate r gets its own generator derived from
``SeedSequence(entropy=seed, spawn_key=(r,))``, so results do not depend
on execution order and any single replicate can be reproduced in
isolation.  Within a replicate the draw order is fixed: first the zetas,
then the uniforms that are pushed through the data family's quantile.

``meta_test`` closes the loop on calibration: under the null the
replicate statistics are i.i.d. from the exact finite-n law, so mapping
them through that law's CDF must give uniforms, which is itself a KS
hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .conditional import ConditionalCdfFamily, _sorted_pit
from .empirical import SortedUnitSample, ks_statistic_rows, ks_statistic_uniform
from .kolmogorov import _integer_at_least, _level, exact_cdf, p_value
from .testing import TestReport, _build_report


@dataclass(frozen=True)
class UniformSampler:
    """zeta ~ Uniform[a, b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite a < b, got a={self.a}, b={self.b}")

    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.a + (self.b - self.a) * rng.random(size)


@dataclass(frozen=True)
class PointMassSampler:
    """zeta fixed at c; collapses the conditional test to the classic one."""

    c: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise ValueError(f"need finite c, got {self.c}")

    def support(self) -> tuple[float, float]:
        return (self.c, self.c)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.c)


@dataclass(frozen=True)
class GaussianMixtureSampler:
    """zeta from a finite mixture of normals, components (weight, mean, sd)."""

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), float(m), float(s)) for w, m, s in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for w, m, s in comps:
            if not (math.isfinite(w) and math.isfinite(m) and math.isfinite(s)):
                raise ValueError("mixture parameters must be finite")
            if w < 0.0:
                raise ValueError(f"mixture weight {w} is negative")
            if s <= 0.0:
                raise ValueError(f"mixture sd {s} must be positive")
        total = sum(w for w, _, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {total}, expected 1")

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        weights = np.array([w for w, _, _ in self.components])
        means = np.array([m for _, m, _ in self.components])
        sds = np.array([s for _, _, s in self.components])
        idx = rng.choice(len(self.components), size=size, p=weights)
        return means[idx] + sds[idx] * rng.standard_normal(size)


ZetaSampler = Union[UniformSampler, PointMassSampler, GaussianMixtureSampler]


def _check_sampler_domain(sampler: ZetaSampler, family: ConditionalCdfFamily,
                          role: str) -> None:
    # Up-front compatibility check, decidable only for bounded supports:
    # a point mass the family rejects, or an interval that crosses a hard
    # domain bound, is rejected here; unbounded samplers are left to
    # per-replicate checks.
    lo, hi = sampler.support()
    if math.isfinite(lo) and lo < family.zeta_lower:
        raise ValueError(
            f"{role} family '{family.name}' needs zeta > {family.zeta_lower:g} "
            f"but the sampler can draw values down to {lo}"
        )
    if lo == hi and family.zeta_error(lo) is not None:
        raise ValueError(
            f"{role} family '{family.name}' rejects the sampler's point "
            f"mass zeta={lo}: {family.zeta_error(lo)}"
        )


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration.

    ``data_family`` defaults to ``null_family`` (a calibration run);
    setting it to something else turns the run into a power study.
    """

    zeta_sampler: ZetaSampler
    null_family: ConditionalCdfFamily
    n: int
    replicates: int
    seed: int
    data_family: ConditionalCdfFamily | None = None

    def __post_init__(self) -> None:
        _integer_at_least(self.n, 1, "sample size")
        _integer_at_least(self.replicates, 1, "replicate count")
        _integer_at_least(self.seed, 0, "seed")
        if self.data_family is None:
            object.__setattr__(self, "data_family", self.null_family)
        _check_sampler_domain(self.zeta_sampler, self.null_family, "null")
        _check_sampler_domain(self.zeta_sampler, self.data_family, "data")

    @property
    def is_calibration(self) -> bool:
        return self.data_family == self.null_family


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one replicate, independent of all other indices."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


# Replicates are transformed in blocks of about this many values: large
# enough that numpy's per-call cost is shared by many replicates, small
# enough that the block arrays stay a few hundred kB.
BLOCK_VALUES = 8192


def _statistics(scenario: Scenario, zetas: np.ndarray, u: np.ndarray) -> np.ndarray:
    """KS statistics of the rows of (rows, n) blocks of zetas and uniforms."""
    scenario.data_family.validate_zetas(zetas)
    xi = np.asarray(scenario.data_family.quantile(u, zetas), dtype=float)
    return ks_statistic_rows(_sorted_pit(xi, zetas, scenario.null_family))


def run_replicates(scenario: Scenario) -> np.ndarray:
    """Statistic values for every replicate, in replicate order.

    Replicate r draws its zetas, then its uniforms, from
    ``replicate_rng(seed, r)``; the transform and the statistic then run
    on a block of replicates at a time, with the same bits as one
    replicate at a time.  A ValueError names the first failing replicate.
    """
    n, reps = scenario.n, scenario.replicates
    rows = max(1, BLOCK_VALUES // n)
    out = np.empty(reps)
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        zetas = np.empty((stop - start, n))
        u = np.empty((stop - start, n))
        for row in range(stop - start):
            rng = replicate_rng(scenario.seed, start + row)
            zetas[row] = scenario.zeta_sampler.draw(rng, n)
            u[row] = rng.random(n)
        try:
            out[start:stop] = _statistics(scenario, zetas, u)
        except ValueError:
            # Redo the block one replicate at a time to name the first
            # one that fails, as its error would have read on its own.
            for row in range(stop - start):
                try:
                    _statistics(scenario, zetas[row:row + 1], u[row:row + 1])
                except ValueError as exc:
                    raise ValueError(f"replicate {start + row}: {exc}") from exc
            raise
    return out


def _statistics_array(statistics: Iterable[float]) -> np.ndarray:
    """The statistics as a float array, refused when empty."""
    stats = np.asarray(list(statistics), dtype=float)
    if stats.size == 0:
        raise ValueError("need at least one statistic")
    return stats


def meta_test(statistics: Iterable[float], n: int, alpha: float = 0.01) -> TestReport:
    """KS-uniformity check of simulated statistics against the exact law.

    ``n`` is the per-replicate sample size the statistics were computed
    at.  The report's own sample size is the replicate count.
    """
    stats = _statistics_array(statistics)
    transformed = np.sort([exact_cdf(n, float(s)) for s in stats])
    meta_stat = ks_statistic_uniform(SortedUnitSample(transformed))
    return _build_report("classic", stats.size, meta_stat, alpha, "auto")


class PowerEstimate(NamedTuple):
    rejection_rate: float
    std_error: float


def power_from_statistics(statistics: Iterable[float], n: int,
                          alpha: float) -> PowerEstimate:
    """Fraction of the statistics the level-alpha test at sample size n
    rejects, with its binomial standard error sqrt(r (1 - r) / count)."""
    _level(alpha, "alpha")
    stats = _statistics_array(statistics)
    rejections = sum(1 for s in stats if p_value(float(s), n, "auto") < alpha)
    rate = rejections / stats.size
    se = math.sqrt(rate * (1.0 - rate) / stats.size)
    return PowerEstimate(rejection_rate=rate, std_error=se)


def power_estimate(scenario: Scenario, alpha: float = 0.05) -> PowerEstimate:
    """Fraction of replicates the level-alpha test rejects, with its
    binomial standard error sqrt(r (1 - r) / replicates)."""
    _level(alpha, "alpha")
    return power_from_statistics(run_replicates(scenario), scenario.n, alpha)
