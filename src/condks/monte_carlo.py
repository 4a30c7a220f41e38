"""Simulation harness for calibration checks and power studies.

A Scenario fixes a zeta sampler, a null family, an optional different
data-generating family, a sample size, a replicate count and a seed.
Each replicate r gets its own generator derived from
``SeedSequence(entropy=seed, spawn_key=(r,))``, so results do not depend
on execution order and any single replicate can be reproduced in
isolation.  Within a replicate the draw order is fixed: first the zetas,
then the uniforms that are pushed through the data family's quantile.

``replicate_rng`` builds that PCG64 state with numpy's frozen SeedSequence
hash, done here: the seed's words, then the index words of 1024
consecutive indices in one numpy pass.  Only the last block of states is
kept, read-only, since ``run_replicates`` asks for indices in order.  A
generator's ``bit_generator.seed_seq`` is therefore no ``SeedSequence``,
but it spawns the same children; an index of 2^32 or more (a second
spawn-key word) takes numpy's own path.

``run_replicates`` can split the replicate range into contiguous parts of
whole blocks and run each part but the first in a forked child process
(``_in_parts``, which ``condks table`` shares); since every replicate has
its own stream and block row, the statistics are the same bits for any
number of parts.

``meta_test`` closes the loop on calibration: under the null the
replicate statistics are i.i.d. from the exact finite-n law, so mapping
them through that law's CDF must give uniforms, which is itself a KS
hypothesis.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import pickle
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .conditional import ConditionalCdfFamily, _sorted_pit
from .empirical import SortedUnitSample, ks_statistic_rows, ks_statistic_uniform
from .kolmogorov import (_exact_cdf_many, _integer_at_least, _law_map, _level, _shared_law,
                         exact_cdf, p_value)
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx, frozen
# by its stream policy), and how many replicate states one numpy pass hashes.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32, _STATE_BLOCK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, 1024


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hash of a word (int or uint32 array): it and the next const."""
    following = const * mult & _M32
    value = (value ^ const) * following & _M32
    return value ^ value >> 16, following


@functools.lru_cache(maxsize=1)
def _state_block(seed: int, start: int) -> np.ndarray:
    """Read-only rows of ``SeedSequence(seed, spawn_key=(r,)).generate_state(4,
    np.uint64)`` for the ``_STATE_BLOCK`` indices r from ``start``: the seed's
    words, zero-padded to four as before a spawn key, then r's, in one pool."""
    from numpy.random.bit_generator import ISpawnableSeedSequence  # 6 MB: not at import
    ISpawnableSeedSequence.register(_ReplicateSeed)
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 128), 32)]
    words.append(np.arange(start, start + _STATE_BLOCK, dtype=np.uint32))
    pool, const = words[:4], _INIT_A
    for dst in range(4):
        pool[dst], const = _hashmix(pool[dst], const)
    # Each pool word is mixed into the other three, then each later word into all four.
    for src, word in enumerate(words):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src] if src < 4 else word, const)
                mixed = ((_MIX_L * pool[dst] & _M32) - (_MIX_R * hashed & _M32)) & _M32
                pool[dst] = mixed ^ mixed >> 16
    out, const = np.empty((_STATE_BLOCK, 8), "<u4"), _INIT_B
    for i in range(8):
        out[:, i], const = _hashmix(pool[i % 4], const, _MULT_B)
    states = out.view("<u8").astype(np.uint64)  # PCG64 reads lo | hi << 32
    states.flags.writeable = False
    return states


class _ReplicateSeed:
    """Replicate ``index``'s seed sequence: PCG64's state from the block,
    anything else from ``SeedSequence(seed, spawn_key=(index,))``."""

    def __init__(self, seed: int, index: int, state: np.ndarray) -> None:
        self.entropy, self.spawn_key, self._state = seed, (index,), state

    @functools.cached_property
    def _sequence(self):
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._state
        return self._sequence.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._sequence.spawn(n_children)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one replicate, independent of all other indices:
    ``PCG64`` seeded by ``SeedSequence(seed, spawn_key=(index,))`` (see the
    module docstring for how its state is built)."""
    if not (isinstance(seed, (int, np.integer)) and isinstance(index, (int, np.integer))
            and seed >= 0 and 0 <= index < 1 << 32):
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(index,))))
    seed, index = int(seed), int(index)
    state = _state_block(seed, index - index % _STATE_BLOCK)[index % _STATE_BLOCK]
    return np.random.Generator(np.random.PCG64(_ReplicateSeed(seed, index, state)))


# Replicates are transformed in blocks of about this many values: large
# enough that numpy's per-call cost is shared by many replicates, small
# enough that the block arrays stay a few hundred kB.
BLOCK_VALUES = 8192


def _statistics(scenario: Scenario, zetas: np.ndarray, u: np.ndarray) -> np.ndarray:
    """KS statistics of the rows of (rows, n) blocks of zetas and uniforms."""
    scenario.data_family.validate_zetas(zetas)
    xi = np.asarray(scenario.data_family.quantile(u, zetas), dtype=float)
    return ks_statistic_rows(_sorted_pit(xi, zetas, scenario.null_family))


def _run_range(scenario: Scenario, first: int, last: int,
               law: bool) -> tuple[np.ndarray, dict[float, float]]:
    """Statistics of replicates first..last - 1, a block at a time, and
    when ``law`` their exact law, ``_exact_cdf_many``."""
    n = scenario.n
    rows = max(1, BLOCK_VALUES // n)
    out = np.empty(last - first)
    for start in range(first, last, rows):
        stop = min(start + rows, last)
        zetas = np.empty((stop - start, n))
        u = np.empty((stop - start, n))
        for row in range(stop - start):
            rng = replicate_rng(scenario.seed, start + row)
            zetas[row] = scenario.zeta_sampler.draw(rng, n)
            rng.random(out=u[row])
        try:
            out[start - first:stop - first] = _statistics(scenario, zetas, u)
        except ValueError:
            # Redo the block one replicate at a time to name the first
            # one that fails, as its error would have read on its own.
            for row in range(stop - start):
                try:
                    _statistics(scenario, zetas[row:row + 1], u[row:row + 1])
                except ValueError as exc:
                    raise ValueError(f"replicate {start + row}: {exc}") from exc
            raise
    return out, _exact_cdf_many(n, out) if law else {}


def _in_parts(fn, parts: list[tuple]) -> list:
    """``[fn(*part) for part in parts]``, the first part run in this process
    and each other one in a child made with ``os.fork`` (in turn here where
    ``os.fork`` is missing).  A child pickles its result back over a pipe.

    Of the parts' exceptions the lowest part's is raised.  A child's comes
    back by its type and message only, without traceback or cause, and as
    a RuntimeError naming its type if it does not survive a pickle; a
    child that dies raises ChildProcessError naming its exit status.  On
    every path each child is killed if still running and reaped.
    """
    if not hasattr(os, "fork") or len(parts) < 2:
        return [fn(*part) for part in parts]
    pending = {}  # pid: the read end of its pipe, until it is reaped
    gc.freeze()  # no collection writes to the pages the children share
    try:
        for part in parts[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    try:
                        result = fn(*part)
                    except Exception as exc:  # noqa: BLE001  raised in the parent
                        result = exc
                        try:
                            pickle.loads(pickle.dumps(exc))
                        except Exception:  # noqa: BLE001  then send its type and message
                            result = RuntimeError(f"{type(exc).__name__}: {exc}")
                    with open(write, "wb") as pipe:
                        pickle.dump(result, pipe)
                    status = 0
                finally:
                    os._exit(status)  # no atexit hook, no flush of inherited buffers
            os.close(write)
            pending[pid] = open(read, "rb")
        results = [fn(*parts[0])]
        for pid in list(pending):
            data = pending[pid].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pending.pop(pid).close()
            if status:
                raise ChildProcessError(f"a worker process exited with status {status}")
            results.append(pickle.loads(data))
            if isinstance(results[-1], Exception):
                raise results[-1]
    finally:
        for pid, pipe in pending.items():  # after an error: stop and reap the rest
            pipe.close()
            os.kill(pid, 9)  # SIGKILL, without importing signal
            os.waitpid(pid, 0)
        gc.unfreeze()
    return results


def run_replicates(scenario: Scenario, jobs: int = 1) -> np.ndarray:
    """Statistic values for every replicate, in replicate order.

    Replicate r draws its zetas, then its uniforms, from
    ``replicate_rng(seed, r)``; the transform and the statistic then run
    on a block of replicates at a time, with the same bits as one
    replicate at a time.  A ValueError names the first failing replicate.

    The blocks are split into up to ``jobs`` contiguous parts of at least
    4 blocks, run by ``_in_parts`` (its docstring gives the error rules),
    so the values do not depend on ``jobs``.  Inside a ``_shared_law(n)``
    scope each part also puts its law into the scope's map, if it has one.
    """
    _integer_at_least(jobs, 1, "jobs")
    n, reps = scenario.n, scenario.replicates
    rows = max(1, BLOCK_VALUES // n)
    blocks = -(-reps // rows)
    parts = max(1, min(jobs, blocks // 4))
    cuts = [rows * (blocks * i // parts) for i in range(parts)] + [reps]
    law = _law_map(n)
    if parts > 1:
        import numpy.random  # noqa: F401  here: the children share it, not import it again
    results = _in_parts(_run_range, [(scenario, first, last, law is not None)
                                     for first, last in zip(cuts, cuts[1:])])
    for _, values in results if law is not None else ():
        law.update(values)
    return np.concatenate([stats for stats, _ in results])


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
    binomial standard error sqrt(r (1 - r) / replicates).  The p-values
    read the replicates' exact law, batched in a ``_shared_law`` scope."""
    _level(alpha, "alpha")
    with _shared_law(scenario.n):
        return power_from_statistics(run_replicates(scenario), scenario.n, alpha)
