import itertools
import math
import operator
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condks.kolmogorov
from condks import (
    AUTO_EXACT_LIMIT,
    asymptotic_cdf,
    asymptotic_critical_value,
    critical_value,
    exact_cdf,
    p_value,
)
from condks.monte_carlo import meta_test, power_from_statistics


def series_oracle(x: float, terms: int = 50) -> float:
    """Independent high-precision partial sum of the limiting series."""
    with mpmath.workdps(60):
        s = mpmath.mpf(0)
        for k in range(1, terms + 1):
            s += (-1) ** (k - 1) * mpmath.exp(-2 * k * k * mpmath.mpf(x) ** 2)
        return float(1 - 2 * s)


GRID_X = [round(0.1 * i, 10) for i in range(1, 31)]


def _transition_matrix_reference(k: int, h: float) -> np.ndarray:
    """The MTW matrix H built from scratch on every call."""
    fact_all = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 171.0))))
    inv_all = 1.0 / fact_all
    m = 2 * k - 1
    if m < fact_all.size:
        fact, inv = fact_all[:m + 1], inv_all[:m + 1]
    else:
        fact = np.concatenate((fact_all, np.full(m + 1 - fact_all.size, np.inf)))
        inv = np.concatenate((inv_all, np.zeros(m + 1 - fact_all.size)))
    w = np.concatenate((np.zeros(m - 1), inv))
    H = np.ndarray((m, m), float, w, m * w.itemsize, (w.itemsize, -w.itemsize)).copy()
    hp = h ** np.arange(1, m + 1)
    corner = (1.0 - hp[m - 1]) - hp[m - 1]
    if 2.0 * h - 1.0 > 0.0:
        corner += (2.0 * h - 1.0) ** m
    first_column = (1.0 - hp) / fact[1:]
    H[:, 0] = first_column
    H[m - 1, :] = first_column[::-1]
    H[m - 1, 0] = corner / fact[m]
    return H


def exact_cdf_reference(n: int, d: float, rescales: list | None = None,
                        powers: list | None = None) -> float:
    """The MTW law with the n!/n^n factor applied one rescaled step at a
    time and every scalar read straight from the matrices.  Each i at
    which that loop rescales is appended to ``rescales``, and each power
    rescale ("V" or "P", then "+" for a large entry or "-" for a small one)
    to ``powers``, if given."""
    powers = [] if powers is None else powers
    if d <= 0.0:
        return 0.0
    if d >= 1.0:
        return 1.0
    nd = n * d
    if nd <= 0.5:
        return 0.0
    if 2.0 * math.exp(-2.0 * n * d * d) < 1e-16:
        return 1.0
    k = int(nd) + 1
    H = _transition_matrix_reference(k, k - nd)
    c = k - 1
    eV = 0
    eP = 0
    V = None
    P = H
    g = n
    while g > 0:
        if g & 1:
            V = P.copy() if V is None else V @ P
            eV += eP
            if V[c, c] > 1e140:
                V *= 1e-140
                powers.append("V+")
                eV += 140
            elif 0.0 < V[c, c] < 1e-140:
                V *= 1e140
                powers.append("V-")
                eV -= 140
        g >>= 1
        if g:
            P = P @ P
            eP *= 2
            if P[c, c] > 1e140:
                P *= 1e-140
                powers.append("P+")
                eP += 140
            elif 0.0 < P[c, c] < 1e-140:
                P *= 1e140
                powers.append("P-")
                eP -= 140
    s = V[c, c]
    for i in range(1, n + 1):
        s *= i / n
        if s < 1e-140:
            s *= 1e140
            eV -= 140
            if rescales is not None:
                rescales.append(i)
    s *= 10.0 ** eV
    return float(min(1.0, max(0.0, s)))


def _dkw_cutoff(n: int) -> float:
    """The d where exact_cdf's 2 exp(-2 n d^2) < 1e-16 shortcut starts."""
    return math.sqrt(-math.log(0.5e-16) / (2.0 * n))


def bit_sweep_points() -> list[tuple[int, float]]:
    """(n, d) points for the bit-identity check against the reference."""
    up, down = math.inf, -math.inf
    rng = np.random.default_rng(20031)
    points = []
    for n in range(1, 201):
        lower, cut = 1.0 / (2.0 * n), _dkw_cutoff(n)
        ds = list(rng.random(8))  # over (0, 1), mostly past the cutoff
        ds += list(lower + (min(cut, 1.0) - lower) * rng.random(12))
        ds += [lower, math.nextafter(lower, up), lower * (1.0 + 1e-3)]
        for j in (1, 2, n // 2, n - 1):
            if j >= 1:
                ds += [j / n, math.nextafter(j / n, down), math.nextafter(j / n, up)]
        if n <= 10 or n % 50 == 0 or n == 140:
            ds += [math.nextafter(cut, down), cut, math.nextafter(cut, up)]
        points += [(n, d) for d in ds]
    # Every product n!/n^n * V[c, c] at n >= 1000 is below 1e-140, so each
    # of these rescales in the n!/n^n loop; nd is kept under 60 for speed.
    for n in (500, 1000, 3000):
        lower = 1.0 / (2.0 * n)
        ds = list(lower + (60.0 / n - lower) * rng.random(8))
        ds += [lower, math.nextafter(lower, up), 3.0 / n, math.nextafter(3.0 / n, up),
               float(rng.random())]
        points += [(n, d) for d in ds]
    points += [(10_000, d) for d in (0.0051, 0.0136, 0.5 / 10_000 * 1.5)]
    # n!/n^n is applied a chunk of ratios at a time: sizes on either side
    # of one and two chunks, from a tiny d (rescaled) to the DKW cutoff.
    chunk = condks.kolmogorov._CHUNK
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        lower, cut = 1.0 / (2.0 * n), _dkw_cutoff(n)
        ds = [lower * (1.0 + 1e-9), lower * 1.05, 3.0 / n, 1.0 / math.sqrt(n),
              math.nextafter(cut, down)]
        points += [(n, d) for d in ds]
    # The first rescale of the n!/n^n loop falls on a chunk's last ratio.
    points += [CHUNK_END_RESCALE]
    # Matrices of size m >= 171, past the tables built at import.
    points += [(n, d) for n in (400, 777, 2000)
               for d in (math.nextafter(_dkw_cutoff(n), down), 0.99 * _dkw_cutoff(n))]
    return points


# (n, d) whose n!/n^n loop first rescales at i = 64, the last ratio of the
# first chunk (checked in test_chunk_end_point_rescales_on_a_chunk_end).
CHUNK_END_RESCALE = (82, 1.05 / 164)

# {n: d values} at which exact_cdf rescales its powers: V alone, upward, at
# n = 330; P alone, upward at n = 512 and downward at n = 256; both, P
# first, at n = 777 and V first at n = 1000 (checked in
# test_power_rescale_points).
POWER_RESCALES = {
    330: [0.028, 0.0285, 0.029],
    512: [0.0034, 0.0035, 0.0038],
    256: [(1.0 + 1e-9) / 512, (1.0 + 1e-4) / 512, 0.00197265625],
    777: [0.02, 0.05],
    1000: [0.9 / math.sqrt(1000)],
}


class TestAsymptoticCdf:
    def test_matches_high_precision_series(self):
        for x in GRID_X:
            assert asymptotic_cdf(x) == pytest.approx(series_oracle(x), abs=1e-10)

    def test_zero_below_cutoff(self):
        for x in (-math.inf, -3.0, -1e-9, 0.0, 0.02, 0.0499):
            assert asymptotic_cdf(x) == 0.0

    def test_nan_refused(self):
        # It used to run the series' 10^5-term cap and return 0.
        with pytest.raises(ValueError, match="^x must not be NaN$"):
            asymptotic_cdf(math.nan)

    def test_frozen_quantile_anchor(self):
        # 95th percentile of the limiting law
        assert asymptotic_cdf(1.3581) == pytest.approx(0.9500003696, abs=1e-10)

    def test_range_and_monotonicity(self):
        xs = np.linspace(0.0, 5.0, 2000)
        vals = np.array([asymptotic_cdf(float(x)) for x in xs])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        # below ~0.2 the true value is under 1e-16 and the alternating
        # sum leaves cancellation noise, so allow float-level slack there
        assert np.all(np.diff(vals) >= -2e-15)
        strict = vals[xs >= 0.25]
        assert np.all(np.diff(strict) >= 0.0)

    def test_saturates_to_one(self):
        assert asymptotic_cdf(5.0) == pytest.approx(1.0, abs=1e-10)
        assert asymptotic_cdf(50.0) == 1.0
        assert asymptotic_cdf(math.inf) == 1.0


class TestExactCdf:
    def test_n1_closed_form(self):
        for d in np.linspace(0.5, 1.0, 100):
            want = 2.0 * float(d) - 1.0
            assert exact_cdf(1, float(d)) == pytest.approx(want, abs=1e-12)

    def test_boundaries(self):
        for n in (1, 3, 17, 60):
            lower = 1.0 / (2.0 * n)
            assert exact_cdf(n, -0.2) == 0.0
            assert exact_cdf(n, 0.0) == 0.0
            assert exact_cdf(n, lower) == 0.0
            assert exact_cdf(n, 0.5 * lower) == 0.0
            assert exact_cdf(n, 1.0) == 1.0
            assert exact_cdf(n, 1.7) == 1.0

    def test_dkw_saturation(self):
        # once 2 exp(-2 n d^2) < 1e-16 the result is exactly 1
        n = 50
        d = math.sqrt(-math.log(0.4e-16) / (2 * n))
        assert exact_cdf(n, d) == 1.0

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(314159)
        for n, grid in ((5, np.linspace(0.2, 0.62, 10)),
                        (20, np.linspace(0.12, 0.34, 10))):
            u = np.sort(rng.random((200_000, n)), axis=1)
            i = np.arange(1, n + 1)
            stats = np.maximum(i / n - u, u - (i - 1) / n).max(axis=1)
            for d in grid:
                freq = float(np.mean(stats <= d))
                assert exact_cdf(n, float(d)) == pytest.approx(freq, abs=0.004)

    def test_monotone_in_d(self):
        for n in (1, 2, 7, 20, 100, 1000):
            ds = np.linspace(0.0, 1.0, 1500)
            vals = [exact_cdf(n, float(d)) for d in ds]
            assert np.all(np.diff(vals) >= 0.0)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            d = float(rng.random())
            v = exact_cdf(n, d)
            assert 0.0 <= v <= 1.0

    def test_large_n_regression_anchor(self):
        # cross-checked against an independent float128 run of the same
        # matrix method (agreement 3e-15)
        assert exact_cdf(10_000, 0.0136) == pytest.approx(0.950964192028, abs=1e-9)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            exact_cdf(0, 0.5)

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="^d must not be NaN$"):
            exact_cdf(5, math.nan)

    def test_bits_match_reference(self):
        for n, d in bit_sweep_points():
            got = exact_cdf(n, d)
            assert type(got) is float
            assert got == exact_cdf_reference(n, d), (n, d)
        # A numpy integer n still gives a Python float.
        for n, d in ((np.int64(50), 0.2), (np.int64(1000), 0.02), (np.int64(3), np.float64(0.4))):
            got = exact_cdf(n, d)
            assert type(got) is float
            assert got == exact_cdf_reference(n, d), (n, d)

    def test_interleaved_sizes_match_reference(self):
        # The n!/n^n ratios are kept for the last n only; no call may see
        # another size's list.
        for n in (50, 51, 50, 200, 1000, 50, np.int64(50)):
            d = 0.9 / math.sqrt(n)
            got = exact_cdf(n, d)
            assert type(got) is float
            assert got == exact_cdf_reference(n, d), (n, d)

    # Each case names the regime its input was picked for: "prod", no
    # rescale anywhere; "loop", no rescale while powering but n!/n^n ends
    # below 1e-140; "rescaled", powering rescaled, up for a tiny V or down
    # for a large one.
    @pytest.mark.parametrize("n, d, case", [
        (50, 0.2, "prod"),
        (140, 0.09, "prod"),
        (200, 0.07, "prod"),
        (100, 1.1 / 200, "loop"),
        (200, 1.5 / 400, "loop"),
        (20, (1.0 + 1e-9) / 40, "rescaled"),
        (500, 1.0 / math.sqrt(500), "rescaled"),
        (1000, 1.0 / math.sqrt(1000), "rescaled"),
        (3000, 1.0 / math.sqrt(3000), "rescaled"),
    ])
    def test_each_factor_path_matches_reference(self, monkeypatch, n, d, case):
        # One math.prod per chunk of ratios; a product below 1e-140 marks a
        # chunk the rescaling loop redoes, which must be each chunk where
        # the reference's loop rescaled.
        chunk = condks.kolmogorov._CHUNK
        rescales = []
        want = exact_cdf_reference(n, d, rescales)
        products = []
        prod = math.prod

        def spy(ratios, start):
            products.append(prod(ratios, start=start))
            return products[-1]

        monkeypatch.setattr(math, "prod", spy)
        got = exact_cdf(n, d)
        assert len(products) == math.ceil(n / chunk)
        assert sum(p < 1e-140 for p in products) == len({(i - 1) // chunk for i in rescales})
        if case != "rescaled":
            assert (rescales == []) == (case == "prod")
        assert type(got) is float
        assert got == want

    def test_power_rescale_points(self):
        kinds = {330: ["V+"], 512: ["P+"], 256: ["P-"], 777: ["P+", "V+"],
                 1000: ["V+", "P+"]}
        for n, ds in POWER_RESCALES.items():
            for d in ds:
                powers = []
                assert exact_cdf(n, d) == exact_cdf_reference(n, d, powers=powers)
                assert list(dict.fromkeys(powers)) == kinds[n], (n, d)

    def test_chunk_end_point_rescales_on_a_chunk_end(self):
        rescales = []
        exact_cdf_reference(*CHUNK_END_RESCALE, rescales)
        assert rescales[0] == condks.kolmogorov._CHUNK


class TestTables:
    """H is copied out of tables built once at import, which no call may
    write through."""

    def test_each_table_refuses_a_write(self):
        for table in condks.kolmogorov._TABLES:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0

    def test_tables_unchanged_after_the_bit_sweep(self):
        for n, d in bit_sweep_points():
            exact_cdf(n, d)
        for kept, fresh in zip(condks.kolmogorov._TABLES, condks.kolmogorov._tables(171)):
            assert kept.shape == fresh.shape
            assert np.array_equal(kept, fresh)

    @pytest.mark.parametrize("k", [1, 11, 85, 86])
    def test_transition_matrix_is_a_writeable_copy(self, k):
        H = condks.kolmogorov._transition_matrix(k, 0.3)
        assert H.flags.writeable and H.flags.c_contiguous
        assert not any(np.shares_memory(H, table) for table in condks.kolmogorov._TABLES)
        assert np.array_equal(H, _transition_matrix_reference(k, 0.3))


@pytest.fixture
def builds(monkeypatch):
    """The k of every H ``exact_cdf`` builds."""
    ks = []
    build = condks.kolmogorov._transition_matrix

    def counted(k, h):
        ks.append(k)
        return build(k, h)

    monkeypatch.setattr(condks.kolmogorov, "_transition_matrix", counted)
    return ks


def _bits(values) -> list[int]:
    assert all(type(v) is float for v in values)
    return np.array(values, dtype=float).view(np.uint64).tolist()


class TestSharedLaw:
    """``_shared_law(n)`` opens an empty map of n's law up to
    AUTO_EXACT_LIMIT and no map past it.  ``exact_cdf`` returns a value the
    map holds after all its checks, computes any other, and stores none; on
    leaving a scope, the enclosing one comes back."""

    memo = condks.kolmogorov._law_memo
    shared_law = staticmethod(condks.kolmogorov._shared_law)
    law_map = staticmethod(condks.kolmogorov._law_map)

    def test_same_bits_inside_a_scope(self):
        # Every call misses the filled map: the law's bits, and the map
        # left as it was.
        points = [(n, d) for n, d in bit_sweep_points() if n <= AUTO_EXACT_LIMIT]
        points += [(n, d) for n in range(1, AUTO_EXACT_LIMIT + 1)
                   for d in (0.0, 1.0, 1.5, math.nextafter(_dkw_cutoff(n), math.inf))]
        points.sort(key=operator.itemgetter(0))
        filled = {0.123456789: 0.25}
        assert all(d not in filled for _, d in points)
        outside = _bits([exact_cdf(n, d) for n, d in points])
        inside = []
        for n, group in itertools.groupby(points, operator.itemgetter(0)):
            with self.shared_law(n):
                self.law_map(n).update(filled)
                inside += [exact_cdf(n, d) for _, d in group]
                assert self.memo.get() == {n: filled}
        assert _bits(inside) == outside
        assert self.memo.get() is None

    def test_checks_run_before_the_lookup(self, builds):
        # Filled values the law does not give, so a returned one is a hit.
        narrow = float(np.float32(0.1))
        filled = {0.1: 0.25, narrow: 0.5, 1.0: 0.75, 0.0025: 0.75, 0.5: 0.75}
        with self.shared_law(140):
            self.law_map(140).update(filled)
            assert exact_cdf(140, 0.1) == 0.25
            assert exact_cdf(np.int64(140), np.float32(0.1)) == 0.5
            with pytest.raises(ValueError, match="^d must not be NaN$"):
                exact_cdf(140, math.nan)
            for n in (0, 140.0, "140"):
                with pytest.raises(ValueError, match="sample size"):
                    exact_cdf(n, 0.1)
            assert exact_cdf(140, 1.0) == 1.0
            assert exact_cdf(140, 0.0025) == 0.0  # nd <= 1/2
            assert exact_cdf(140, 0.5) == 1.0  # past the DKW cutoff
            assert self.memo.get() == {140: filled}
        assert builds == []

    def test_nested_scopes_and_an_exception_restore_the_outer_memo(self):
        assert self.memo.get() is None
        with self.shared_law(50):
            outer = self.memo.get()
            assert outer == {50: {}}
            with self.shared_law(60):
                assert self.memo.get() == {60: {}}
                assert self.law_map(50) is None
            assert self.memo.get() is outer
            with self.shared_law(AUTO_EXACT_LIMIT + 1):
                assert self.memo.get() is None
            assert self.memo.get() is outer
            with pytest.raises(RuntimeError, match="inner"):
                with self.shared_law(70):
                    raise RuntimeError("inner")
            assert self.memo.get() is outer
            assert outer == {50: {}}
        assert self.memo.get() is None

    def test_one_scope_keeps_each_n_apart(self, builds):
        # A map of n = 50's law serves n = 50 only; n = 51 computes each time.
        ds = [0.05, 0.1, 0.2, 0.3]
        want = {n: [exact_cdf_reference(n, d) for d in ds] for n in (50, 51)}
        with self.shared_law(50):
            self.law_map(50).update(zip(ds, want[50]))
            for _ in range(2):
                for n in (50, 51, np.int64(50)):
                    assert _bits([exact_cdf(n, d) for d in ds]) == _bits(want[int(n)])
            assert self.law_map(51) is None
            assert self.memo.get() == {50: dict(zip(ds, want[50]))}
        assert len(builds) == 2 * len(ds)

    def test_two_threads_at_different_n(self):
        # Each step waits for the other thread, so the scopes interleave;
        # each thread's map holds values only it would return.
        ds = [0.05 + 0.01 * i for i in range(20)]
        step = threading.Barrier(2, timeout=30)
        got = {}

        def run(n):
            with self.shared_law(n):
                self.law_map(n).update(dict.fromkeys(ds, n / 100))
                values = []
                for d in ds + ds:
                    step.wait()
                    values.append(exact_cdf(n, d))
                got[n] = (values, self.memo.get())

        threads = [threading.Thread(target=run, args=(n,)) for n in (50, 51)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert got == {n: ([n / 100] * 40, {n: dict.fromkeys(ds, n / 100)}) for n in (50, 51)}
        assert self.memo.get() is None

    def test_outside_a_scope_each_call_builds_h(self, builds):
        exact_cdf(50, 0.2)
        exact_cdf(50, 0.2)
        assert len(builds) == 2
        with self.shared_law(50):
            for _ in range(3):
                exact_cdf(50, 0.2)  # a miss, computed each time and not kept
            assert len(builds) == 5
            assert self.law_map(50) == {}
            self.law_map(50)[0.2] = exact_cdf(50, 0.2)
            exact_cdf(50, 0.2)
            assert len(builds) == 6
        exact_cdf(50, 0.2)
        assert len(builds) == 7

    def test_no_map_past_the_auto_limit(self, builds):
        with self.shared_law(AUTO_EXACT_LIMIT):
            assert self.memo.get() == {AUTO_EXACT_LIMIT: {}}
        for n in (AUTO_EXACT_LIMIT + 1, 1000):
            with self.shared_law(n):
                assert self.memo.get() is None
                assert self.law_map(n) is None
                assert exact_cdf(n, 0.05) == exact_cdf(n, 0.05) == exact_cdf_reference(n, 0.05)
        assert len(builds) == 4
        assert self.memo.get() is None


def _stack_key(n: int, d: float) -> tuple[int, int, float]:
    """n, k and h of d, as ``_exact_cdf_many`` hands them to ``_stack_cdf``."""
    k = int(n * d) + 1
    return n, k, k - n * d


def _ulps_from(d: float, steps: int) -> float:
    """The float ``steps`` representable values above d (below, if negative)."""
    for _ in range(abs(steps)):
        d = math.nextafter(d, math.copysign(math.inf, steps))
    return d


def _in_matrix_region(n: int, d: float) -> bool:
    """Whether exact_cdf(n, d) powers H: d not NaN, d < 1, nd > 1/2, and
    the DKW bound, judged by math.exp as exact_cdf judges it (numpy's exp
    differs from it in the last bit on about 5% of arguments in [-40, -30])."""
    return (not math.isnan(d) and d < 1.0 and n * d > 0.5
            and 2.0 * math.exp(-2.0 * n * d * d) >= 1e-16)


class TestExactCdfMany:
    """The batched law gives exact_cdf's bits for each distinct d in the
    matrix region that exact_cdf does not rescale, and nothing for the
    other d, which exact_cdf computes when they are read."""

    law = staticmethod(condks.kolmogorov.exact_cdf)
    many = staticmethod(condks.kolmogorov._exact_cdf_many)

    def sweep(self):
        """{n: d values} over n = 1..200 and the n of POWER_RESCALES: the
        whole range of d, k-group edges (nd an integer and its neighbours),
        the DKW edge, the rescaling points, duplicates and the values the
        batch skips."""
        up, down = math.inf, -math.inf
        rng = np.random.default_rng(24)
        sweep = {n: [] for n in [*range(1, 201), *POWER_RESCALES]}
        for n, d in bit_sweep_points():
            if n in sweep:
                sweep[n].append(d)
        sweep[CHUNK_END_RESCALE[0]].append(CHUNK_END_RESCALE[1])
        for n, ds in sweep.items():
            lower, cut = 1.0 / (2.0 * n), min(_dkw_cutoff(n), 1.0)
            if n <= 200:
                ds += list(lower + (cut - lower) * rng.random(8))
                ds += [j / n for j in range(1, n + 1, max(1, n // 6))]
                ds += [math.nextafter(d, to) for d in ds[-12:] for to in (up, down)]
            edge = _dkw_cutoff(n)
            for _ in range(3):
                edge = math.nextafter(edge, down)
            for _ in range(6):
                ds.append(edge)
                edge = math.nextafter(edge, up)
            ds += ds[:5] + [math.nan, 1.0, 1.5, 0.0, -0.0, lower]
        # Powers exact_cdf rescales, short of the n!/n^n loop's rescale.
        sweep[1000].append(0.99 * _dkw_cutoff(1000))
        for n, ds in POWER_RESCALES.items():
            sweep[n] += ds
        return sweep

    def check_batch(self, n, ds):
        """Check the batch's contract on ``ds`` at n and return the (n, k, h)
        of the d it left out.  Its map holds only d of the matrix region,
        each with exact_cdf's bits; it leaves out exactly the d of stacks
        ``_stack_cdf`` left NaN, where exact_cdf rescales; it never calls
        exact_cdf; and read through a ``_shared_law(n)`` scope filled with
        it, exact_cdf gives its bits outside any scope for every d but NaN."""
        refused, calls = set(), []
        stack = condks.kolmogorov._stack_cdf

        def counted_stack(n, k, h, ratios):
            out = stack(n, k, h, ratios)
            refused.update((n, k, x) for x, v in zip(h.tolist(), out.tolist()) if math.isnan(v))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condks.kolmogorov, "_stack_cdf", counted_stack)
            patch.setattr(condks.kolmogorov, "exact_cdf", lambda *args: calls.append(args))
            got = self.many(n, np.array(ds, dtype=float))
        assert calls == [], n
        region = {d for d in ds if _in_matrix_region(n, d)}
        assert set(got) <= region and all(type(d) is float for d in got), n
        missing = {_stack_key(n, d) for d in region - set(got)}
        assert missing == refused, n
        want = {d: self.law(n, d) for d in ds if not math.isnan(d)}
        assert _bits(list(got.values())) == _bits([want[d] for d in got]), n
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condks.kolmogorov, "AUTO_EXACT_LIMIT", n)  # a map at any n
            with condks.kolmogorov._shared_law(n):
                condks.kolmogorov._law_map(n).update(got)
                assert _bits([self.law(n, d) for d in want]) == _bits(list(want.values())), n
        return missing

    def test_bits_match_the_scalar_law(self):
        missing = set()
        for n, ds in self.sweep().items():
            missing |= self.check_batch(n, ds)
        # Both ways a stack is refused are left out: a product n!/n^n below
        # 1e-140, and each point whose powers exact_cdf rescales.
        assert _stack_key(*CHUNK_END_RESCALE) in missing
        for n, ds in POWER_RESCALES.items():
            assert {_stack_key(n, d) for d in ds} <= missing, n

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_the_contract_holds_on_drawn_statistics(self, data):
        # d around 1/(2n) (where a stack is refused), at and beside integer
        # nd, around the DKW edge and anywhere, with duplicates, NaN, 0 and 1.
        n = data.draw(st.integers(1, AUTO_EXACT_LIMIT), "n")
        lower, edge = 1.0 / (2.0 * n), _dkw_cutoff(n)
        ds = data.draw(st.lists(st.one_of(
            st.builds(lambda e, sign: lower * (1.0 + sign * 2.0 ** -e),
                      st.integers(0, 53), st.sampled_from([1.0, -1.0])),
            st.builds(lambda j, steps: _ulps_from(j / n, steps),
                      st.integers(1, n), st.integers(-2, 2)),
            st.builds(_ulps_from, st.just(edge), st.integers(-3, 3)),
            st.floats(0.0, 1.0),
            st.sampled_from([math.nan, 0.0, 1.0]),
        ), max_size=16), "ds")
        ds += data.draw(st.lists(st.sampled_from(ds), max_size=4) if ds else st.just([]))
        self.check_batch(n, ds)

    def test_a_group_larger_than_one_stack(self, monkeypatch):
        stacks = []
        stack = condks.kolmogorov._stack_cdf

        def counted(n, k, h, ratios):
            stacks.append((k, h.size))
            return stack(n, k, h, ratios)

        monkeypatch.setattr(condks.kolmogorov, "_stack_cdf", counted)
        ds = np.linspace(0.2, 0.22, 1002)[1:-1]  # k = 11, m = 21 at n = 50
        got = self.many(50, ds[::-1])
        assert {k for k, _ in stacks} == {11}
        assert [size for _, size in stacks] == [16384 // 21 ** 2] * 27 + [1]
        assert _bits(list(got.values())) == _bits([self.law(50, d) for d in got])
        assert sorted(got) == ds.tolist()

    def test_skipped_values(self):
        assert self.many(50, [math.nan, 1.0, 1.5, 0.01, 0.0, -0.0, 0.9]) == {}
        assert self.many(50, []) == {}
        assert self.many(1, [0.75, 0.75]) == {0.75: self.law(1, 0.75)}

    def test_a_nan_statistic_is_still_refused_in_a_filled_scope(self):
        with condks.kolmogorov._shared_law(50):
            condks.kolmogorov._law_map(50).update(
                self.many(50, np.array([0.2, math.nan, 0.1, 1.0])))
            assert set(condks.kolmogorov._law_memo.get()[50]) == {0.1, 0.2}
            assert exact_cdf(50, 0.2) == exact_cdf_reference(50, 0.2)
            with pytest.raises(ValueError, match="^d must not be NaN$"):
                exact_cdf(50, math.nan)
            assert exact_cdf(50, 1.0) == 1.0
        assert condks.kolmogorov._law_memo.get() is None


class TestNumpyFloatArguments:
    """A numpy float of any width gives the bits of its value as a Python
    float: a float32 level once kept the search in float32 arithmetic,
    whose bracket never narrowed to 1e-10, and a float32 d computed nd
    and h in float32."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_critical_values_match_their_float_level(self, dtype):
        alpha = dtype(0.05)
        # Checked first: a level of the numpy type would never end the
        # searches below.
        assert type(condks.kolmogorov._level(alpha, "alpha")) is float
        assert type(condks.kolmogorov._level_target(alpha)) is float
        for n in (20, 150):
            assert critical_value(n, alpha) == critical_value(n, float(alpha))
        assert asymptotic_critical_value(alpha) == asymptotic_critical_value(float(alpha))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_law_matches_its_float_argument(self, dtype):
        d = dtype(0.2)
        got, want = exact_cdf(50, d), exact_cdf(50, float(d))
        assert type(got) is float and got == want
        got, want = asymptotic_cdf(dtype(1.2)), asymptotic_cdf(float(dtype(1.2)))
        assert type(got) is float and got == want
        for mode in ("exact", "asymptotic"):
            got, want = p_value(d, 50, mode), p_value(float(d), 50, mode)
            assert type(got) is float and got == want

    def test_a_string_is_still_refused(self):
        with pytest.raises(TypeError):
            exact_cdf(50, "0.2")
        with pytest.raises(TypeError):
            asymptotic_cdf("1.2")
        with pytest.raises(TypeError):
            p_value("0.2", 50)


class TestPValue:
    def test_exact_complement_identity(self):
        for n in (1, 4, 20, 111):
            for d in np.linspace(0.0, 1.0, 101):
                c = exact_cdf(n, float(d))
                p = p_value(float(d), n, "exact")
                assert p + c == 1.0

    def test_degenerate_single_sample(self):
        assert p_value(0.5, 1, "exact") == 1.0

    def test_asymptotic_mode(self):
        for n, d in ((30, 0.2), (500, 0.04), (10_000, 0.011)):
            want = 1.0 - asymptotic_cdf(math.sqrt(n) * d)
            assert p_value(d, n, "asymptotic") == want

    def test_auto_switches_at_limit(self):
        d = 0.09
        assert p_value(d, AUTO_EXACT_LIMIT, "auto") == p_value(d, AUTO_EXACT_LIMIT, "exact")
        n_above = AUTO_EXACT_LIMIT + 1
        assert p_value(d, n_above, "auto") == p_value(d, n_above, "asymptotic")

    def test_auto_close_to_asymptotic_for_large_n(self):
        d = 0.012
        assert p_value(d, 10_000, "auto") == pytest.approx(
            p_value(d, 10_000, "asymptotic"), abs=1e-3
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            p_value(-0.1, 10)
        with pytest.raises(ValueError):
            p_value(1.1, 10)
        with pytest.raises(ValueError):
            p_value(0.3, 0)
        with pytest.raises(ValueError):
            p_value(0.3, 10, "bogus")


class TestSampleSizeRule:
    """Every null-law entry point takes n only as an integer >= 1."""

    CALLS = {
        "exact_cdf": lambda n: exact_cdf(n, 0.3),
        "p_value-exact": lambda n: p_value(0.3, n, "exact"),
        "p_value-asymptotic": lambda n: p_value(0.3, n, "asymptotic"),
        "critical_value": lambda n: critical_value(n, 0.05),
        "meta_test": lambda n: meta_test([0.3], n),
        "power_from_statistics": lambda n: power_from_statistics([0.3], n, 0.05),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize("n", [2.5, np.float64(50.0), 0, -3], ids=repr)
    def test_non_integer_or_small_n_is_refused(self, call, n):
        with pytest.raises(ValueError) as caught:
            call(n)
        assert str(caught.value) == f"sample size must be an integer >= 1, got {n}"

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_numpy_integer_gives_the_same_bits(self, call):
        got, want = call(np.int64(50)), call(50)
        assert type(got) is type(want)
        assert got == want

    @pytest.mark.parametrize("d", [0.02, 0.05, 0.2, 0.45, 0.9])
    def test_numpy_integer_exact_cdf_bits(self, d):
        for n in (1, 50, 141, 1000):
            assert exact_cdf(np.int64(n), d) == exact_cdf(n, d)


class TestCriticalValue:
    @pytest.mark.parametrize("n", [1, 5, 20, 100])
    @pytest.mark.parametrize("alpha", [0.2, 0.1, 0.05, 0.01])
    def test_round_trip(self, n, alpha):
        c = critical_value(n, alpha)
        assert 1.0 / (2.0 * n) < c <= 1.0
        assert exact_cdf(n, c) >= 1.0 - alpha
        # smallest such value: a hair below must fall short
        assert exact_cdf(n, c - 2e-10) < 1.0 - alpha

    def test_textbook_anchor(self):
        # classic table value for n = 2, alpha = 0.05 is 0.84189
        assert critical_value(2, 0.05) == pytest.approx(0.84189, abs=5e-5)

    def test_decreasing_in_alpha(self):
        crits = [critical_value(25, a) for a in (0.3, 0.1, 0.05, 0.01, 0.001)]
        assert all(a < b for a, b in zip(crits, crits[1:]))

    def test_approaches_lower_bound_as_alpha_to_one(self):
        n = 5
        c = critical_value(n, 1.0 - 1e-7)
        assert 1.0 / (2.0 * n) < c < 1.0 / (2.0 * n) + 0.02

    def test_input_validation(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                critical_value(10, bad)
        with pytest.raises(ValueError):
            critical_value(0, 0.05)

    @pytest.mark.parametrize("n, alpha", [(20, 1e-16), (21, 1e-15), (38, 1e-15)])
    def test_search_above_a_dkw_point_that_falls_short(self, n, alpha):
        # Rounding leaves the computed cdf at the DKW point below 1 - alpha
        # here (0.9999999999999994 at n = 20), so the search runs above it.
        dkw = min(1.0, math.sqrt(math.log(2.0 / alpha) / (2.0 * n)))
        assert exact_cdf(n, dkw) < 1.0 - alpha
        c = critical_value(n, alpha)
        assert exact_cdf(n, c) >= 1.0 - alpha > exact_cdf(n, c - 1e-10)

    @pytest.mark.parametrize("alpha", [1e-17, 5e-17, 1e-300])
    def test_alpha_below_double_resolution_rejected(self, alpha):
        # 1 - alpha == 1.0: the search returned 1.0 for n = 10 (true
        # critical value about 0.981) and 4.2919 for the limit law (4.463).
        with pytest.raises(ValueError, match="1 - alpha rounds to 1"):
            critical_value(10, alpha)
        with pytest.raises(ValueError, match="1 - alpha rounds to 1"):
            asymptotic_critical_value(alpha)


SWEEP_N = list(range(1, 201)) + [500, 1000, 3000]
SWEEP_ALPHAS = [1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.5, 0.999, 1.0 - 1e-7]
TABLE_ALPHAS = (0.2, 0.1, 0.05, 0.01)  # condks table's default levels


@pytest.fixture(scope="module")
def sweep():
    """critical_value over the sweep grid, with the exact_cdf calls each
    (n, alpha) took: {(n, alpha): (c, calls)}."""
    calls = [0]

    def counting(n, d):
        calls[0] += 1
        return exact_cdf(n, d)

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condks.kolmogorov, "exact_cdf", counting)
        for n in SWEEP_N:
            for alpha in SWEEP_ALPHAS:
                calls[0] = 0
                out[(n, alpha)] = (critical_value(n, alpha), calls[0])
    return out


class TestCriticalValueSearch:
    def test_bracket_at_width_1e10(self, sweep):
        for (n, alpha), (c, _) in sweep.items():
            assert exact_cdf(n, c) >= 1.0 - alpha > exact_cdf(n, c - 1e-10), (n, alpha)

    def test_at_most_three_calls_beyond_bisection(self, sweep):
        for (n, alpha), (_, calls) in sweep.items():
            bisection = math.ceil(math.log2((1.0 - 1.0 / (2.0 * n)) / 1e-10))
            assert calls <= bisection + 3, (n, alpha, calls, bisection)

    def test_default_table_call_total(self, sweep):
        # bisection took 27188 calls over these 800 cells
        total = sum(sweep[(n, a)][1] for n in range(1, 201) for a in TABLE_ALPHAS)
        assert total <= 10_000

    def test_asymptotic_bracket_at_width_1e12(self):
        for alpha in SWEEP_ALPHAS:
            x = asymptotic_critical_value(alpha)
            assert asymptotic_cdf(x) >= 1.0 - alpha > asymptotic_cdf(x - 1e-12), alpha

    def test_matches_scipy_kstwo_isf(self):
        kstwo = pytest.importorskip("scipy.stats").kstwo
        for n in (1, 2, 3, 4, 5, 7, 10, 20, 33, 50, 75, 100, 120, 140):
            for alpha in (0.2, 0.1, 0.05, 0.01, 0.001):
                # c sits at most the search width above the root
                gap = critical_value(n, alpha) - float(kstwo.isf(alpha, n))
                assert -1e-11 <= gap <= 1e-10 + 1e-11, (n, alpha, gap)


class TestAsymptoticCriticalValue:
    def test_matches_frozen_anchor(self):
        assert asymptotic_critical_value(0.05) == pytest.approx(1.3581, abs=1e-4)

    def test_round_trip(self):
        for alpha in (0.2, 0.1, 0.05, 0.01):
            x = asymptotic_critical_value(alpha)
            assert asymptotic_cdf(x) == pytest.approx(1.0 - alpha, abs=1e-9)
