import math

import mpmath
import numpy as np
import pytest

import condks.kolmogorov
from condks import (
    AUTO_EXACT_LIMIT,
    asymptotic_cdf,
    asymptotic_critical_value,
    critical_value,
    exact_cdf,
    p_value,
)


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


def exact_cdf_reference(n: int, d: float) -> float:
    """The MTW law with the n!/n^n factor applied one rescaled step at a
    time and every scalar read straight from the matrices."""
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
                eV += 140
            elif 0.0 < V[c, c] < 1e-140:
                V *= 1e140
                eV -= 140
        g >>= 1
        if g:
            P = P @ P
            eP *= 2
            if P[c, c] > 1e140:
                P *= 1e-140
                eP += 140
            elif 0.0 < P[c, c] < 1e-140:
                P *= 1e140
                eP -= 140
    s = V[c, c]
    for i in range(1, n + 1):
        s *= i / n
        if s < 1e-140:
            s *= 1e140
            eV -= 140
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
    return points


class TestAsymptoticCdf:
    def test_matches_high_precision_series(self):
        for x in GRID_X:
            assert asymptotic_cdf(x) == pytest.approx(series_oracle(x), abs=1e-10)

    def test_zero_below_cutoff(self):
        for x in (-3.0, -1e-9, 0.0, 0.02, 0.0499):
            assert asymptotic_cdf(x) == 0.0

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
