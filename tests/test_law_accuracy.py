"""The exact null law against a 40-digit oracle.

``mtw_oracle`` runs the Marsaglia-Tsang-Wang method, which is exact in
exact arithmetic, in mpmath at 40 digits.  mpmath's exponents have no range
to leave, so the oracle never rescales, and it builds H from its
definition, not from ``exact_cdf``'s tables.  scipy's ``kstwo`` is a
second, independent witness where it imports.

The grid is ROADMAP's four points with m <= 37 and two whose powers
``exact_cdf`` rescales: V alone at n = 330 (m = 19) and P alone at n = 512
(m = 3).
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from condks import exact_cdf, p_value

EPS = np.finfo(float).eps

# (n, d), with exact_cdf's relative error as measured on a 2-vCPU Xeon VM
# (OpenBLAS SkylakeX kernel, numpy's AVX-512 loops): 4.6e-17, 2.8e-16,
# 6.1e-16, 2.5e-15, 1.9e-15 and 3.4e-15, at most about 15 eps.
GRID = [(20, 0.3), (50, 0.23), (50, 0.3), (140, 0.13), (330, 0.0285), (512, 0.0034)]
# What the tests allow on the cdf: about twice the largest measured error.
CDF_BOUND = 32 * EPS


@functools.lru_cache(maxsize=None)
def mtw_oracle(n: int, d: float) -> mpmath.mpf:
    """P(D_n <= d) by the MTW method at 40 digits: n!/n^n times the
    central entry of H^n, with nd, h and every entry of H exact to 40
    digits.  Row c of H^n comes from n row-times-matrix products, not by
    repeated squaring as in exact_cdf."""
    with mpmath.workdps(40):
        nd = n * mpmath.mpf(d)
        k = int(mpmath.floor(nd)) + 1
        h = k - nd
        m = 2 * k - 1
        fact = [mpmath.factorial(i) for i in range(m + 1)]
        H = np.empty((m, m), dtype=object)
        for i in range(m):
            for j in range(m):
                H[i, j] = 1 / fact[i - j + 1] if i - j + 1 >= 0 else mpmath.mpf(0)
        for i in range(m):
            H[i, 0] -= h ** (i + 1) / fact[i + 1]
            H[m - 1, i] -= h ** (m - i) / fact[m - i]
        if 2 * h - 1 > 0:
            H[m - 1, 0] += (2 * h - 1) ** m / fact[m]
        row = np.array([mpmath.mpf(i == k - 1) for i in range(m)], dtype=object)
        for _ in range(n):
            row = row.dot(H)
        return +(row[k - 1] * mpmath.factorial(n) / mpmath.mpf(n) ** n)

def relative_error(got: float, want: mpmath.mpf) -> float:
    with mpmath.workdps(40):
        return float(abs((got - want) / want))


@pytest.mark.parametrize("n, d", GRID)
def test_cdf_within_its_stated_bound(n, d):
    assert relative_error(exact_cdf(n, d), mtw_oracle(n, d)) <= CDF_BOUND


@pytest.mark.parametrize("n, d", GRID)
def test_upper_tail_loses_the_digits_of_cdf_over_its_complement(n, d):
    # 1 - cdf carries the cdf's absolute error, about cdf * CDF_BOUND, plus
    # the rounding of the subtraction.
    want = mtw_oracle(n, d)
    with mpmath.workdps(40):
        tail, odds = 1 - want, float(want / (1 - want))
    got = p_value(d, n, mode="exact")
    assert got == 1.0 - exact_cdf(n, d)
    assert relative_error(got, tail) <= CDF_BOUND * odds + EPS


@pytest.mark.parametrize("n, d", GRID)
def test_scipy_witnesses_the_oracle(n, d):
    # scipy's kstwo agreed within 2.9e-13 up to n = 140; past it scipy
    # approximates the law, and agreed within 9.2e-6 at n = 330.
    kstwo = pytest.importorskip("scipy.stats").kstwo
    want = mtw_oracle(n, d)
    with mpmath.workdps(40):
        tail = 1 - want
    bound = 1e-12 if n <= 140 else 2e-5
    assert relative_error(float(kstwo.sf(d, n)), tail) <= bound
    assert relative_error(float(kstwo.cdf(d, n)), want) <= bound

