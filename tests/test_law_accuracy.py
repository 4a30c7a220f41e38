"""The exact null law against an oracle exact to far past double precision.

``mtw_oracle`` runs the Marsaglia-Tsang-Wang method, which is exact in
exact arithmetic, in fixed point: every entry of H is an exact fraction
(d is a binary float, so nd and h are exact) rounded to a multiple of
2^-320, and row c of H^n comes from n row-times-matrix products in Python
integers, each rounded back to 2^-320.  It never rescales, and it builds H
from its definition, not from ``exact_cdf``'s tables.  ``mpmath_oracle``
is the same recurrence in mpmath at 40 digits, about ten times slower; it
checks the fixed-point oracle on the cheap points.  scipy's ``kstwo`` is a
second, independent witness where it imports.

The grid is ROADMAP's six points, m = 13 to 71, and two whose powers
``exact_cdf`` rescales: V alone at n = 330 (m = 19) and P alone at n = 512
(m = 3).
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from condks import exact_cdf, p_value

EPS = np.finfo(float).eps

# (n, d), with exact_cdf's relative error as measured on a 2-vCPU Xeon VM
# (OpenBLAS SkylakeX kernel, numpy's AVX-512 loops): 4.6e-17, 2.8e-16,
# 6.1e-16, 2.5e-15, 3.3e-15, 2.3e-15, 1.9e-15 and 3.4e-15, at most about
# 15 eps.  (140, 0.25) has m = 71 and (200, 0.15) m = 61.
GRID = [(20, 0.3), (50, 0.23), (50, 0.3), (140, 0.13), (140, 0.25), (200, 0.15),
        (330, 0.0285), (512, 0.0034)]
# What the tests allow on the cdf: about twice the largest measured error.
CDF_BOUND = 32 * EPS
# The fixed point's fractional bits.
BITS = 320


def _transition_matrix(n: int, d: float) -> tuple[int, list[list[Fraction]]]:
    """k and the MTW matrix H for (n, d), every entry an exact fraction."""
    nd = n * Fraction(d)
    k = math.floor(nd) + 1
    h = k - nd
    m = 2 * k - 1
    H = [[Fraction(1, math.factorial(i - j + 1)) if i - j + 1 >= 0 else Fraction(0)
          for j in range(m)] for i in range(m)]
    for i in range(m):
        H[i][0] -= h ** (i + 1) / math.factorial(i + 1)
        H[m - 1][i] -= h ** (m - i) / math.factorial(m - i)
    if 2 * h - 1 > 0:
        H[m - 1][0] += (2 * h - 1) ** m / math.factorial(m)
    return k, H


@functools.lru_cache(maxsize=None)
def mtw_oracle(n: int, d: float) -> Fraction:
    """P(D_n <= d) by the MTW method in fixed point: n!/n^n times the
    central entry of H^n, with H rounded to 2^-320 and each of the n
    row-times-matrix products rounded back to it."""
    k, H = _transition_matrix(n, d)
    half = 1 << (BITS - 1)
    fixed = np.array([[round(x * 2 ** BITS) for x in row] for row in H], dtype=object)
    row = np.array([int(i == k - 1) << BITS for i in range(2 * k - 1)], dtype=object)
    for _ in range(n):
        row = (row.dot(fixed) + half) >> BITS
    return Fraction(row[k - 1] * math.factorial(n), n ** n << BITS)


def mpmath_oracle(n: int, d: float) -> mpmath.mpf:
    """The same recurrence at 40 digits, with nd, h and every entry of H
    computed in mpmath, not taken from ``_transition_matrix``."""
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


def relative_error(got: float, want: Fraction) -> float:
    return float(abs(Fraction(got) - want) / want)


@pytest.mark.parametrize("n, d", [(20, 0.3), (50, 0.23), (512, 0.0034)])
def test_fixed_point_oracle_matches_mpmath(n, d):
    got, want = mtw_oracle(n, d), mpmath_oracle(n, d)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(got.numerator) / got.denominator - want) <= mpmath.mpf("1e-38") * want


@pytest.mark.parametrize("n, d", GRID)
def test_cdf_within_its_stated_bound(n, d):
    assert relative_error(exact_cdf(n, d), mtw_oracle(n, d)) <= CDF_BOUND


@pytest.mark.parametrize("n, d", GRID)
def test_upper_tail_loses_the_digits_of_cdf_over_its_complement(n, d):
    # 1 - cdf carries the cdf's absolute error, about cdf * CDF_BOUND, plus
    # the rounding of the subtraction.
    want = mtw_oracle(n, d)
    got = p_value(d, n, mode="exact")
    assert got == 1.0 - exact_cdf(n, d)
    assert relative_error(got, 1 - want) <= CDF_BOUND * float(want / (1 - want)) + EPS


@pytest.mark.parametrize("n, d", GRID)
def test_scipy_witnesses_the_oracle(n, d):
    # scipy's kstwo agreed within 2.9e-13 up to n = 140; past it scipy
    # approximates the law, and agreed within 2.8e-8 at n = 200 and 9.2e-6
    # at n = 330.
    kstwo = pytest.importorskip("scipy.stats").kstwo
    want = mtw_oracle(n, d)
    bound = 1e-12 if n <= 140 else 2e-5
    assert relative_error(float(kstwo.sf(d, n)), 1 - want) <= bound
    assert relative_error(float(kstwo.cdf(d, n)), want) <= bound
