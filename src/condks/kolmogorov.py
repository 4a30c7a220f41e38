"""Null distribution of the Kolmogorov-Smirnov statistic.

Two evaluators live here.  ``asymptotic_cdf`` is the limiting law

    Q(x) = 1 - 2 * sum_{k>=1} (-1)^(k-1) * exp(-2 k^2 x^2),

the distribution of ``sqrt(n) * D_n`` as n grows.  ``exact_cdf`` is the
finite-n law P(D_n <= d), computed with the Marsaglia-Tsang-Wang
transition-matrix method: form an m x m matrix H (m = 2k - 1 where
k = ceil(n d) and h = k - n d is the fractional correction), raise it to
the n-th power, and read off n!/n^n times the central entry.  Powers are
taken by repeated squaring with explicit decimal rescaling so the method
stays in double range for n up to about 1e4.

An ``exact_cdf`` call runs at most 2 log2(n) m x m matrix products; the
rest of its time is fixed Python and numpy work per call (building H,
the n!/n^n factor, the rescale checks).  At n = 50 (m = 23) the seven
products take about 13 us of a 23 us call (2-vCPU Xeon VM, one BLAS
thread), and from n of a few hundred they are most of it.  The Toeplitz
band of H and the exponents of h are therefore built once at import,
the n!/n^n factor is taken on a Python float, and nothing keyed by n or
d is kept between calls.
"""

from __future__ import annotations

import math

import numpy as np

# Series truncation for Q(x): stop once the next term drops below this.
_SERIES_EPS = 1e-16
_SERIES_MAX_TERMS = 100_000
# Below this x the series value is under 1e-8 and the alternating sum is
# pure cancellation noise; report 0.
_SERIES_SMALL_X = 0.05

# Largest n where mode="auto" picks the exact law.
AUTO_EXACT_LIMIT = 140

# Rescaling thresholds for the matrix power (base-10 exponent carried
# separately, as in the original MTW code).
_RESCALE_HI = 1e140
_RESCALE_LO = 1e-140


def asymptotic_cdf(x: float) -> float:
    """Limiting CDF Q(x) of the scaled statistic sqrt(n) * D_n.

    Returns 0 for x <= 0 (and for x < 0.05, where the true value is
    below 1e-8 and double-precision summation returns only noise).
    """
    if x < _SERIES_SMALL_X:
        return 0.0
    total = 0.0
    sign = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = math.exp(-2.0 * k * k * x * x)
        if term < _SERIES_EPS:
            break
        total += sign * term
        sign = -sign
    q = 1.0 - 2.0 * total
    return min(1.0, max(0.0, q))


# n! as a float cumprod for n = 0..170; 171! overflows, and the matrix
# entries it divides are then 0.
_FACT = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 171.0))))
_INV_FACT = 1.0 / _FACT
# For m < 171, H's Toeplitz part read backwards from _BAND[_FACT.size - 1]:
# 169 zeros, then 1/t! at _BAND[169 + t].
_BAND = np.concatenate((np.zeros(_FACT.size - 2), _INV_FACT))
# Exponents 1..170 for the powers of h in the first column; slicing them
# saves about 0.6 us per call over a new np.arange.
_POWERS = np.arange(1.0, 171.0)


def _transition_matrix(k: int, h: float) -> np.ndarray:
    """The MTW matrix H for parameters k = ceil(nd), h = k - nd.

    Entry (i, j) is 1/(i - j + 1)! on and below the superdiagonal and 0
    above it, except for the h corrections in the first column and the
    last row.
    """
    m = 2 * k - 1
    if m < _FACT.size:
        fact = _FACT[:m + 1]
        band, start = _BAND, _FACT.size - 1
        powers = _POWERS[:m]
    else:
        fact = np.concatenate((_FACT, np.full(m + 1 - _FACT.size, np.inf)))
        inv = np.concatenate((_INV_FACT, np.zeros(m + 1 - _FACT.size)))
        band, start = np.concatenate((np.zeros(m - 1), inv)), m
        powers = np.arange(1.0, m + 1.0)
    # Toeplitz: H[i, j] = band[start + i - j], which is 1/(i - j + 1)!.
    step = band.itemsize
    H = np.ndarray((m, m), float, band, start * step, (step, -step)).copy()
    hp = h ** powers
    last = hp[m - 1]
    corner = (1.0 - last) - last
    if 2.0 * h - 1.0 > 0.0:
        corner += (2.0 * h - 1.0) ** m
    # Entry (i, 0) is (1 - h^(i+1))/(i+1)! and entry (m-1, j) is the same
    # value at i = m-1-j.
    first_column = (1.0 - hp) / fact[1:]
    H[:, 0] = first_column
    H[m - 1, :] = first_column[::-1]
    H[m - 1, 0] = corner / fact[m]
    return H


def exact_cdf(n: int, d: float) -> float:
    """P(D_n <= d) for the one-sample KS statistic at sample size n.

    Exact up to double-precision rounding.  Returns 0 for
    d <= 1/(2n) (the statistic's lower bound is attained with
    probability zero) and 1 once the DKW bound 2 exp(-2 n d^2) is
    below 1e-16, which also caps the matrix size for large n.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
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
    h = k - nd
    H = _transition_matrix(k, h)

    # V = H^n by binary powering; eV tracks a separate power of ten.
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
            v = V[c, c]
            if v > _RESCALE_HI:
                V *= _RESCALE_LO
                eV += 140
            elif 0.0 < v < _RESCALE_LO:
                V *= _RESCALE_HI
                eV -= 140
        g >>= 1
        if g:
            P = P @ P
            eP *= 2
            p = P[c, c]
            if p > _RESCALE_HI:
                P *= _RESCALE_LO
                eP += 140
            elif 0.0 < p < _RESCALE_LO:
                P *= _RESCALE_HI
                eP -= 140

    # Multiply by n!/n^n one factor i/n at a time, rescaling as needed.
    # A Python float, not an np.float64 scalar: the same IEEE products at
    # a fraction of the per-factor cost.
    s = float(V[c, c])
    for i in range(1, n + 1):
        s *= i / n
        if s < _RESCALE_LO:
            s *= _RESCALE_HI
            eV -= 140
    s *= 10.0 ** eV
    return float(min(1.0, max(0.0, s)))


def _resolve_mode(mode: str, n: int) -> str:
    if mode == "auto":
        return "exact" if n <= AUTO_EXACT_LIMIT else "asymptotic"
    if mode in ("exact", "asymptotic"):
        return mode
    raise ValueError(f"mode must be 'exact', 'asymptotic' or 'auto', got {mode!r}")


def p_value(statistic: float, n: int, mode: str = "auto") -> float:
    """Upper-tail probability of the KS statistic under the null.

    mode="exact" uses the finite-n law, mode="asymptotic" uses
    1 - Q(sqrt(n) * statistic), and mode="auto" picks the exact law
    for n <= 140 and the asymptotic one beyond.
    """
    if not 0.0 <= statistic <= 1.0:
        raise ValueError(f"statistic must lie in [0, 1], got {statistic}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    resolved = _resolve_mode(mode, n)
    if resolved == "exact":
        return 1.0 - exact_cdf(n, statistic)
    return 1.0 - asymptotic_cdf(math.sqrt(n) * statistic)


def _itp_search(cdf, target: float, lo: float, hi: float,
                cdf_lo: float, cdf_hi: float, width: float) -> float:
    """Where a non-decreasing ``cdf`` reaches ``target``, by the ITP method
    (Oliveira & Takahashi, ACM TOMS 47(1), 2021).

    Needs ``cdf(lo) = cdf_lo < target <= cdf_hi = cdf(hi)`` and keeps that
    invariant; returns ``hi`` once ``hi - lo <= width``.  Each step takes
    the regula-falsi point, moves it towards the midpoint and projects it
    into a shrinking window around the midpoint, so the search is
    superlinear on smooth stretches and never needs more than one ``cdf``
    call beyond bisection from the same bracket.
    """
    f_lo, f_hi = cdf_lo - target, cdf_hi - target
    # The paper's constants kappa1 = 0.2 / (hi - lo), kappa2 = 2, n0 = 1.
    kappa1 = 0.2 / (hi - lo)
    steps = math.ceil(math.log2((hi - lo) / width)) + 1
    # A point within window - (hi - lo)/2 of the midpoint leaves a bracket
    # no wider than the window, which halves every step from 2^steps
    # widths.  Aiming a sixteenth inside that bound absorbs rounding: a
    # bracket an ulp too wide would cost one more step at the end.
    window = 0.9375 * width * 2.0 ** steps
    while hi - lo > width:
        window *= 0.5
        mid = 0.5 * (lo + hi)
        radius = max(0.0, window - 0.5 * (hi - lo))
        delta = kappa1 * (hi - lo) ** 2
        falsi = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        sigma = 1.0 if mid >= falsi else -1.0
        x = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        if not lo < x < hi:
            # Rounding put the point on an end, where it would not shrink
            # the bracket; the midpoint keeps the step count.
            x = mid
        fx = cdf(x) - target
        if fx >= 0.0:
            hi, f_hi = x, fx
        else:
            lo, f_lo = x, fx
    return hi


def _level_target(alpha: float) -> float:
    """1 - alpha, the cdf level a critical value must reach.

    The search compares cdf values with 1 - alpha in double precision.  For
    an alpha below about 1.1e-16, 1 - alpha rounds to 1, and the search
    would return the point where the computed cdf first reaches 1, not the
    alpha-level point, so such an alpha is refused.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    target = 1.0 - alpha
    if target == 1.0:
        raise ValueError(
            f"alpha={alpha!r} is too small: 1 - alpha rounds to 1 in double "
            "precision, so its critical value cannot be resolved"
        )
    return target


def critical_value(n: int, alpha: float) -> float:
    """Smallest d with P(D_n <= d) >= 1 - alpha, to within 1e-10.

    The result c satisfies P(D_n <= c) >= 1 - alpha > P(D_n <= c - 1e-10);
    a test rejects at level alpha iff its statistic exceeds c.  The search
    starts from Massart's tight DKW bound, P(D_n > d) <= 2 exp(-2 n d^2),
    whose level-alpha point is an upper end close to the answer.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    target = _level_target(alpha)
    # exact_cdf(n, 1/(2n)) = 0 and exact_cdf(n, 1) = 1 by definition.
    lo, cdf_lo = 1.0 / (2.0 * n), 0.0
    hi = min(1.0, math.sqrt(math.log(2.0 / alpha) / (2.0 * n)))
    cdf_hi = exact_cdf(n, hi)
    if cdf_hi < target:
        # Only rounding can leave the bound short; search above it.
        lo, cdf_lo, hi, cdf_hi = hi, cdf_hi, 1.0, 1.0
    return _itp_search(lambda d: exact_cdf(n, d), target, lo, hi, cdf_lo, cdf_hi, 1e-10)


def asymptotic_critical_value(alpha: float) -> float:
    """Smallest x with Q(x) >= 1 - alpha (threshold for sqrt(n) * D_n),
    to within 1e-12."""
    # Q(0) = 0 and Q(10) = 1 exactly in double precision.
    return _itp_search(asymptotic_cdf, _level_target(alpha), 0.0, 10.0, 0.0, 1.0, 1e-12)

