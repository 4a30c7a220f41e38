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
rest of its time is fixed Python and numpy work per call.  At n = 50
(m = 23) the seven products take about 11 us of a 21 us call and
building H about 6 us (2-vCPU Xeon VM, one BLAS thread); from n of a few
hundred the products are most of it.  H's tables (n!, a Toeplitz view of
1/t!, the exponents of h) are built read-only at import for every
m < 171.  The products are ``ndarray.dot`` calls: the same BLAS call as
``np.dot`` without its Python ``__array_function__`` wrapper, which was
0.4 us of a 1.5 us product at m = 23.  n!/n^n is one ``math.prod`` per
chunk of its ratios i/n, with a rescaling loop only over a chunk that
ends below 1e-140.  Kept between calls are those chunks for the last n,
which a critical-value search or a run of p-values asks for many times
in a row.  A ``_shared_law(n)`` scope, which ``condks simulate`` and
``power_estimate`` open, holds a map of values that ``exact_cdf`` reads
and never writes: ``run_replicates`` fills it with ``_exact_cdf_many``,
each worker process for its own statistics, by the same steps on stacks
of H of one size, 0.07 s for 10^4 statistics at n = 50 against 0.17 s
in calls, but 74 us for one value against 14 us.  A stack that would
rescale is left for ``exact_cdf`` to compute when read; H's rows sum to at
most e, so up to n = 322 (e^322 < 1e140) only a small power can rescale.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import operator

import numpy as np

# Series truncation for Q(x): stop once the next term drops below this,
# which takes at most 86 terms for x >= _SERIES_SMALL_X (one for +inf).
_SERIES_EPS = 1e-16
# Below this x the series value is under 1e-8 and the alternating sum is
# pure cancellation noise; report 0.
_SERIES_SMALL_X = 0.05

# Largest n where mode="auto" picks the exact law.
AUTO_EXACT_LIMIT = 140

# Rescaling thresholds for the matrix power (base-10 exponent carried
# separately, as in the original MTW code).
_RESCALE_HI = 1e140
_RESCALE_LO = 1e-140


def _integer_at_least(value, lower: int, what: str) -> int:
    """``value`` as an int, if it is an integer (a numpy one included) of
    at least ``lower``; otherwise a ValueError naming ``what``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = lower - 1
    if number < lower:
        bound = "a non-negative integer" if lower == 0 else f"an integer >= {lower}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return number


def _level(value, what: str) -> float:
    """``value`` as a Python float if it lies in (0, 1); otherwise a
    ValueError naming ``what``.  A float32 level would carry float32
    arithmetic into the search and never narrow to its width."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{what} must lie in (0, 1), got {value}")
    return float(value)


def asymptotic_cdf(x: float) -> float:
    """Limiting CDF Q(x) of the scaled statistic sqrt(n) * D_n.

    Returns 0 for x <= 0 (and for x < 0.05, where the true value is
    below 1e-8 and double-precision summation returns only noise), and
    raises ValueError for NaN.
    """
    if not x >= _SERIES_SMALL_X:
        if math.isnan(x):
            raise ValueError("x must not be NaN")
        return 0.0
    x = float(x)
    total = 0.0
    sign = 1.0
    for k in itertools.count(1):
        term = math.exp(-2.0 * k * k * x * x)
        if term < _SERIES_EPS:
            break
        total += sign * term
        sign = -sign
    q = 1.0 - 2.0 * total
    return min(1.0, max(0.0, q))


def _tables(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What H of size m < ``size`` reads, all read-only: n! for n < size
    (inf from 171! on), the Toeplitz body T[i, j] = 1/(i - j + 1)! of size
    size - 1 (0 above the superdiagonal) and the exponents 1..size-1 of h.
    T is a strided view over one band of size - 2 zeros, then 1/t! at
    size - 2 + t: T[i, j] = band[size - 1 + i - j]."""
    with np.errstate(over="ignore"):
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, size))))
    band = np.concatenate((np.zeros(size - 2), 1.0 / fact))
    powers = np.arange(1.0, size)
    for table in (fact, band, powers):
        table.flags.writeable = False
    step = band.itemsize
    toeplitz = np.ndarray((size - 1, size - 1), float, band, (size - 1) * step, (step, -step))
    return fact, toeplitz, powers


_TABLES = _tables(171)  # every m < 171; a larger m builds its own


def _transition_matrix(k: int, h: float) -> np.ndarray:
    """The MTW matrix H for parameters k = ceil(nd), h = k - nd.

    Entry (i, j) is 1/(i - j + 1)! on and below the superdiagonal and 0
    above it, except for the h corrections in the first column and the
    last row.
    """
    m = 2 * k - 1
    fact, toeplitz, powers = _TABLES if m < 171 else _tables(m + 1)
    H = toeplitz[:m, :m].copy()
    hp = h ** powers[:m]
    last = hp[m - 1]
    corner = (1.0 - last) - last
    if 2.0 * h - 1.0 > 0.0:
        corner += (2.0 * h - 1.0) ** m
    # Entry (i, 0) is (1 - h^(i+1))/(i+1)! and entry (m-1, j) is the same
    # value at i = m-1-j.
    first_column = (1.0 - hp) / fact[1:m + 1]
    H[:, 0] = first_column
    H[m - 1, :] = first_column[::-1]
    H[m - 1, 0] = corner / fact[m]
    return H


def _stack_cdf(n: int, k: int, h: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """``exact_cdf``'s bits for the d of k = int(nd) + 1, h = k - nd, by its
    steps on a stack of H; NaN where exact_cdf rescales: all, at the first
    central entry of V or P outside [1e-140, 1e140], else those past n!/n^n."""
    m, c = 2 * k - 1, k - 1
    fact, toeplitz, powers = _TABLES if m < 171 else _tables(m + 1)
    H = np.repeat(toeplitz[None, :m, :m], h.size, axis=0)
    hp = h[:, None] ** powers[:m]
    corner = (1.0 - hp[:, m - 1]) - hp[:, m - 1]
    t = 2.0 * h - 1.0
    corner[t > 0.0] += [x ** m for x in t[t > 0.0].tolist()]  # libm's pow, as exact_cdf's
    first_column = (1.0 - hp) / fact[1:m + 1]
    H[:, :, 0] = first_column
    H[:, m - 1, :] = first_column[:, ::-1]
    H[:, m - 1, 0] = corner / fact[m]
    V, P, g = None, H, n
    while g > 0:
        if g & 1:
            V = P if V is None else V @ P
        g >>= 1
        if g:
            P = P @ P
        w = P[:, c, c].tolist() + (P if V is None else V)[:, c, c].tolist()
        if not (_RESCALE_LO <= min(w) and max(w) <= _RESCALE_HI):
            return np.full(h.size, np.nan)
    # Products from the left, as math.prod takes each chunk.  A kept one is
    # at least 1e-140 > 0, so exact_cdf's max(0.0, .) leaves it as it is.
    s = np.column_stack((V[:, c, c], np.broadcast_to(ratios, (h.size, n))))
    s = np.multiply.accumulate(s, axis=1)[:, n]
    return np.where(s >= _RESCALE_LO, np.minimum(1.0, s), np.nan)


def _exact_cdf_many(n: int, ds) -> dict[float, float]:
    """{d: exact_cdf(n, d)}, same bits, for each distinct d of ``ds`` where
    exact_cdf powers H (d < 1, nd > 1/2, short of the DKW cutoff) without
    rescaling.  The d of one k are powered in stacks of H of at most 128 kB,
    as is n!/n^n; exact_cdf computes any other d when it is read."""
    d = np.sort(np.asarray(ds, dtype=float))  # np.unique imports numpy.ma
    keep = (n * d > 0.5) & (d < 1.0)
    keep[1:] &= d[1:] != d[:-1]
    # math.exp, as in exact_cdf, judges the DKW cutoff.
    d = np.array([x for x in d[keep].tolist() if 2.0 * math.exp(-2.0 * n * x * x) >= 1e-16])
    k = (n * d).astype(np.int64) + 1
    h = k - n * d
    ratios = np.arange(1.0, n + 1.0) / n
    starts = np.flatnonzero(np.diff(k, prepend=0))  # k is sorted
    values = [np.empty(0)]
    for group, hs in zip(k[starts].tolist(), np.split(h, starts[1:])):
        size = max(1, 16384 // max((2 * group - 1) ** 2, n + 1))
        values += [_stack_cdf(n, group, hs[i:i + size], ratios) for i in range(0, hs.size, size)]
    values = np.concatenate(values).tolist()
    return {x: v for x, v in zip(d.tolist(), values) if not math.isnan(v)}


# {n: {d: P(D_n <= d)}} of this thread's innermost _shared_law scope, or None.
_law_memo = contextvars.ContextVar("_law_memo", default=None)


@contextlib.contextmanager
def _shared_law(n: int):
    """Open, for the ``with`` body, an empty map of n's exact law if
    n <= AUTO_EXACT_LIMIT, where ``p_value``'s auto mode reads that law,
    and no map otherwise; on leaving, by exception too, an enclosing
    scope's comes back.  ``run_replicates`` fills the map, and
    ``exact_cdf`` only reads it."""
    token = _law_memo.set({n: {}} if n <= AUTO_EXACT_LIMIT else None)
    try:
        yield
    finally:
        _law_memo.reset(token)


def _law_map(n: int) -> dict[float, float] | None:
    """The innermost ``_shared_law`` scope's map for n, or None."""
    return (_law_memo.get() or {}).get(n)


def exact_cdf(n: int, d: float) -> float:
    """P(D_n <= d) for the one-sample KS statistic at sample size n.

    Within 3.4e-15 relative (15 eps) of an oracle good to 40 digits at
    eight points, n = 20 to 512, m = 3 to 71 (``tests/test_law_accuracy.py``).
    That figure was measured with OpenBLAS's SkylakeX kernel: its
    Sandybridge and Prescott kernels give 69.2 eps at (512, 0.0034), and
    off those points SkylakeX reaches 62.5 eps at (1000, 0.04).  ROADMAP
    item 6, step d, asks for a bound that grows with n.
    Returns 0 for d <= 1/(2n) (the statistic's lower bound is attained
    with probability zero) and 1 once the DKW bound 2 exp(-2 n d^2) is
    below 1e-16, which also caps the matrix size for large n.  Raises
    ValueError for a NaN d and for an n that is not an integer >= 1.
    Inside a ``_shared_law(n)`` scope a d its map holds returns the map's
    bits after those checks; any other call computes its value and keeps
    nothing.
    """
    n = _integer_at_least(n, 1, "sample size")
    if math.isnan(d):
        raise ValueError("d must not be NaN")
    d = float(d)
    if d >= 1.0:
        return 1.0
    nd = n * d
    if nd <= 0.5:
        return 0.0
    if 2.0 * math.exp(-2.0 * n * d * d) < 1e-16:
        return 1.0
    memo = _law_memo.get()
    known = None if memo is None else memo.get(n)
    if known is not None and (value := known.get(d)) is not None:
        return value

    k = int(nd) + 1
    h = k - nd
    H = _transition_matrix(k, h)

    # V = H^n by binary powering; eV tracks a separate power of ten.
    # ndarray.dot makes the same BLAS call as np.dot and ``@`` with the
    # least dispatch.  V takes P itself at the first set bit, so V is
    # rescaled into a new array and P, never shared after it, in place.
    c = k - 1
    eV = 0
    eP = 0
    V = None
    P = H
    g = n
    while g > 0:
        if g & 1:
            V = P if V is None else V.dot(P)
            eV += eP
            v = V.item(c, c)
            if v > _RESCALE_HI:
                V = V * _RESCALE_LO
                eV += 140
            elif 0.0 < v < _RESCALE_LO:
                V = V * _RESCALE_HI
                eV -= 140
        g >>= 1
        if g:
            P = P.dot(P)
            eP *= 2
            p = P.item(c, c)
            if p > _RESCALE_HI:
                P *= _RESCALE_LO
                eP += 140
            elif 0.0 < p < _RESCALE_LO:
                P *= _RESCALE_HI
                eP -= 140

    # Multiply by n!/n^n a chunk of ratios at a time.  Every ratio is <= 1,
    # so a chunk whose product ends at or above 1e-140 never went below it,
    # and the rescaling loop, run only for the other chunks, would match it.
    s = V.item(c, c)
    for chunk in _factor_chunks(n):
        if (t := math.prod(chunk, start=s)) >= _RESCALE_LO:
            s = t
            continue
        for r in chunk:
            s *= r
            if s < _RESCALE_LO:
                s *= _RESCALE_HI
                eV -= 140
    return min(1.0, max(0.0, s * 10.0 ** eV))


# Ratios per math.prod call.  64 keeps n <= 64 to one call.  The factor
# alone took 18 / 160 us at n = 1000 / 10^4 (timeit, 2-vCPU Xeon VM), and
# 12 / 123 us at 32, 14 / 232 at 128, 29 / 380 for a loop over all ratios.
_CHUNK = 64


@functools.lru_cache(maxsize=1)
def _factor_chunks(n: int) -> tuple[tuple[float, ...], ...]:
    """The factors i/n, i = 1..n, of n!/n^n (each Python's ``i / n``) in
    tuples of ``_CHUNK``; kept for the last n, which the next call shares."""
    ratios = (np.arange(1.0, n + 1.0) / n).tolist()
    return tuple(tuple(ratios[i:i + _CHUNK]) for i in range(0, n, _CHUNK))


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
    for n <= 140 and the asymptotic one beyond.  The exact tail carries
    ``exact_cdf``'s error times cdf / p: 3.5e-12 relative at p = 1.7e-4.
    """
    if not 0.0 <= statistic <= 1.0:
        raise ValueError(f"statistic must lie in [0, 1], got {statistic}")
    statistic = float(statistic)
    n = _integer_at_least(n, 1, "sample size")
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
    target = 1.0 - _level(alpha, "alpha")
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
    n = _integer_at_least(n, 1, "sample size")
    alpha = _level(alpha, "alpha")
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

