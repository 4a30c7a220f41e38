"""Conditional CDF families and the probability integral transform.

Data arrives as pairs (xi_i, zeta_i) where, under the null, xi_i was
drawn from a known conditional law F(. | zeta_i).  Mapping each pair to
Y_i = F(xi_i | zeta_i) turns the null into "the Y_i are i.i.d. uniform
on [0, 1]" whatever the zeta values were, which is what lets a single
KS table serve every conditioning structure.

Families implement a CDF and a quantile in the conditioning parameter;
three analytic ones are built in (normal location shift, exponential
rate, unit-width uniform window) plus a bilinear-interpolated table for
families known only numerically and a degenerate wrapper around an
unconditional CDF.
"""

from __future__ import annotations

import csv
import math
import sys
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .empirical import SortedUnitSample

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LIBM_CHUNK = 8192  # values

# Acklam's rational approximation to the standard normal quantile.
_A = (-3.969683028665376e+01,  2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01,  2.506628277459239e+00)
_B = (-5.447609879822406e+01,  1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00,  4.374664141464968e+00,  2.938163982698783e+00)
_D = ( 7.784695709041462e-03,  3.224671290700398e-01,  2.445134137142996e+00,
       3.754408661907416e+00)
_P_LOW = 0.02425


# Below the smallest normal double p loses significant bits, so the
# quantile's stated accuracy cannot hold, and the Halley step's
# exp(x * x / 2) overflows once p is deep in the subnormal range.
_P_MIN = sys.float_info.min


def _libm(fn, a: np.ndarray) -> np.ndarray:
    # Maps a scalar function over the elements as Python floats.  The
    # ``math`` functions go through it on purpose: numpy's SIMD exp/log
    # need not round like libm, and the replicate statistics of a seed are
    # frozen to the bit.  ConstantFamily's callables go through it because
    # they take one float.  It holds the output array and the Python floats
    # (32 bytes a value) of one chunk of _LIBM_CHUNK values, not of all;
    # an array of one chunk, such as a replicate block, is that chunk.
    flat = a.ravel()
    if flat.size <= _LIBM_CHUNK:
        return np.fromiter(map(fn, flat.tolist()), float, flat.size).reshape(a.shape)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _LIBM_CHUNK):
        chunk = flat[start:start + _LIBM_CHUNK]
        out[start:start + chunk.size] = np.fromiter(map(fn, chunk.tolist()), float, chunk.size)
    return out.reshape(a.shape)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * _libm(math.erfc, -x / _SQRT2)


def _acklam_tail(q: np.ndarray) -> np.ndarray:
    return (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
        ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)


def _norm_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile: Acklam's approximation plus one Halley
    refinement through erfc.

    Absolute error, measured against mpmath: at most 1e-14 for p < 0.5 (a
    few units in the last place of x), 7.4e-10 for p <= 1 - 1e-8, 2.3e-9
    for p <= 1 - 1e-9, and 8.4e-9 above that (the largest, near
    p = 1 - 2.8e-14).  The upper tail is worse because the Halley step
    forms cdf(x) - p with p next to 1, where the difference cancels, so
    the step removes little of Acklam's own error.  Mending that changes
    the replicate statistics, so it waits for the anchors to be re-frozen.
    """
    bad = ~((p >= _P_MIN) & (p < 1.0))
    if bad.any():
        value = float(p.ravel()[np.flatnonzero(bad)[0]])
        if 0.0 < value < _P_MIN:
            raise ValueError(
                f"quantile argument {value} is below the smallest normal "
                f"double {_P_MIN}, where the quantile is not accurate"
            )
        raise ValueError(f"quantile argument must lie in (0, 1), got {value}")
    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    central = ~(low | high)
    x = np.empty(p.shape)
    x[low] = _acklam_tail(np.sqrt(-2.0 * _libm(math.log, p[low])))
    x[high] = -_acklam_tail(np.sqrt(-2.0 * _libm(math.log1p, -p[high])))
    q = p[central] - 0.5
    r = q * q
    x[central] = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
        (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    e = _norm_cdf(x) - p
    u = e * _SQRT_2PI * _libm(math.exp, 0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


class ConditionalCdfFamily(ABC):
    """A family of CDFs indexed by a real conditioning parameter zeta.

    ``cdf`` and ``quantile`` broadcast over numpy arrays and return a
    plain float for scalar input.  The zeta domain is the finite reals
    above ``zeta_lower``, an open bound.
    """

    name: str = "family"
    zeta_lower: float = -math.inf
    # What a zeta is called in the domain messages.
    _zeta_label = "zeta"

    @abstractmethod
    def cdf(self, x, zeta):
        """F(x | zeta), in [0, 1]."""

    @abstractmethod
    def quantile(self, p, zeta):
        """Smallest x with F(x | zeta) >= p."""

    def zeta_error(self, zeta: float) -> str | None:
        """Reason the given zeta is outside the family's domain, or None."""
        if not math.isfinite(zeta):
            return "zeta must be finite"
        if zeta <= self.zeta_lower:
            return f"{self._zeta_label} must be > {self.zeta_lower:g}"
        return None

    def validate_zetas(self, zetas) -> None:
        """Raise ValueError naming the first invalid zeta and its index
        (the flat, C-order index for an array of more than one dimension)."""
        arr = np.asarray(zetas, dtype=float)
        ok = np.isfinite(arr)
        ok &= arr > self.zeta_lower
        if not ok.all():
            idx = int(np.argmin(ok))  # the first False, in flat C order
            z = float(arr.flat[idx])
            raise ValueError(
                f"zeta={z} at index {idx} invalid for family "
                f"'{self.name}': {self.zeta_error(z)}"
            )


class _ArrayFamily(ConditionalCdfFamily):
    """The call convention of the built-in families, in one place: both
    arguments become float arrays of one broadcast shape (arrays of one
    shape are not copied), the subclass's ``_cdf`` or ``_quantile``
    evaluates its formula on them, and two scalars give a float."""

    def cdf(self, x, zeta):
        X, Z = np.broadcast_arrays(np.asarray(x, float), np.asarray(zeta, float))
        out = self._cdf(X, Z)
        return float(out) if X.ndim == 0 else out

    def quantile(self, p, zeta):
        P, Z = np.broadcast_arrays(np.asarray(p, float), np.asarray(zeta, float))
        out = self._quantile(P, Z)
        return float(out) if P.ndim == 0 else out


@dataclass(frozen=True)
class NormalLocation(_ArrayFamily):
    """Normal with mean zeta and fixed scale sigma."""

    sigma: float = 1.0
    name = "normal-location"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    def _cdf(self, X, Z):
        return _norm_cdf((X - Z) / self.sigma)

    def _quantile(self, P, Z):
        return Z + self.sigma * _norm_quantile(P)


@dataclass(frozen=True)
class ExponentialRate(_ArrayFamily):
    """Exponential with rate zeta (zeta > 0), supported on [0, inf)."""

    name = "exponential-rate"
    zeta_lower = 0.0
    _zeta_label = "rate zeta"

    def _cdf(self, X, Z):
        return -np.expm1(-Z * np.maximum(X, 0.0))

    def _quantile(self, P, Z):
        with np.errstate(divide="ignore"):
            return -np.log1p(-P) / Z


@dataclass(frozen=True)
class UniformWidth(_ArrayFamily):
    """Uniform on the unit-width window [zeta, zeta + 1]."""

    name = "uniform-width"

    def _cdf(self, X, Z):
        return np.clip(X - Z, 0.0, 1.0)

    def _quantile(self, P, Z):
        return Z + P


@contextmanager
def utf8_errors(path):
    """Word a ``UnicodeDecodeError`` from reading ``path`` as a data error
    naming the file and the line of its first byte that is not UTF-8 (the
    decoder's own position is an offset in its current chunk).  A pipe has
    nothing left to read again, so its error names the byte but no line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            data = fh.read()
        where = ""
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as again:
            # The bad byte is no line break, so it ends the last line counted.
            exc, where = again, f" line {len(data[:again.start + 1].splitlines())}:"
        raise ValueError(f"{path}:{where} not valid UTF-8 "
                         f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def csv_records(path, header: tuple[str, ...]):
    """Yield ``(line, values)`` for each record of the CSV file ``path``
    after its header, which must be ``header`` up to spaces around each
    name; ``values`` are the record's finite floats, one per header name.

    Blank records are skipped.  Every fault is a ValueError naming the
    file, and the line of a bad record (that of its last line, for a
    record with a quoted line break).
    """
    with utf8_errors(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None or [c.strip() for c in first] != list(header):
                raise ValueError(f"{path}: expected header '{','.join(header)}', "
                                 f"got {first}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}: line {reader.line_num}: "
                                     f"expected {len(header)} fields")
                try:
                    values = list(map(float, row))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: non-numeric value"
                    ) from None
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"{path}: line {reader.line_num}: non-finite value")
                yield reader.line_num, values
        except csv.Error as exc:
            # Such as a field over csv.field_size_limit().
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _bracket(grid: np.ndarray, v: np.ndarray):
    """Cell of each v on a grid, clamped at both ends: j, for rows j - 1
    and j, and the weight of row j, NaN for a NaN v on every grid.  A
    one-point grid gives j = 0 and weight 0, so both rows are its one row."""
    if grid.size == 1:
        return np.zeros(v.shape, dtype=int), np.where(np.isnan(v), np.nan, 0.0)
    j = np.clip(np.searchsorted(grid, v, side="left"), 1, grid.size - 1)
    return j, np.clip((v - grid[j - 1]) / (grid[j] - grid[j - 1]), 0.0, 1.0)


class TabulatedFamily(_ArrayFamily):
    """Family given numerically on a (zeta, x) grid, bilinearly interpolated.

    Outside the grid both coordinates clamp to the nearest edge.  Rows
    must be non-decreasing in x with values in [0, 1]; this is checked
    at construction.  The quantile inverts the row interpolated at zeta:
    p at or below its first entry gives the first knot, p at or above its
    maximum the smallest knot reaching that maximum, p on a flat segment
    the segment's left knot.  A NaN x, p or zeta gives NaN on every grid.
    """

    name = "tabulated"

    def __init__(self, zeta_grid, x_knots, cdf_values) -> None:
        zg = np.asarray(zeta_grid, dtype=float)
        xk = np.asarray(x_knots, dtype=float)
        cv = np.asarray(cdf_values, dtype=float)
        if zg.ndim != 1 or zg.size < 1:
            raise ValueError("zeta grid must be a non-empty 1-d array")
        if xk.ndim != 1 or xk.size < 2:
            raise ValueError("x grid needs at least two knots")
        if np.any(np.diff(zg) <= 0.0) or np.any(np.diff(xk) <= 0.0):
            raise ValueError("grids must be strictly increasing")
        if cv.shape != (zg.size, xk.size):
            raise ValueError(
                f"cdf table shape {cv.shape} does not match grid "
                f"({zg.size}, {xk.size})"
            )
        if not np.all(np.isfinite(cv)):
            raise ValueError("cdf table must be finite")
        if np.any(cv < 0.0) or np.any(cv > 1.0):
            raise ValueError("cdf table values must lie in [0, 1]")
        if np.any(np.diff(cv, axis=1) < 0.0):
            bad = int(np.argwhere(np.diff(cv, axis=1) < 0.0)[0][0])
            raise ValueError(f"cdf row for zeta={zg[bad]} is not non-decreasing")
        self.zeta_grid = zg
        self.x_knots = xk
        self.cdf_values = cv

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TabulatedFamily):
            return NotImplemented
        return (np.array_equal(self.zeta_grid, other.zeta_grid)
                and np.array_equal(self.x_knots, other.x_knots)
                and np.array_equal(self.cdf_values, other.cdf_values))

    def __hash__(self) -> int:
        return hash((self.zeta_grid.tobytes(), self.x_knots.tobytes(),
                     self.cdf_values.tobytes()))

    @classmethod
    def from_csv(cls, path) -> "TabulatedFamily":
        """Load a table from CSV columns ``zeta,x,cdf``.

        Every (zeta, x) combination of the two grids must appear exactly
        once; row order is free.
        """
        entries: dict[tuple[float, float], float] = {}
        for line, (z, x, c) in csv_records(path, ("zeta", "x", "cdf")):
            if (z, x) in entries:
                raise ValueError(f"{path}: line {line}: duplicate point zeta={z}, x={x}")
            entries[(z, x)] = c
        if not entries:
            raise ValueError(f"{path}: table has no data rows")
        z, x = np.array(list(entries)).T
        zg, xk = np.unique(z), np.unique(x)
        if len(entries) != zg.size * xk.size:
            raise ValueError(
                f"{path}: incomplete grid, {len(entries)} points for a "
                f"{zg.size} x {xk.size} table"
            )
        cv = np.empty((zg.size, xk.size))
        cv[np.searchsorted(zg, z), np.searchsorted(xk, x)] = list(entries.values())
        return cls(zg, xk, cv)

    def _cdf(self, X, Z):
        j, t = _bracket(self.x_knots, X)
        k, w = _bracket(self.zeta_grid, Z)
        cv = self.cdf_values
        row_lo = cv[k - 1, j - 1] * (1.0 - t) + cv[k - 1, j] * t
        row_hi = cv[k, j - 1] * (1.0 - t) + cv[k, j] * t
        return row_lo * (1.0 - w) + row_hi * w

    def _quantile(self, P, Z):
        k, w = _bracket(self.zeta_grid, Z)
        cv, xk = self.cdf_values, self.x_knots

        def row(j):
            # Entry j of each value's interpolated cdf row, with the same
            # operations as forming the whole row.
            return (1.0 - w) * cv[k - 1, j] + w * cv[k, j]

        first, last = row(0), row(xk.size - 1)
        # Smallest knot a with row(a) >= min(p, last), by a search of fixed
        # rounds (rows are non-decreasing).  For first < p < last it gives
        # row(a - 1) < p <= row(a); the end rules replace every other value.
        target = np.where(P >= last, last, P)
        a = np.zeros(P.shape, dtype=int)
        width = xk.size
        while width > 1:
            half = width // 2
            a = np.where(row(a + half) < target, a + half, a)
            width -= half
        a += row(a) < target
        j = np.maximum(a, 1)
        r0, r1 = row(j - 1), row(j)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (P - r0) / (r1 - r0)
        out = np.where(P >= last, xk[a], xk[j - 1] + t * (xk[j] - xk[j - 1]))
        return np.where(P <= first, xk[0], out)


class ConstantFamily(_ArrayFamily):
    """Lift an unconditional CDF into the family interface.

    zeta's values are ignored (its shape is not), so the conditional test
    collapses to the classic one-sample test against ``cdf_fn``.
    """

    name = "constant"

    def __init__(self, cdf_fn: Callable[[float], float],
                 quantile_fn: Callable[[float], float] | None = None) -> None:
        self._cdf_fn = cdf_fn
        self._quantile_fn = quantile_fn

    def _cdf(self, X, Z):
        return _libm(self._cdf_fn, X)

    def _quantile(self, P, Z):
        if self._quantile_fn is None:
            raise ValueError("this constant family has no quantile function")
        return _libm(self._quantile_fn, P)


def _sorted_pit(xi: np.ndarray, zeta: np.ndarray,
               family: ConditionalCdfFamily) -> np.ndarray:
    """Y = F(xi | zeta), sorted along the last axis.

    The one transform step of the package: ``pit_transform`` runs it on a
    sample, ``run_replicates`` on blocks of replicates.  A ValueError names
    the first invalid zeta, or the first cdf value outside [0, 1], with its
    flat index.
    """
    family.validate_zetas(zeta)
    y = np.asarray(family.cdf(xi, zeta), dtype=float)
    s = np.sort(y, axis=-1)  # a copy: a user cdf may return a view of its input
    # NaN sorts last, so the ends of each sorted row catch every bad value.
    if not ((s[..., 0] >= 0.0).all() and (s[..., -1] <= 1.0).all()):
        idx = int(np.argmin((y >= 0.0) & (y <= 1.0)))
        raise ValueError(
            f"cdf value {float(y.flat[idx])} at index {idx} from family "
            f"'{family.name}' is outside [0, 1]"
        )
    return s


def pit_transform(pairs: Iterable, family: ConditionalCdfFamily) -> SortedUnitSample:
    """Map pairs (xi, zeta) to sorted Y = F(xi | zeta).

    ``pairs`` is an (n, 2) array whose columns are xi and zeta, or an
    iterable of (xi, zeta) tuples.  Under the conditional null the output
    is an ordered uniform sample, ready for ``ks_statistic_uniform``.
    Exact 0 or 1 values (possible for families with bounded support) are
    kept as-is.
    """
    if not isinstance(pairs, np.ndarray):
        pairs = np.asarray(list(pairs), dtype=float)
    if pairs.size == 0:
        raise ValueError("need at least one observation pair")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(
            f"a pair array must have shape (n, 2), got shape {pairs.shape}"
        )
    columns = pairs.astype(float, copy=False)
    xi, zeta = columns[:, 0], columns[:, 1]
    if not np.all(np.isfinite(xi)):
        bad = int(np.argwhere(~np.isfinite(xi))[0][0])
        raise ValueError(f"xi={xi[bad]} at index {bad} is not finite")
    return SortedUnitSample(_sorted_pit(xi, zeta, family))
