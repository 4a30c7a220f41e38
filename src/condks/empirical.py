"""Empirical CDFs and the one-sample KS statistic.

The supremum distance between an ECDF and a continuous reference is
attained at a jump of the ECDF, so for sorted values u_(1) <= ... <= u_(n)
in the unit interval

    D_n = max_i max(i/n - u_(i), u_(i) - (i - 1)/n),

which we use directly instead of scanning a grid.  D_n always lies in
[1/(2n), 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np


@dataclass(frozen=True)
class SortedUnitSample:
    """Non-empty sorted array of values in [0, 1].

    Construct directly from already-sorted data, or via ``from_unsorted``
    which sorts once at ingestion.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample values must be finite")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("sample values must lie in [0, 1]")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("sample values must be sorted ascending")
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_unsorted(cls, values: Iterable[float]) -> "SortedUnitSample":
        arr = np.sort(np.asarray(list(values), dtype=float))
        return cls(arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


def ecdf_eval(sample: Iterable[float], x: float) -> float:
    """Fraction of sample values <= x (right-continuous step function)."""
    arr = np.asarray(list(sample), dtype=float)
    if arr.size == 0:
        raise ValueError("sample must be non-empty")
    return float(np.count_nonzero(arr <= x)) / arr.size


def ks_statistic_uniform(sample: SortedUnitSample | Iterable[float]) -> float:
    """Sup distance between the sample's ECDF and the uniform CDF on [0, 1].

    Accepts a SortedUnitSample or raw values, which must already be
    sorted and inside the unit interval (use
    ``SortedUnitSample.from_unsorted`` to sort first).
    """
    if not isinstance(sample, SortedUnitSample):
        sample = SortedUnitSample(np.asarray(list(sample), dtype=float))
    return float(ks_statistic_rows(sample.values))


def ks_statistic_rows(u: np.ndarray) -> np.ndarray:
    """``ks_statistic_uniform`` of each row of an array whose rows are
    sorted samples in [0, 1] (unchecked); a 1-d array gives a 0-d result."""
    n = u.shape[-1]
    i = np.arange(1, n + 1)
    return np.maximum((i / n - u).max(axis=-1), (u - (i - 1) / n).max(axis=-1))


def ks_statistic_cdf(xs: Iterable[float], cdf: Callable[[float], float]) -> float:
    """Classic one-sample KS statistic against a reference CDF.

    Maps each observation through ``cdf`` and reduces to the uniform
    case; for continuous references the two statistics are equal.
    """
    arr = np.asarray(list(xs), dtype=float)
    if arr.size == 0:
        raise ValueError("sample must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample values must be finite")
    mapped = np.empty(arr.size, dtype=float)
    for idx, x in enumerate(arr):
        u = float(cdf(x))
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"cdf returned {u} at x={x}, outside [0, 1]")
        mapped[idx] = u
    return ks_statistic_uniform(SortedUnitSample(np.sort(mapped)))
