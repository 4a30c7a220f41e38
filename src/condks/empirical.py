"""Sorted unit samples and the one-sample KS statistic.

The supremum distance between an ECDF and a continuous reference is
attained at a jump of the ECDF, so for sorted values u_(1) <= ... <= u_(n)
in the unit interval

    D_n = max_i max(i/n - u_(i), u_(i) - (i - 1)/n),

which we use directly instead of scanning a grid.  D_n always lies in
[1/(2n), 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class SortedUnitSample:
    """Non-empty sorted array of values in [0, 1], checked in one pass:
    ascending neighbours bound every value by the two ends, and a NaN fails
    a neighbour comparison, or both end comparisons when it is alone."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a non-empty 1-d array")
        if not (arr[0] >= 0.0 and arr[-1] <= 1.0 and (arr[:-1] <= arr[1:]).all()):
            raise ValueError("sample values must be sorted ascending in [0, 1]")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


def ks_statistic_uniform(sample: SortedUnitSample | Iterable[float]) -> float:
    """Sup distance between the sample's ECDF and the uniform CDF on [0, 1].

    Accepts a SortedUnitSample or raw values, which must already be
    sorted and inside the unit interval.
    """
    if not isinstance(sample, SortedUnitSample):
        sample = SortedUnitSample(np.asarray(list(sample), dtype=float))
    return float(ks_statistic_rows(sample.values))


def ks_statistic_rows(u: np.ndarray) -> np.ndarray:
    """``ks_statistic_uniform`` of each row of an array whose rows are
    sorted samples in [0, 1] (unchecked); a 1-d array gives a 0-d result.
    It holds the n + 1 steps k/n and one buffer the size of ``u``, reused
    for i/n - u_(i) and u_(i) - (i - 1)/n."""
    n = u.shape[-1]
    steps = np.arange(0.0, n + 1.0) / n
    gap = np.subtract(steps[1:], u)
    above = gap.max(axis=-1)
    return np.maximum(above, np.subtract(u, steps[:-1], out=gap).max(axis=-1))

