"""The one-pass checks of the transform accept and name what the
whole-array checks they replace did.

``SortedUnitSample`` checks its neighbour pairs and its two ends,
``validate_zetas`` one boolean mask, and ``_sorted_pit`` the ends of each
sorted row.  The ``reference_*`` functions below are the earlier checks.
"""

import itertools
import math

import numpy as np
import pytest

from condks import ConstantFamily, ExponentialRate, NormalLocation, SortedUnitSample
from condks.conditional import _sorted_pit

SPECIAL = [math.nan, -math.inf, math.inf, -0.0, 0.0, 1.0,
           np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0), 0.3, 0.7]


def reference_accepts(values) -> bool:
    """Finite, inside [0, 1] and sorted, as three whole-array checks."""
    arr = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(arr))
                and not (np.any(arr < 0.0) or np.any(arr > 1.0))
                and not np.any(np.diff(arr) < 0.0))


def accepts(values) -> bool:
    try:
        SortedUnitSample(np.asarray(values, dtype=float))
    except ValueError:
        return False
    return True


def reference_zeta_message(family, zetas) -> str:
    arr = np.asarray(zetas, dtype=float).ravel()
    idx = int(np.flatnonzero(~(np.isfinite(arr) & (arr > family.zeta_lower)))[0])
    z = float(arr[idx])
    return (f"zeta={z} at index {idx} invalid for family "
            f"'{family.name}': {family.zeta_error(z)}")


def reference_cdf_message(family, y) -> str:
    y = np.asarray(y, dtype=float)
    idx = int(np.flatnonzero(~((y >= 0.0) & (y <= 1.0)))[0])
    return (f"cdf value {float(y.flat[idx])} at index {idx} from family "
            f"'{family.name}' is outside [0, 1]")


class TestSortedUnitSampleAcceptSet:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_every_sample_of_special_values(self, length):
        for values in itertools.product(SPECIAL, repeat=length):
            assert accepts(values) == reference_accepts(values), values

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf,
                                     np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)])
    def test_one_bad_value_at_each_position(self, bad):
        base = np.linspace(0.0, 1.0, 9)
        for pos in range(base.size):
            values = base.copy()
            values[pos] = bad
            assert not accepts(values) and not reference_accepts(values), (bad, pos)

    def test_one_unsorted_pair_at_each_position(self):
        base = np.linspace(0.0, 1.0, 9)
        for pos in range(base.size - 1):
            values = base.copy()
            values[[pos, pos + 1]] = values[[pos + 1, pos]]
            assert not accepts(values) and not reference_accepts(values), pos

    @pytest.mark.parametrize("values", [[0.5, 0.2], [math.nan], [-0.1, 0.5], [0.5, math.inf]])
    def test_one_message(self, values):
        with pytest.raises(ValueError, match=r"^sample values must be sorted ascending in \[0, 1\]$"):
            SortedUnitSample(np.array(values))


ROWS, COLS = 4, 7
POSITIONS = [(1, 0), (1, COLS // 2), (1, COLS - 1)]


def with_bad(block: np.ndarray, bad: float, positions) -> np.ndarray:
    block = block.copy()
    for row, col in positions:
        block[row, col] = bad
    return block


class TestSameIndex:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    @pytest.mark.parametrize("pos", POSITIONS)
    def test_zeta_block(self, bad, pos):
        family = ExponentialRate()
        zetas = with_bad(np.random.default_rng(1).uniform(0.5, 2.0, (ROWS, COLS)),
                         bad, [pos, (2, 0), (3, COLS - 1)])
        with pytest.raises(ValueError) as caught:
            family.validate_zetas(zetas)
        assert str(caught.value) == reference_zeta_message(family, zetas)

    @pytest.mark.parametrize("pos", [0, 3, 9])
    def test_zeta_column_of_pairs(self, pos):
        family = NormalLocation(sigma=1.0)
        pairs = np.random.default_rng(2).standard_normal((10, 2))
        pairs[pos, 1] = -math.inf
        with pytest.raises(ValueError) as caught:
            family.validate_zetas(pairs[:, 1])
        assert str(caught.value) == reference_zeta_message(family, pairs[:, 1])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf,
                                     np.nextafter(0.0, -1.0), 1.5])
    @pytest.mark.parametrize("pos", POSITIONS)
    def test_cdf_block(self, bad, pos):
        # The identity cdf passes each bad value through unchanged.
        family = ConstantFamily(lambda v: v)
        xi = with_bad(np.random.default_rng(3).random((ROWS, COLS)),
                      bad, [pos, (2, 0), (3, COLS - 1)])
        with pytest.raises(ValueError) as caught:
            _sorted_pit(xi, np.zeros_like(xi), family)
        assert str(caught.value) == reference_cdf_message(family, xi)

    def test_cdf_rows_in_range_are_sorted(self):
        family = ConstantFamily(lambda v: v)
        xi = np.random.default_rng(4).random((ROWS, COLS))
        xi[0, 0], xi[2, -1] = 0.0, 1.0
        assert np.array_equal(_sorted_pit(xi, np.zeros_like(xi), family),
                              np.sort(xi, axis=-1))
