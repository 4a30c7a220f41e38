"""Working memory of the reader, the transform and the statistic, and the
bits they keep.

``cli._read_pairs`` hands the file's path to numpy's C reader, which
reads the text in blocks; a pipe or a file with a compressor's suffix is
copied to a temporary file first.
``conditional._libm`` maps its scalar function over fixed chunks of the
array, ``ks_statistic_rows`` reuses one buffer for both differences, and
the checks on the sample and on the zetas make one boolean pass each.
numpy reports its array allocations to tracemalloc, so the peaks below
count every float array a call makes.
"""

import math
import tracemalloc

import numpy as np
import pytest

from condks import (
    ConstantFamily,
    NormalLocation,
    SortedUnitSample,
    ks_statistic_uniform,
    pit_transform,
)
from condks.cli import _read_pairs
from condks.conditional import _LIBM_CHUNK, _libm
from condks.empirical import ks_statistic_rows

N = 100_000
ARRAY = N * 8  # bytes of one float array the size of the sample


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ks_statistic_rows_reference(u: np.ndarray) -> np.ndarray:
    """The statistic with an int64 index, the reference for the one-buffer version."""
    n = u.shape[-1]
    i = np.arange(1, n + 1)
    return np.maximum((i / n - u).max(axis=-1), (u - (i - 1) / n).max(axis=-1))


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestWorkingMemory:
    def test_libm_holds_one_chunk_beside_its_output(self):
        x = np.random.default_rng(1).standard_normal(N)
        assert traced_peak(lambda: _libm(math.erfc, x)) <= ARRAY + 500_000

    def test_libm_on_one_chunk_makes_one_array(self):
        # A 163 x 50 replicate block: its 8150 values as Python floats
        # (32 bytes each) and one output array, 324 kB; the copy of the
        # chunk into a second output array added 65 kB.
        block = np.random.default_rng(1).standard_normal((163, 50))
        assert block.size <= _LIBM_CHUNK
        assert traced_peak(lambda: _libm(math.erfc, block)) <= block.size * (32 + 8) + 2_000

    def test_statistic_holds_about_two_arrays(self):
        u = np.sort(np.random.default_rng(2).random(N))
        assert traced_peak(lambda: ks_statistic_rows(u)) <= 2.1 * ARRAY

    def test_transform_and_statistic_stay_below_four_arrays(self):
        rng = np.random.default_rng(3)
        zeta = rng.uniform(-1.0, 1.0, N)
        pairs = np.column_stack((zeta + rng.standard_normal(N), zeta))
        family = NormalLocation(sigma=1.0)
        peak = traced_peak(lambda: ks_statistic_uniform(pit_transform(pairs, family)))
        assert peak < 4 * ARRAY

    def test_sorted_sample_check_holds_one_boolean_array(self):
        # The finite, range and order checks made 0.90 MB of masks and diffs.
        u = np.sort(np.random.default_rng(7).random(N))
        assert traced_peak(lambda: SortedUnitSample(u)) <= 150_000

    def test_reader_holds_little_beside_its_result(self, tmp_path):
        # The result is 1.60 MB; the 3.9 MB text read into one str would
        # be more than twice that.  The .xz name is copied to a spool on
        # disk first, block by block.
        rng = np.random.default_rng(9)
        data = tmp_path / "rows.csv"
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("xi,zeta\n")
            fh.writelines(f"{x!r},{z!r}\n" for x, z in
                          zip(rng.standard_normal(N).tolist(), rng.random(N).tolist()))
        named_xz = tmp_path / "rows.csv.xz"
        named_xz.write_bytes(data.read_bytes())
        for path in (data, named_xz):
            assert traced_peak(lambda: _read_pairs(str(path))) <= 2 * ARRAY + 500_000

    def test_zeta_check_does_not_copy_the_column(self):
        # The strided column was copied, then masked four times: 1.10 MB.
        pairs = np.random.default_rng(8).standard_normal((N, 2))
        family = NormalLocation(sigma=1.0)
        assert traced_peak(lambda: family.validate_zetas(pairs[:, 1])) <= 250_000


SIZES = [0, 1, _LIBM_CHUNK - 1, _LIBM_CHUNK, _LIBM_CHUNK + 1, 3 * _LIBM_CHUNK + 5]


def libm_reference(fn, a: np.ndarray) -> np.ndarray:
    return np.array(list(map(fn, a.ravel().tolist())), dtype=float).reshape(a.shape)


class TestLibmBits:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("shape", ["flat", "row", "column"])
    def test_matches_one_map_over_the_whole_array(self, size, shape):
        x = np.random.default_rng(size).standard_normal(size) * 4.0
        x[:3] = [-0.0, np.inf, np.nan][:size]
        a = {"flat": x, "row": x.reshape(1, -1), "column": x.reshape(-1, 1)}[shape]
        for fn in (math.erfc, math.exp, math.atan):
            assert same_bits(_libm(fn, a), libm_reference(fn, a))

    def test_two_d_view_goes_in_c_order(self):
        # 3 * 8192 + 5 = 47 * 523 values, transposed so the view is not
        # contiguous and spans four chunks.
        a = np.random.default_rng(4).random((523, 47)).T
        assert same_bits(_libm(math.log1p, a), libm_reference(math.log1p, a))

    @pytest.mark.parametrize("size", SIZES)
    def test_constant_family_callable_sees_every_value_once_in_order(self, size):
        calls = []

        def record(v):
            calls.append(v)
            return 1.0 / (1.0 + math.exp(-v))

        x = np.random.default_rng(size).standard_normal(size).reshape(-1, 1)
        y = ConstantFamily(record).cdf(x, np.zeros_like(x))
        assert calls == x.ravel().tolist()
        assert all(type(v) is float for v in calls)
        want = np.array([1.0 / (1.0 + math.exp(-v)) for v in calls]).reshape(x.shape)
        assert same_bits(np.asarray(y), want)


class TestStatisticBits:
    def test_replicate_blocks(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = np.sort(rng.random((163, 50)), axis=-1)
            assert same_bits(ks_statistic_rows(u), ks_statistic_rows_reference(u))

    def test_one_large_sample(self):
        u = np.sort(np.random.default_rng(6).random(N))
        assert same_bits(ks_statistic_rows(u), ks_statistic_rows_reference(u))

    @pytest.mark.parametrize("u", [
        [0.0],
        [1.0],
        [0.0, 1.0],
        [0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.1, 0.3, 0.3, 0.7, 1.0],
    ])
    def test_ties_and_endpoints(self, u):
        u = np.array(u)
        assert same_bits(ks_statistic_rows(u), ks_statistic_rows_reference(u))
        block = np.tile(u, (3, 1))
        assert same_bits(ks_statistic_rows(block), ks_statistic_rows_reference(block))

    @pytest.mark.parametrize("n", [3, 7, 49, 163, 1001])
    def test_sizes_whose_steps_round(self, n):
        # k/n rounds for these n, and must round as an int64 k over n does.
        u = np.sort(np.random.default_rng(n).random((40, n)), axis=-1)
        assert same_bits(ks_statistic_rows(u), ks_statistic_rows_reference(u))
