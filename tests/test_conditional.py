import math
import os
import random
import re
import sys

import mpmath
import numpy as np
import pytest

from condks import (
    ConditionalCdfFamily,
    ConstantFamily,
    ExponentialRate,
    NormalLocation,
    Scenario,
    TabulatedFamily,
    UniformSampler,
    UniformWidth,
    ks_statistic_uniform,
    p_value,
    pit_transform,
    replicate_rng,
    run_replicates,
)

ANALYTIC_FAMILIES = [
    NormalLocation(sigma=1.0),
    NormalLocation(sigma=0.5),
    ExponentialRate(),
    UniformWidth(),
]


def zeta_draw(family, rng, size):
    # keep zetas inside each family's domain
    if isinstance(family, ExponentialRate):
        return rng.uniform(0.2, 3.0, size)
    return rng.uniform(-2.0, 2.0, size)


def make_tabulated(nz: int = 61, nx: int = 401) -> TabulatedFamily:
    zg = np.linspace(-1.0, 2.0, nz)
    xk = np.linspace(-7.0, 10.0, nx)
    cv = NormalLocation(sigma=1.0).cdf(xk[None, :], zg[:, None])
    return TabulatedFamily(zg, xk, cv)


BUILT_IN_FAMILIES = ANALYTIC_FAMILIES + [
    make_tabulated(nz=7, nx=41),
    ConstantFamily(lambda x: 1.0 / (1.0 + math.exp(-x)),
                   lambda p: math.log(p / (1.0 - p))),
]


class ShiftedLogistic(ConditionalCdfFamily):
    """A custom family as README describes it: a direct subclass whose cdf
    and quantile evaluate whole arrays."""

    name = "shifted-logistic"

    def cdf(self, x, zeta):
        return 1.0 / (1.0 + np.exp(np.asarray(zeta) - np.asarray(x)))

    def quantile(self, p, zeta):
        p = np.asarray(p)
        return np.asarray(zeta) + np.log(p / (1.0 - p))


class TestNormalQuantile:
    def test_against_high_precision_oracle(self):
        with mpmath.workdps(50):
            for p in [1e-6, 1e-3, 0.02, 0.2425, 0.5, 0.8, 0.975, 0.999, 1 - 1e-6]:
                want = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
                got = NormalLocation(sigma=1.0).quantile(p, 0.0)
                assert got == pytest.approx(want, abs=1e-9)

    # The bounds the quantile's docstring states, per band of p.  The
    # upper bands lose accuracy to cancellation in the Halley step.
    _BANDS = {
        "lower": (1e-14, np.concatenate((
            10.0 ** np.linspace(-307.0, -1.0, 120),
            np.linspace(0.1, 0.5, 40, endpoint=False),
            [sys.float_info.min, 3.236280686832203e-252]))),
        "to 1 - 1e-8": (7.4e-10, 1.0 - 10.0 ** np.linspace(math.log10(0.5), -8.0, 120)),
        "to 1 - 1e-9": (2.3e-9, 1.0 - 10.0 ** np.linspace(-8.0, -9.0, 40)),
        "beyond": (8.4e-9, np.concatenate((
            1.0 - 10.0 ** np.linspace(-9.0, -15.9, 80),
            [1.0 - 2.8e-14, 1.0 - 2.0 ** -53]))),
    }

    @pytest.mark.parametrize("band", list(_BANDS))
    def test_stated_accuracy_bounds(self, band):
        bound, ps = self._BANDS[band]
        got = NormalLocation(sigma=1.0).quantile(ps, 0.0)
        worst = 0.0
        with mpmath.workdps(50):
            for x, p in zip(got.tolist(), ps.tolist()):
                # Newton on mpmath's cdf from x: the exact quantile of p
                # (it agrees with sqrt(2) * erfinv(2p - 1) at 80 digits).
                want = mpmath.mpf(x)
                for _ in range(3):
                    want -= (mpmath.ncdf(want) - p) / mpmath.npdf(want)
                worst = max(worst, abs(float(x - want)))
        assert worst <= bound, (band, worst)

    def test_cdf_quantile_round_trip(self):
        fam = NormalLocation(sigma=1.0)
        for p in np.linspace(0.001, 0.999, 200):
            assert fam.cdf(fam.quantile(float(p), 0.3), 0.3) == pytest.approx(
                float(p), abs=1e-9
            )

    def test_rejects_endpoint_arguments(self):
        with pytest.raises(ValueError):
            NormalLocation(sigma=1.0).quantile(0.0, 0.0)
        with pytest.raises(ValueError):
            NormalLocation(sigma=1.0).quantile(1.0, 0.0)

    @pytest.mark.parametrize("p", [1e-310, 1e-315, 5e-324])
    def test_rejects_subnormal_arguments(self, p):
        # below the smallest normal double the Halley step's exp(x^2/2)
        # used to overflow; now p is rejected as a ValueError naming it
        fam = NormalLocation(sigma=1.0)
        with pytest.raises(ValueError, match=f"argument {p!r} is below"):
            fam.quantile(p, 0.0)
        with pytest.raises(ValueError, match=f"argument {p!r} is below"):
            fam.quantile(np.array([0.5, p, 0.1]), 0.0)

    def test_smallest_normal_argument_is_accepted(self):
        x = NormalLocation(sigma=1.0).quantile(sys.float_info.min, 0.0)
        assert math.isfinite(x) and -38.0 < x < -37.0


# Scalar reference for the array-native normal family: Acklam's
# approximation and the Halley step written with ``math`` one value at a
# time, the operations in the order the package evaluates them.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)
_ACKLAM_P_LOW = 0.02425


def _scalar_norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _scalar_norm_quantile(p: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - _ACKLAM_P_LOW:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    e = _scalar_norm_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


class TestNormalMatchesScalarReference:
    def test_quantile_bits_over_all_branches(self):
        rng = np.random.default_rng(20031)
        p = np.concatenate([
            rng.uniform(0.0, _ACKLAM_P_LOW, 40_000),  # lower tail
            np.exp(rng.uniform(math.log(sys.float_info.min), math.log(_ACKLAM_P_LOW),
                               20_000)),  # lower tail, log-spread
            rng.uniform(_ACKLAM_P_LOW, 1.0 - _ACKLAM_P_LOW, 40_000),  # central
            1.0 - rng.uniform(0.0, _ACKLAM_P_LOW, 40_000),  # upper tail
            rng.random(20_000),  # what the replicate core feeds it
            [_ACKLAM_P_LOW, 1.0 - _ACKLAM_P_LOW, 2.0 ** -53, 1.0 - 2.0 ** -53,
             sys.float_info.min, 0.5],
        ])
        p = p[(p > 0.0) & (p < 1.0)]
        assert p.size > 100_000
        want = [_scalar_norm_quantile(v) for v in p.tolist()]
        got = NormalLocation(sigma=1.0).quantile(p, 0.0)
        assert _same_bits(got, want)
        # a 2-D block gives each element the bits it gets on its own
        block = p[: 300 * 50].reshape(300, 50)
        assert _same_bits(NormalLocation(sigma=1.0).quantile(block, 0.0),
                          np.reshape(want[: 300 * 50], (300, 50)))

    def test_cdf_bits_out_to_forty(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 100_001), [-40.0, 40.0, 0.0, -0.0]])
        want = [_scalar_norm_cdf(v) for v in x.tolist()]
        assert _same_bits(NormalLocation(sigma=1.0).cdf(x, 0.0), want)

    def test_location_and_scale_bits(self):
        rng = np.random.default_rng(7)
        fam = NormalLocation(sigma=1.7)
        p, zeta = rng.random(5_000), rng.uniform(-3.0, 3.0, 5_000)
        want_q = [z + 1.7 * _scalar_norm_quantile(v) for v, z in zip(p.tolist(), zeta.tolist())]
        assert _same_bits(fam.quantile(p, zeta), want_q)
        xi = rng.normal(size=5_000)
        want_c = [_scalar_norm_cdf((x - z) / 1.7) for x, z in zip(xi.tolist(), zeta.tolist())]
        assert _same_bits(fam.cdf(xi, zeta), want_c)

    def test_scalar_input_returns_plain_float(self):
        fam = NormalLocation(sigma=1.0)
        for got, want in ((fam.quantile(0.3, 0.2), 0.2 + _scalar_norm_quantile(0.3)),
                          (fam.cdf(0.3, 0.2), _scalar_norm_cdf(0.3 - 0.2))):
            assert type(got) is float
            assert got == want


class TestFamilyShapes:
    @pytest.mark.parametrize("family", ANALYTIC_FAMILIES)
    def test_cdf_in_unit_interval_and_monotone(self, family):
        rng = np.random.default_rng(42)
        for zeta in zeta_draw(family, rng, 5):
            xs = np.linspace(float(zeta) - 4.0, float(zeta) + 4.0, 400)
            vals = family.cdf(xs, float(zeta))
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("family", ANALYTIC_FAMILIES)
    def test_quantile_round_trip(self, family):
        rng = np.random.default_rng(43)
        zetas = zeta_draw(family, rng, 4)
        ps = np.linspace(0.01, 0.99, 50)
        for zeta in zetas:
            x = family.quantile(ps, float(zeta))
            back = family.cdf(x, float(zeta))
            assert np.max(np.abs(back - ps)) < 1e-9

    def test_scalar_in_scalar_out(self):
        for family in ANALYTIC_FAMILIES:
            v = family.cdf(0.7, 0.4)
            assert isinstance(v, float)

    def test_broadcasting(self):
        fam = NormalLocation(sigma=1.0)
        out = fam.cdf(np.zeros(4), np.array([-1.0, 0.0, 1.0, 2.0]))
        assert out.shape == (4,)
        assert np.all(np.diff(out) < 0.0)  # larger mean, smaller cdf at 0

    def test_normal_location_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                NormalLocation(sigma=sigma)

    def test_exponential_support(self):
        fam = ExponentialRate()
        assert fam.cdf(-0.5, 2.0) == 0.0
        assert fam.cdf(0.0, 2.0) == 0.0
        assert fam.quantile(0.0, 2.0) == 0.0

    def test_uniform_width_window(self):
        fam = UniformWidth()
        assert fam.cdf(-1.2, -1.2) == 0.0
        assert fam.cdf(-0.2, -1.2) == 1.0
        assert fam.cdf(-0.7, -1.2) == pytest.approx(0.5)
        assert fam.quantile(0.25, 2.0) == 2.25


class TestCallConvention:
    """Every built-in family takes scalars, lists and arrays of any shape
    in both cdf and quantile; two scalars give a Python float."""

    @pytest.mark.parametrize("family", BUILT_IN_FAMILIES, ids=lambda f: f.name)
    def test_scalars_give_a_float(self, family):
        for x, z in ((0.7, 0.4), (np.float64(0.7), np.float64(0.4)), (1, 1)):
            assert type(family.cdf(x, z)) is float
        assert type(family.quantile(0.3, 0.4)) is float
        assert type(family.quantile(np.float64(0.3), 1)) is float

    @pytest.mark.parametrize("family", BUILT_IN_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("shape", [(5,), (3, 4)])
    def test_arrays_keep_their_shape(self, family, shape):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.1, 1.5, shape)
        p = rng.uniform(0.05, 0.95, shape)
        z = rng.uniform(0.2, 1.5, shape)
        assert family.cdf(x, z).shape == shape
        assert family.quantile(p, z).shape == shape
        assert family.cdf(x, 0.5).shape == shape
        assert family.quantile(p, 0.5).shape == shape

    @pytest.mark.parametrize("family", BUILT_IN_FAMILIES, ids=lambda f: f.name)
    def test_lists_are_accepted(self, family):
        x, p, z = [0.2, 0.9, 1.4], [0.1, 0.5, 0.8], [0.5, 1.0, 1.25]
        assert np.array_equal(family.cdf(x, z), family.cdf(np.array(x), np.array(z)))
        assert np.array_equal(family.quantile(p, z),
                              family.quantile(np.array(p), np.array(z)))

    @pytest.mark.parametrize("family", BUILT_IN_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("x_shape, z_shape", [((), (3,)), ((3,), ()), ((2, 1), (3,))])
    def test_mixed_shapes_broadcast(self, family, x_shape, z_shape):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.1, 1.5, x_shape)
        p = rng.uniform(0.05, 0.95, x_shape)
        z = rng.uniform(0.2, 1.5, z_shape)
        shape = np.broadcast_shapes(x_shape, z_shape)
        cdf, quantile = family.cdf(x, z), family.quantile(p, z)
        assert cdf.shape == shape
        assert quantile.shape == shape
        # Each entry is the scalar call on its own pair.
        xb, pb, zb = np.broadcast_arrays(x, p, z)
        for i in np.ndindex(shape):
            assert cdf[i] == family.cdf(float(xb[i]), float(zb[i]))
            assert quantile[i] == family.quantile(float(pb[i]), float(zb[i]))

    def test_direct_subclass_runs_the_pipeline(self):
        family = ShiftedLogistic()
        sampler = UniformSampler(0.0, 1.0)
        rng = replicate_rng(3, 0)
        zetas = sampler.draw(rng, 20)
        xi = family.quantile(rng.random(20), zetas)
        sample = pit_transform(np.column_stack([xi, zetas]), family)
        assert sample.values.shape == (20,)
        assert np.all(np.diff(sample.values) >= 0.0)
        stats = run_replicates(Scenario(zeta_sampler=sampler, null_family=family,
                                        n=20, replicates=50, seed=3))
        assert stats.shape == (50,)
        assert np.all((stats > 0.0) & (stats <= 1.0))
        assert stats[0] == pytest.approx(ks_statistic_uniform(sample), abs=1e-12)


class TestZetaValidation:
    def test_exponential_rejects_nonpositive(self):
        fam = ExponentialRate()
        with pytest.raises(ValueError, match="index 1"):
            fam.validate_zetas([1.0, -2.0, 3.0])
        with pytest.raises(ValueError, match="zeta must be > 0"):
            fam.validate_zetas([0.0])

    @pytest.mark.parametrize("family", ANALYTIC_FAMILIES)
    def test_nonfinite_rejected_everywhere(self, family):
        with pytest.raises(ValueError, match="finite"):
            family.validate_zetas([0.5, math.inf])

    def test_lower_bound_is_the_domain(self):
        # A custom family narrows its domain by setting the bound alone.
        class ShiftedWindow(UniformWidth):
            zeta_lower = 1.5

        fam = ShiftedWindow()
        assert fam.zeta_error(1.6) is None
        assert fam.zeta_error(1.5) == "zeta must be > 1.5"
        assert fam.zeta_error(-math.inf) == "zeta must be finite"
        with pytest.raises(ValueError, match=re.escape(
                "zeta=1.5 at index 2 invalid for family 'uniform-width': "
                "zeta must be > 1.5")):
            fam.validate_zetas([2.0, 3.0, 1.5, 1.0])


class TestPitTransform:
    @pytest.mark.parametrize(
        "family", ANALYTIC_FAMILIES + [make_tabulated()],
        ids=lambda f: f.name + (f"-{f.sigma}" if hasattr(f, "sigma") else ""),
    )
    def test_null_data_is_uniform(self, family):
        # draw from the family itself, transform back, KS against uniform
        rng = np.random.default_rng(271828)
        size = 100_000
        if isinstance(family, TabulatedFamily):
            zetas = rng.uniform(-1.0, 2.0, size)
        else:
            zetas = zeta_draw(family, rng, size)
        xi = family.quantile(rng.random(size), zetas)
        sample = pit_transform(zip(xi, zetas), family)
        stat = ks_statistic_uniform(sample)
        assert p_value(stat, size, "auto") > 0.001

    def test_output_sorted_in_unit_interval(self):
        rng = np.random.default_rng(1)
        zetas = rng.uniform(-1, 1, 50)
        xi = rng.normal(size=50)
        s = pit_transform(zip(xi, zetas), NormalLocation(sigma=1.0))
        assert np.all(np.diff(s.values) >= 0.0)
        assert s.n == 50

    def test_exact_zero_and_one_retained(self):
        # window edges give Y exactly 0 and 1, which must survive
        pairs = [(2.0, 2.0), (4.0, 3.0), (3.1, 3.0)]
        s = pit_transform(pairs, UniformWidth())
        assert s.values[0] == 0.0
        assert s.values[-1] == 1.0

    def test_pairs_and_tuples_equivalent(self):
        pairs = np.array([[0.3, 0.1], [-0.5, 1.0]])
        tuples = [(0.3, 0.1), (-0.5, 1.0)]
        fam = NormalLocation(sigma=1.0)
        assert np.array_equal(pit_transform(pairs, fam).values,
                              pit_transform(tuples, fam).values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pit_transform([], NormalLocation(sigma=1.0))

    def test_nonfinite_xi_rejected(self):
        with pytest.raises(ValueError, match="xi"):
            pit_transform([(math.nan, 0.0)], NormalLocation(sigma=1.0))

    def test_domain_violation_carries_index(self):
        pairs = [(0.5, 1.0), (0.5, -1.0)]
        with pytest.raises(ValueError, match="index 1"):
            pit_transform(pairs, ExponentialRate())

    def test_cdf_outside_unit_interval_names_value_and_index(self):
        fam = ConstantFamily(lambda x: 2.0 * x)
        with pytest.raises(ValueError, match=re.escape(
                "cdf value 1.2 at index 2 from family 'constant' is outside [0, 1]")):
            pit_transform([(0.1, 0.0), (0.5, 0.0), (0.6, 0.0), (0.9, 0.0)], fam)


def bracket_one_reference(grid: np.ndarray, v: float) -> tuple[int, int, float]:
    """The grid cell of one value, clamped at both ends: its two rows and
    the weight of the upper one (a one-point grid: row 0 twice, weight 0).
    A NaN value gets weight NaN on every grid."""
    if grid.size == 1:
        return 0, 0, math.nan if math.isnan(v) else 0.0
    hi = min(max(int(np.searchsorted(grid, v, side="left")), 1), grid.size - 1)
    w = (v - grid[hi - 1]) / (grid[hi] - grid[hi - 1])
    return hi - 1, hi, float(np.clip(w, 0.0, 1.0))


def cdf_one_reference(fam: TabulatedFamily, x: float, zeta: float) -> float:
    """The scalar TabulatedFamily.cdf: interpolate in x on the two rows
    around zeta, then between them."""
    lo, hi, w = bracket_one_reference(fam.zeta_grid, zeta)
    left, right, t = bracket_one_reference(fam.x_knots, x)
    cv = fam.cdf_values
    below = cv[lo, left] * (1.0 - t) + cv[lo, right] * t
    above = cv[hi, left] * (1.0 - t) + cv[hi, right] * t
    return float(below * (1.0 - w) + above * w)


def quantile_one_reference(fam: TabulatedFamily, p: float, zeta: float) -> float:
    """The scalar TabulatedFamily.quantile: interpolate the whole cdf row
    at zeta, then search it for p."""
    lo, hi, w = bracket_one_reference(fam.zeta_grid, zeta)
    row = (1.0 - w) * fam.cdf_values[lo] + w * fam.cdf_values[hi]
    xk = fam.x_knots
    if p <= row[0]:
        return float(xk[0])
    if p >= row[-1]:
        return float(xk[np.searchsorted(row, row[-1], side="left")])
    j = int(np.searchsorted(row, p, side="left"))
    if row[j] == row[j - 1]:
        return float(xk[j - 1])
    t = (p - row[j - 1]) / (row[j] - row[j - 1])
    return float(xk[j - 1] + t * (xk[j] - xk[j - 1]))


class TestTabulatedFamily:
    def test_reproduces_analytic_source(self):
        tab = make_tabulated()
        ref = NormalLocation(sigma=1.0)
        xs = np.linspace(-6.0, 9.0, 201)
        zs = np.linspace(-1.0, 2.0, 41)
        X, Z = np.meshgrid(xs, zs)
        err = np.max(np.abs(tab.cdf(X, Z) - ref.cdf(X, Z)))
        assert err < 2e-4

    def test_refinement_halves_spacing_quarters_error(self):
        ref = NormalLocation(sigma=1.0)
        xs = np.linspace(-6.0, 9.0, 201)
        zs = np.linspace(-1.0, 2.0, 41)
        X, Z = np.meshgrid(xs, zs)

        def max_err(nz, nx):
            tab = make_tabulated(nz, nx)
            return float(np.max(np.abs(tab.cdf(X, Z) - ref.cdf(X, Z))))

        coarse = max_err(16, 101)
        fine = max_err(31, 201)
        # bilinear interpolation converges at second order
        assert fine < coarse / 2.5

    def test_quantile_inverts_cdf(self):
        tab = make_tabulated()
        for p in (0.01, 0.3, 0.5, 0.77, 0.99):
            for zeta in (-0.8, 0.0, 1.4):
                x = tab.quantile(p, zeta)
                assert tab.cdf(x, zeta) == pytest.approx(p, abs=1e-12)

    def test_quantile_flat_segment_returns_smallest_x(self):
        fam = TabulatedFamily([0.0], [0.0, 1.0, 2.0, 3.0],
                              [[0.0, 0.5, 0.5, 1.0]])
        assert fam.quantile(0.5, 0.0) == 1.0

    @pytest.mark.parametrize("nz", [1, 2, 61])
    def test_cdf_matches_scalar_reference(self, nz):
        tab = make_tabulated(nz, 401)
        rng = np.random.default_rng(nz)
        ends = [-np.inf, np.inf, np.nan, -0.0]
        # x and zeta inside, on and outside their grids
        x = np.concatenate([rng.uniform(-9.0, 12.0, 400), tab.x_knots, ends])
        zeta = np.concatenate([rng.uniform(-3.0, 4.0, 50), tab.zeta_grid, ends])
        X, Z = (a.ravel() for a in np.meshgrid(x, np.append(ends, rng.choice(zeta, 8))))
        X = np.concatenate([X, rng.choice(x, 3000)])
        Z = np.concatenate([Z, rng.choice(zeta, 3000)])
        got = tab.cdf(X, Z)
        want = np.array([cdf_one_reference(tab, a, b) for a, b in zip(X, Z)])
        assert got.shape == X.shape
        assert np.array_equal(got, want, equal_nan=True)
        c = tab.cdf(0.3, 0.5)
        assert type(c) is float and c == cdf_one_reference(tab, 0.3, 0.5)

    @pytest.mark.parametrize("nz, nx, rows", [
        pytest.param(1, 401, "rounded", id="1"),
        pytest.param(2, 401, "rounded", id="2"),
        pytest.param(61, 401, "rounded", id="61"),
        (1, 2, "rounded"), (7, 2, "rounded"), (1, 3, "rounded"), (7, 3, "rounded"),
        (1, 9, "steps"), (7, 9, "steps"),
    ])
    def test_quantile_matches_scalar_reference(self, nz, nx, rows):
        # Rows rounded to 3 digits have flat segments, and reach their
        # maximum (1.0) well before the last knot.  Step rows are all 0,
        # then all 1, with the step at a knot that moves from row to row.
        # nx = 2 and 3 take the knot search through one and two rounds.
        smooth = make_tabulated(nz, nx)
        if rows == "rounded":
            cv = np.round(smooth.cdf_values, 3)
        else:
            steps = np.arange(nz) % (nx - 1) + 1
            cv = (np.arange(nx)[None, :] >= steps[:, None]).astype(float)
        tab = TabulatedFamily(smooth.zeta_grid, smooth.x_knots, cv)
        rng = np.random.default_rng(nz)
        p = np.concatenate([rng.random(3000), np.unique(tab.cdf_values),
                            [0.0, 1.0, -0.5, 1.5, 1e-4, 1.0 - 1e-12]])
        # zetas inside, on and outside the grid
        zeta = rng.choice(np.concatenate([rng.uniform(-3.0, 4.0, 50), tab.zeta_grid]),
                          p.size)
        got = tab.quantile(p, zeta)
        want = np.array([quantile_one_reference(tab, a, b) for a, b in zip(p, zeta)])
        assert got.shape == p.shape
        assert np.array_equal(got, want)
        k = p.size // 2 * 2
        assert np.array_equal(tab.quantile(p[:k].reshape(2, -1), zeta[:k].reshape(2, -1)),
                              want[:k].reshape(2, -1))
        for a in (0.3, 0.0, 1.0):
            q = tab.quantile(a, 0.5)
            assert type(q) is float and q == quantile_one_reference(tab, a, 0.5)
        q = tab.quantile(float("nan"), 0.5)
        assert type(q) is float and math.isnan(q)

    def test_quantile_ends_of_the_row(self):
        fam = TabulatedFamily([0.0], [0.0, 1.0, 2.0, 3.0, 4.0],
                              [[0.2, 0.5, 0.5, 0.9, 0.9]])
        # at or below row[0]: the first knot; at or above the maximum: the
        # smallest knot reaching it; on a flat segment: its left knot
        assert list(fam.quantile([0.0, 0.2, 0.9, 1.0, 0.5, 0.7], 0.0)) == \
            [0.0, 0.0, 3.0, 3.0, 1.0, 2.5]
        # NaN stays NaN, even where the search ends on a flat segment
        assert math.isnan(fam.quantile(float("nan"), 0.0))

    @pytest.mark.parametrize("nz", [1, 2, 61])
    def test_nan_zeta_gives_nan_on_every_grid(self, nz):
        tab = make_tabulated(nz, 41)
        nan = float("nan")
        for value in (tab.cdf(0.5, nan), tab.quantile(0.5, nan),
                      tab.quantile(0.0, nan), tab.quantile(1.0, nan)):
            assert type(value) is float and math.isnan(value)
        # Only the NaN's own position is NaN; an infinite zeta still clamps.
        zeta = np.array([0.5, nan, -np.inf, np.inf])
        for method, arg in ((tab.cdf, 0.5), (tab.quantile, 0.3)):
            got = method(np.full(4, arg), zeta)
            assert np.isnan(got).tolist() == [False, True, False, False]
            assert got[2] == method(arg, tab.zeta_grid[0])
            assert got[3] == method(arg, tab.zeta_grid[-1])

    def test_clamps_outside_grids(self):
        tab = make_tabulated()
        assert tab.cdf(-100.0, 0.0) == tab.cdf(tab.x_knots[0], 0.0)
        assert tab.cdf(100.0, 0.0) == tab.cdf(tab.x_knots[-1], 0.0)
        # zeta clamps to the edge rows
        assert tab.cdf(0.5, -50.0) == tab.cdf(0.5, tab.zeta_grid[0])
        assert tab.cdf(0.5, 50.0) == tab.cdf(0.5, tab.zeta_grid[-1])

    def test_equality_by_contents(self):
        a = make_tabulated(11, 21)
        b = make_tabulated(11, 21)
        c = make_tabulated(11, 31)
        assert a == b
        assert a != c

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TabulatedFamily([0.0, 0.0], [0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="shape"):
            TabulatedFamily([0.0], [0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-decreasing"):
            TabulatedFamily([0.0], [0.0, 1.0, 2.0], [[0.0, 0.8, 0.5]])
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            TabulatedFamily([0.0], [0.0, 1.0], [[0.0, 1.4]])
        with pytest.raises(ValueError, match="zeta grid must be a non-empty"):
            TabulatedFamily([], [0.0, 1.0], np.empty((0, 2)))
        with pytest.raises(ValueError, match="at least two knots"):
            TabulatedFamily([0.0], [0.0], [[0.5]])
        with pytest.raises(ValueError, match="must be finite"):
            TabulatedFamily([0.0], [0.0, 1.0], [[0.0, np.nan]])

    def test_csv_round_trip(self, tmp_path):
        zg = [0.0, 1.0]
        xk = [0.0, 0.5, 1.0]
        cv = [[0.0, 0.4, 1.0], [0.1, 0.5, 0.9]]
        path = tmp_path / "table.csv"
        lines = ["zeta,x,cdf"]
        for i, z in enumerate(zg):
            for j, x in enumerate(xk):
                lines.append(f"{z},{x},{cv[i][j]}")
        path.write_text("\n".join(lines) + "\n")
        loaded = TabulatedFamily.from_csv(path)
        built = TabulatedFamily(zg, xk, cv)
        assert loaded == built
        assert hash(loaded) == hash(built)
        assert len({loaded, built}) == 1
        assert built != object() and built != (zg, xk, cv)

    def test_shuffled_rows_load_like_sorted_rows(self, tmp_path):
        # Row order is free: each point lands in its cell whatever its line.
        tab = make_tabulated(7, 13)
        lines = [f"{z!r},{x!r},{c!r}" for z, row in zip(tab.zeta_grid.tolist(),
                                                      tab.cdf_values.tolist())
                 for x, c in zip(tab.x_knots.tolist(), row)]
        loaded = []
        for order in (lines, random.Random(5).sample(lines, len(lines))):
            path = tmp_path / "grid.csv"
            path.write_text("zeta,x,cdf\n" + "\n".join(order) + "\n")
            loaded.append(TabulatedFamily.from_csv(path))
        assert loaded[0] == loaded[1] == tab

    def test_csv_errors(self, tmp_path):
        def load(text):
            p = tmp_path / "bad.csv"
            p.write_text(text)
            return TabulatedFamily.from_csv(p)

        with pytest.raises(ValueError, match="header"):
            load("a,b,c\n0,0,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load("zeta,x,cdf\n0,oops,0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            load("zeta,x,cdf\n0,0,0.1\n0,0,0.2\n")  # duplicate point
        with pytest.raises(ValueError, match="incomplete"):
            load("zeta,x,cdf\n0,0,0.1\n0,1,0.9\n1,0,0.2\n")
        with pytest.raises(ValueError, match="no data"):
            load("zeta,x,cdf\n")
        with pytest.raises(ValueError, match="line 3: expected 3 fields"):
            load("zeta,x,cdf\n\n0,0\n")  # the blank line 2 is skipped
        with pytest.raises(ValueError, match="line 2: non-finite value"):
            load("zeta,x,cdf\n0,0,nan\n")
        bad = tmp_path / "bytes.csv"
        bad.write_bytes(b"zeta,x,cdf\n0,0,0.1\n0,1\xff,0.9\n")
        with pytest.raises(ValueError, match=r"line 3: not valid UTF-8 \(byte 0xff"):
            TabulatedFamily.from_csv(bad)
        # A field over csv.field_size_limit(), in a row and in the header.
        with pytest.raises(ValueError, match=r"line 3: field larger than field limit \("):
            load("zeta,x,cdf\n0,0,0.1\n" + "x" * 200_000 + ",1,0.9\n")
        with pytest.raises(ValueError, match=r"line 1: field larger than field limit \("):
            load("x" * 200_000 + ",x,cdf\n0,0,0.1\n")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_piped_byte_that_is_not_utf8_is_named_without_a_line(self):
        # A pipe cannot be read again to find the line, so the error names
        # the pipe and the byte, where the decoder's own named neither.
        read_end, write_end = os.pipe()
        os.write(write_end, b"zeta,x,cdf\n0,0,0.1\n0,1\xff,0.9\n")
        os.close(write_end)
        try:
            with pytest.raises(ValueError) as caught:
                TabulatedFamily.from_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert str(caught.value) == (f"/dev/fd/{read_end}: not valid UTF-8 "
                                     "(byte 0xff: invalid start byte)")


class TestConstantFamily:
    def test_ignores_zeta(self):
        fam = ConstantFamily(lambda x: 1.0 / (1.0 + math.exp(-x)))
        assert fam.cdf(0.4, -5.0) == fam.cdf(0.4, 17.0)

    def test_quantile_optional(self):
        fam = ConstantFamily(lambda x: x)
        with pytest.raises(ValueError, match="quantile"):
            fam.quantile(0.5, 0.0)

    def test_callable_gets_python_floats(self):
        seen = []
        fam = ConstantFamily(lambda x: seen.append(x) or 0.5)
        assert np.array_equal(fam.cdf(np.array([[0.25, -1.0]]), 0.0), [[0.5, 0.5]])
        assert seen == [0.25, -1.0]
        assert all(type(x) is float for x in seen)

    def test_with_quantile(self):
        fam = ConstantFamily(lambda x: 1.0 / (1.0 + math.exp(-x)),
                             lambda p: math.log(p / (1.0 - p)))
        assert fam.cdf(fam.quantile(0.73, 0.0), 99.0) == pytest.approx(0.73, abs=1e-12)
