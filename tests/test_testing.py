import json
import math
import re

import numpy as np
import pytest

from condks import (
    ConstantFamily,
    NormalLocation,
    classic_ks_test,
    conditional_ks_test,
    critical_value,
    ks_statistic_uniform,
)
from condks import TestReport as Report  # a Test* name pytest would collect


def null_pairs(rng, n, sigma=1.0):
    zetas = rng.uniform(-2.0, 2.0, n)
    xi = NormalLocation(sigma=sigma).quantile(rng.random(n), zetas)
    return list(zip(xi, zetas))


class TestReportShape:
    def test_fields_and_json(self):
        rng = np.random.default_rng(77)
        report = conditional_ks_test(null_pairs(rng, 30), NormalLocation(sigma=1.0))
        d = json.loads(report.to_json())
        assert d == report.to_dict()
        assert set(d) == {"test_kind", "n", "statistic", "p_value", "mode",
                          "alpha", "reject"}
        assert d["test_kind"] == "conditional"
        assert d["n"] == 30
        assert d["mode"] == "exact"  # auto resolved, never "auto"
        assert isinstance(d["reject"], bool)
        assert d["reject"] == (d["p_value"] < d["alpha"])

    def test_json_bytes(self):
        # The key order is the field order; reports and summary.json keep it.
        report = Report("classic", 12, 0.25, 0.5, "exact", 0.05, False)
        assert report.to_json() == (
            '{"test_kind": "classic", "n": 12, "statistic": 0.25, "p_value": 0.5, '
            '"mode": "exact", "alpha": 0.05, "reject": false}'
        )

    def test_statistic_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 80))
            r = conditional_ks_test(null_pairs(rng, n), NormalLocation(sigma=1.0))
            assert 1.0 / (2.0 * n) <= r.statistic <= 1.0

    def test_mode_resolution(self):
        rng = np.random.default_rng(4)
        pairs = null_pairs(rng, 200)
        fam = NormalLocation(sigma=1.0)
        assert conditional_ks_test(pairs, fam, mode="auto").mode == "asymptotic"
        assert conditional_ks_test(pairs, fam, mode="exact").mode == "exact"
        small = conditional_ks_test(pairs[:50], fam, mode="auto")
        assert small.mode == "exact"


class TestConditionalKsTest:
    def test_null_data_passes(self):
        rng = np.random.default_rng(2025)
        report = conditional_ks_test(null_pairs(rng, 300), NormalLocation(sigma=1.0))
        assert not report.reject
        assert report.p_value > 0.05

    def test_wrong_scale_rejected(self):
        rng = np.random.default_rng(2026)
        pairs = null_pairs(rng, 400, sigma=2.0)
        report = conditional_ks_test(pairs, NormalLocation(sigma=1.0))
        assert report.reject
        assert report.p_value < 1e-4

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(11)
        pairs = null_pairs(rng, 60)
        fam = NormalLocation(sigma=1.0)
        alphas = (0.001, 0.01, 0.05, 0.2, 0.5)
        reports = [conditional_ks_test(pairs, fam, alpha=a) for a in alphas]
        # same data, same p; rejection can only switch on as alpha grows
        assert len({r.p_value for r in reports}) == 1
        flags = [r.reject for r in reports]
        assert flags == sorted(flags)

    def test_reject_matches_critical_value(self):
        rng = np.random.default_rng(31)
        fam = NormalLocation(sigma=1.0)
        for _ in range(25):
            n = int(rng.integers(5, 90))
            sigma = float(rng.choice([1.0, 1.6]))
            pairs = null_pairs(rng, n, sigma=sigma)
            r = conditional_ks_test(pairs, fam, alpha=0.05, mode="exact")
            crit = critical_value(n, 0.05)
            if abs(r.statistic - crit) > 1e-8:
                assert r.reject == (r.statistic > crit)

    def test_alpha_validation(self):
        rng = np.random.default_rng(0)
        pairs = null_pairs(rng, 10)
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                conditional_ks_test(pairs, NormalLocation(sigma=1.0), alpha=bad)


class TestPairArrayInput:
    def test_column_array_matches_zipped_pairs(self):
        rng = np.random.default_rng(31)
        zetas = rng.uniform(-2.0, 2.0, 400)
        xis = NormalLocation(sigma=1.0).quantile(rng.random(400), zetas)
        fam = NormalLocation(sigma=1.0)
        assert (conditional_ks_test(np.column_stack((xis, zetas)), fam)
                == conditional_ks_test(zip(xis, zetas), fam))

    @pytest.mark.parametrize("shape", [(5, 3), (10,), (3, 2, 2)])
    def test_other_shapes_rejected_by_name(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            conditional_ks_test(np.zeros(shape), NormalLocation(sigma=1.0))

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError, match="need at least one observation pair"):
            conditional_ks_test(np.empty((0, 2)), NormalLocation(sigma=1.0))


class TestClassicKsTest:
    def test_uniform_data_against_identity(self):
        rng = np.random.default_rng(55)
        xs = rng.random(200)
        report = classic_ks_test(xs, lambda x: min(1.0, max(0.0, x)))
        assert report.test_kind == "classic"
        assert report.statistic == ks_statistic_uniform(np.sort(xs))
        assert not report.reject

    def test_shifted_data_rejected(self):
        rng = np.random.default_rng(56)
        xs = rng.normal(0.8, 1.0, 300)
        cdf = NormalLocation(sigma=1.0)
        report = classic_ks_test(xs, lambda x: cdf.cdf(x, 0.0))
        assert report.reject

    def test_reduction_identity_bit_for_bit(self):
        rng = np.random.default_rng(314)
        logistic = ConstantFamily(lambda x: 1.0 / (1.0 + math.exp(-x)))
        for _ in range(10):
            n = int(rng.integers(1, 120))
            xs = rng.normal(0.0, 2.0, n)
            zetas = rng.uniform(-5.0, 5.0, n)
            cond = conditional_ks_test(zip(xs, zetas), logistic)
            classic = classic_ks_test(xs, lambda x: 1.0 / (1.0 + math.exp(-x)))
            assert cond.statistic == classic.statistic
            assert cond.p_value == classic.p_value

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classic_ks_test([], lambda x: 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="not finite"):
            classic_ks_test([0.5, np.inf], lambda x: 0.5)

    def test_identity_reduction(self):
        # a strictly increasing constant-free map changes nothing
        rng = np.random.default_rng(99)
        u = rng.random(40)
        direct = ks_statistic_uniform(np.sort(u))
        assert classic_ks_test(u, lambda x: x).statistic == direct

    def test_monotone_map_invariance(self):
        # push data and reference through G(x) = x^2 on the unit interval
        rng = np.random.default_rng(1234)
        xs = rng.random(60)
        base = classic_ks_test(xs, lambda x: x).statistic
        squared = classic_ks_test(xs ** 2, lambda t: float(np.sqrt(t))).statistic
        assert squared == pytest.approx(base, abs=1e-12)

    def test_rejects_cdf_output_outside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            classic_ks_test([0.5], lambda x: 1.2)
