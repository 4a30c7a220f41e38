"""Acceptance gate: nine numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print.  Criterion 3 checks the convergence of the exact law
of sqrt(n) * D_n to its limit K at the rate the mathematics gives: by the
Pelz-Good (1976) expansion, P(sqrt(n) D_n <= x) = K(x) + K'(x)/(6 sqrt(n))
+ O(1/n), so the sup gap is about (max K'/6)/sqrt(n) (0.2775/sqrt(n) on the
grid, 0.027 at n = 100).  The criterion asserts that the gap shrinks over
n = 10, 50, 100, 1000, that it is below 0.01 at n = 1000, and that the
residual left after the first-order term is O(1/n).
"""

import json

import mpmath
import numpy as np
from click.testing import CliRunner

from condks import (
    ConstantFamily,
    ExponentialRate,
    GaussianMixtureSampler,
    NormalLocation,
    PointMassSampler,
    Scenario,
    UniformSampler,
    UniformWidth,
    asymptotic_cdf,
    classic_ks_test,
    conditional_ks_test,
    critical_value,
    exact_cdf,
    ks_statistic_uniform,
    meta_test,
    p_value,
    power_estimate,
    run_replicates,
)
from condks.cli import main as cli_main


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


GRID_X = [round(0.1 * i, 10) for i in range(1, 31)]


def series_oracle(x: float, terms: int = 50) -> float:
    """Independent high-precision partial sum of the limiting series."""
    with mpmath.workdps(60):
        s = mpmath.mpf(0)
        for k in range(1, terms + 1):
            s += (-1) ** (k - 1) * mpmath.exp(-2 * k * k * mpmath.mpf(x) ** 2)
        return float(1 - 2 * s)


def series_derivative_oracle(x: float, terms: int = 50) -> float:
    """K'(x) = 8x * sum_{k>=1} (-1)^(k-1) k^2 exp(-2 k^2 x^2), in mpmath."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        s = mpmath.mpf(0)
        for k in range(1, terms + 1):
            s += (-1) ** (k - 1) * k * k * mpmath.exp(-2 * k * k * x ** 2)
        return float(8 * x * s)


def test_criterion_1_asymptotic_series():
    worst = max(abs(asymptotic_cdf(x) - series_oracle(x)) for x in GRID_X)
    verdict(1, worst < 1e-10,
            f"asymptotic series vs 50-term oracle, max err {worst:.2e} (< 1e-10)")


def test_criterion_2_exact_finite_n():
    grid1 = np.linspace(0.5, 1.0, 100)
    err1 = max(abs(exact_cdf(1, float(d)) - (2.0 * float(d) - 1.0)) for d in grid1)

    rng = np.random.default_rng(271_828_182)
    err_mc = 0.0
    for n, grid in ((5, np.linspace(0.2, 0.62, 10)),
                    (20, np.linspace(0.12, 0.34, 10))):
        u = np.sort(rng.random((1_000_000, n)), axis=1)
        i = np.arange(1, n + 1)
        stats = np.maximum(i / n - u, u - (i - 1) / n).max(axis=1)
        del u
        for d in grid:
            freq = float(np.mean(stats <= d))
            err_mc = max(err_mc, abs(exact_cdf(n, float(d)) - freq))

    ok = err1 < 1e-12 and err_mc < 0.002
    verdict(2, ok,
            f"n=1 closed form err {err1:.2e} (< 1e-12); "
            f"MC vs exact at n=5,20 max err {err_mc:.2e} (< 0.002)")


def test_criterion_3_asymptotic_convergence():
    ns = (10, 50, 100, 1000)
    k_prime = [series_derivative_oracle(x) for x in GRID_X]
    sups, residuals = [], []
    for n in ns:
        root_n = np.sqrt(n)
        gaps = [exact_cdf(n, x / root_n) - asymptotic_cdf(x) for x in GRID_X]
        sups.append(max(abs(g) for g in gaps))
        residuals.append(max(abs(g - kp / (6 * root_n))
                             for g, kp in zip(gaps, k_prime)))
    monotone = all(a >= b for a, b in zip(sups, sups[1:]))
    below = sups[-1] < 0.01
    first_order = all(r <= 0.15 / n for r, n in zip(residuals, ns))
    rows = "; ".join(
        f"n={n}: sup {s:.4f} (sqrt(n)*sup {np.sqrt(n) * s:.4f}), "
        f"n*residual {n * r:.4f}"
        for n, s, r in zip(ns, sups, residuals))
    verdict(3, monotone and below and first_order,
            f"{rows}; sup non-increasing={monotone}, "
            f"sup < 0.01 at n=1000 is {below}, "
            f"|exact - K - K'/(6 sqrt(n))| <= 0.15/n at all n is {first_order}")


def _samplers_for(family_name: str) -> dict:
    positive_mix = GaussianMixtureSampler(
        components=((0.4, 2.0, 0.25), (0.6, 6.0, 1.0)))
    wide_mix = GaussianMixtureSampler(
        components=((0.5, -1.0, 1.0), (0.5, 3.0, 0.5)))
    return {
        "point-mass": PointMassSampler(1.0),
        "uniform(0,1)": UniformSampler(0.0, 1.0),
        "2-comp mixture": positive_mix if family_name == "exponential"
        else wide_mix,
    }


def test_criterion_4_conditional_calibration():
    families = {
        "normal": NormalLocation(sigma=1.0),
        "exponential": ExponentialRate(),
        "uniform-width": UniformWidth(),
    }
    seed = 20_000
    failures = []
    for fname, family in families.items():
        for sname, sampler in _samplers_for(fname).items():
            seed += 1
            scenario = Scenario(zeta_sampler=sampler, null_family=family,
                                n=20, replicates=10_000, seed=seed)
            stats = run_replicates(scenario)
            meta = meta_test(stats, 20, alpha=0.01)
            ps = np.sort([p_value(float(s), 20, "auto") for s in stats])
            p_unif = p_value(ks_statistic_uniform(ps), ps.size, "auto")
            if meta.reject or p_unif <= 0.001:
                failures.append(f"{fname} x {sname} "
                                f"(meta p={meta.p_value:.4f}, unif p={p_unif:.4f})")
    verdict(4, not failures,
            "9 family x sampler combos, 1e4 replicates at n=20: "
            + ("all pass meta-test (alpha=0.01) and p-value uniformity "
               "(alpha=0.001)" if not failures else "; ".join(failures)))


def test_criterion_5_reduction_identity():
    rng = np.random.default_rng(5_551_212)
    logistic_cdf = lambda x: 1.0 / (1.0 + np.exp(-x))
    family = ConstantFamily(logistic_cdf)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 200))
        xs = rng.normal(0.0, 2.0, n)
        zetas = rng.uniform(-5.0, 5.0, n)
        cond = conditional_ks_test(zip(xs, zetas), family)
        classic = classic_ks_test(xs, logistic_cdf)
        if cond.statistic != classic.statistic:
            mismatches += 1
    verdict(5, mismatches == 0,
            f"conditional vs classic statistic under a constant family: "
            f"{mismatches}/100 datasets differ (bit-for-bit equality required)")


def test_criterion_6_statistic_exactness():
    rng = np.random.default_rng(424_242)
    grid = np.linspace(0.0, 1.0, 100_000)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        u = np.sort(rng.random(n))
        candidates = np.concatenate([grid, u])
        right = np.searchsorted(u, candidates, side="right") / n
        left = np.searchsorted(u, candidates, side="left") / n
        brute = float(np.maximum(np.abs(right - candidates),
                                 np.abs(left - candidates)).max())
        worst = max(worst, abs(ks_statistic_uniform(u) - brute))
    verdict(6, worst < 1e-12,
            f"order-statistic formula vs grid+breakpoint brute force, "
            f"max err {worst:.2e} (< 1e-12)")


def test_criterion_7_inversion_round_trip():
    worst_low, worst_high = 0.0, 0.0
    ok = True
    for n in (1, 5, 20, 100):
        for alpha in (0.2, 0.1, 0.05, 0.01):
            c = exact_cdf(n, critical_value(n, alpha))
            lo, hi = 1.0 - alpha, 1.0 - alpha + 1e-8
            ok = ok and lo <= c <= hi
            worst_low = max(worst_low, lo - c)
            worst_high = max(worst_high, c - hi)
    verdict(7, ok,
            f"exact_cdf(n, critical_value(n, a)) within [1-a, 1-a+1e-8] "
            f"for n in {{1,5,20,100}}, a in {{0.2,0.1,0.05,0.01}} "
            f"(worst overshoot {max(worst_low, worst_high):.2e})")


# Regression anchors from the first verified run (seeds below).
POWER_ANCHORS = {25: 0.5208, 50: 0.8508, 100: 0.9962, 200: 1.0}


def test_criterion_8_power_sanity():
    rates = {}
    for n in (25, 50, 100, 200):
        scenario = Scenario(
            zeta_sampler=UniformSampler(0.0, 1.0),
            null_family=NormalLocation(sigma=1.0),
            data_family=NormalLocation(sigma=2.0),
            n=n, replicates=10_000, seed=88_000 + n,
        )
        rates[n] = power_estimate(scenario, alpha=0.05).rejection_rate
    vals = [rates[n] for n in (25, 50, 100, 200)]
    monotone = all(a <= b for a, b in zip(vals, vals[1:]))
    anchored = all(rates[n] == POWER_ANCHORS[n] for n in rates)
    ok = rates[100] > 0.5 and monotone and anchored
    verdict(8, ok,
            f"power at n=25,50,100,200: "
            f"{vals[0]:.4f}, {vals[1]:.4f}, {vals[2]:.4f}, {vals[3]:.4f}; "
            f"rate(100) > 0.5 and non-decreasing, matches frozen anchors "
            f"{anchored}")


def test_criterion_9_simulate_determinism(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "zeta_sampler = uniform:a=0,b=1\n"
        "null_family = normal-location:sigma=1\n"
        "n = 25\n"
        "replicates = 200\n"
        "seed = 1305\n"
    )
    runner = CliRunner()
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        res = runner.invoke(cli_main, ["simulate", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(((out / "statistics.csv").read_bytes(),
                     (out / "summary.json").read_bytes()))
    identical = outs[0] == outs[1]
    verdict(9, identical,
            "two runs of the same scenario produce byte-identical "
            "statistics.csv and summary.json")
