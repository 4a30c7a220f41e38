"""Goodness-of-fit toolkit for plain and covariate-conditioned samples.

The core move: if each observation xi_i came from a known conditional
law F(. | zeta_i), then Y_i = F(xi_i | zeta_i) is i.i.d. uniform under
the null regardless of the zetas, so one Kolmogorov-Smirnov table
serves every conditioning structure.  The package provides the exact
finite-n and asymptotic null distributions, the tests themselves, and
a seeded Monte-Carlo harness for calibration and power work.
"""

from .conditional import (
    ConditionalCdfFamily,
    ConstantFamily,
    ExponentialRate,
    NormalLocation,
    TabulatedFamily,
    UniformWidth,
    pit_transform,
)
from .empirical import (
    SortedUnitSample,
    ks_statistic_uniform,
)
from .kolmogorov import (
    AUTO_EXACT_LIMIT,
    asymptotic_cdf,
    asymptotic_critical_value,
    critical_value,
    exact_cdf,
    p_value,
)
from .monte_carlo import (
    GaussianMixtureSampler,
    PointMassSampler,
    PowerEstimate,
    Scenario,
    UniformSampler,
    meta_test,
    power_estimate,
    replicate_rng,
    run_replicates,
)
from .specs import load_scenario, parse_family_spec, parse_sampler_spec
from .testing import TestReport, classic_ks_test, conditional_ks_test

__version__ = "0.1.0"

__all__ = [
    "AUTO_EXACT_LIMIT",
    "ConditionalCdfFamily",
    "ConstantFamily",
    "ExponentialRate",
    "GaussianMixtureSampler",
    "NormalLocation",
    "PointMassSampler",
    "PowerEstimate",
    "Scenario",
    "SortedUnitSample",
    "TabulatedFamily",
    "TestReport",
    "UniformSampler",
    "UniformWidth",
    "asymptotic_cdf",
    "asymptotic_critical_value",
    "classic_ks_test",
    "conditional_ks_test",
    "critical_value",
    "exact_cdf",
    "ks_statistic_uniform",
    "load_scenario",
    "meta_test",
    "p_value",
    "parse_family_spec",
    "parse_sampler_spec",
    "pit_transform",
    "power_estimate",
    "replicate_rng",
    "run_replicates",
    "__version__",
]
