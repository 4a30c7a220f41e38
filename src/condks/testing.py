"""Hypothesis tests wrapping the statistic and its null distribution.

Both entry points produce a TestReport: the conditional test transforms
(xi, zeta) pairs through their family's CDF and compares the result to
the uniform law, the classic test compares raw observations to a fixed
reference CDF.  Since the conditional statistic is the classic statistic
of the transformed values, both share one reporting path and one
critical-value table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from .conditional import ConditionalCdfFamily, pit_transform
from .empirical import ks_statistic_cdf, ks_statistic_uniform
from .kolmogorov import _resolve_mode, p_value


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test, in the shape the CLI prints as JSON.

    ``mode`` is the resolved evaluation mode ("exact" or "asymptotic"),
    never "auto"; ``reject`` is exactly ``p_value < alpha``.
    """

    test_kind: str
    n: int
    statistic: float
    p_value: float
    mode: str
    alpha: float
    reject: bool

    def to_dict(self) -> dict:
        return {
            "test_kind": self.test_kind,
            "n": self.n,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "mode": self.mode,
            "alpha": self.alpha,
            "reject": self.reject,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _build_report(kind: str, n: int, statistic: float, alpha: float,
                  mode: str) -> TestReport:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    resolved = _resolve_mode(mode, n)
    p = float(p_value(statistic, n, resolved))
    return TestReport(
        test_kind=kind,
        n=int(n),
        statistic=float(statistic),
        p_value=p,
        mode=resolved,
        alpha=float(alpha),
        reject=bool(p < alpha),
    )


def conditional_ks_test(pairs: Iterable, family: ConditionalCdfFamily,
                        alpha: float = 0.05, mode: str = "auto") -> TestReport:
    """Test whether each xi follows its conditional law F(. | zeta).

    ``pairs`` takes any input ``pit_transform`` does, including an (n, 2)
    array of xi and zeta columns.
    """
    sample = pit_transform(pairs, family)
    statistic = ks_statistic_uniform(sample)
    return _build_report("conditional", sample.n, statistic, alpha, mode)


def classic_ks_test(xs: Iterable[float], cdf: Callable[[float], float],
                    alpha: float = 0.05, mode: str = "auto") -> TestReport:
    """One-sample KS test of xs against the continuous reference cdf."""
    xs = list(xs)
    statistic = ks_statistic_cdf(xs, cdf)
    return _build_report("classic", len(xs), statistic, alpha, mode)
