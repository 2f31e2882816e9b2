"""Statistics over measurement intervals: means, CIs, relative error.

The estimators are the standard SMARTS/CLT machinery: each measurement
interval contributes one observation per metric; the run's estimate of a
metric is the sample mean across intervals, and its confidence interval
is ``mean +/- z * s / sqrt(n)`` with ``s`` the sample standard deviation
and ``z`` the two-sided normal quantile for the configured confidence.
Everything here is pure arithmetic over plain sequences - no simulator
imports - so the estimators are unit-testable in isolation.

A single interval has no variance estimate; its CI is reported as
degenerate (zero half-width) rather than undefined so downstream
consumers always see a well-formed ``(lo, hi)`` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, List, Sequence, Tuple

#: Metrics summarised per interval by default (superset of the result
#: set's DEFAULT_METRICS so reports can annotate every headline row).
SAMPLE_METRICS: Tuple[str, ...] = (
    "mean_ipc", "mpki", "wpki", "write_blp", "time_writing_pct",
    "mean_w2w_ns",
)


def z_value(confidence: float) -> float:
    """Two-sided standard-normal quantile for ``confidence`` in (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    return sum(values) / len(values) if values else 0.0


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (ddof=1); 0.0 for fewer than 2 values."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def half_width(values: Sequence[float],
               confidence: float = 0.95) -> float:
    """CLT confidence-interval half-width: ``z * s / sqrt(n)``."""
    n = len(values)
    if n < 2:
        return 0.0
    return z_value(confidence) * stdev(values) / math.sqrt(n)


def mean_ci(values: Sequence[float],
            confidence: float = 0.95) -> Tuple[float, float, float]:
    """``(mean, lo, hi)`` for the sample mean at the given confidence."""
    m = mean(values)
    hw = half_width(values, confidence)
    return m, m - hw, m + hw


def relative_error(values: Sequence[float],
                   confidence: float = 0.95) -> float:
    """CI half-width over ``|mean|`` (the SMARTS stopping criterion).

    Returns ``inf`` when the mean is zero but the spread is not, and
    0.0 for a constant (or single-value) sample.
    """
    m = mean(values)
    hw = half_width(values, confidence)
    if hw == 0.0:
        return 0.0
    if m == 0.0:
        return math.inf
    return hw / abs(m)


@dataclass
class MetricEstimate:
    """One metric's estimate across the measurement intervals."""

    mean: float
    stdev: float
    ci_lo: float
    ci_hi: float
    #: CI half-width over ``|mean|`` (0.0 for a constant sample).
    rel_error: float
    #: Number of intervals behind this estimate.
    n: int

    @property
    def half_width(self) -> float:
        return (self.ci_hi - self.ci_lo) / 2.0


def estimate(values: Sequence[float],
             confidence: float = 0.95) -> MetricEstimate:
    """Summarise one metric's per-interval values."""
    m, lo, hi = mean_ci(values, confidence)
    rel = relative_error(values, confidence)
    return MetricEstimate(
        mean=m, stdev=stdev(values), ci_lo=lo, ci_hi=hi,
        rel_error=rel if math.isfinite(rel) else 0.0,
        n=len(values),
    )


def summarize(values_by_metric: Dict[str, Sequence[float]],
              confidence: float = 0.95) -> Dict[str, MetricEstimate]:
    """Per-metric :class:`MetricEstimate` for every metric's value list."""
    return {name: estimate(vals, confidence)
            for name, vals in values_by_metric.items()}


@dataclass
class SamplingSummary:
    """How a sampled run was measured, and what it estimated.

    Carried on :class:`~repro.sim.results.RunResult` (``None`` for full
    runs) and serialised with it into the result cache, so cached sampled
    results keep their confidence intervals.
    """

    intervals: int
    interval_instructions: int
    period_instructions: int
    warm_instructions: int
    confidence: float
    #: Per-core instruction offsets (relative to the end of warmup) at
    #: which each measurement interval started.
    starts: List[int] = field(default_factory=list)
    metrics: Dict[str, MetricEstimate] = field(default_factory=dict)

    def estimate(self, metric: str) -> MetricEstimate:
        """The named metric's estimate; raises a listing error if absent."""
        est = self.metrics.get(metric)
        if est is None:
            raise ValueError(
                f"no sampled estimate for metric {metric!r}; sampled "
                f"metrics are: {', '.join(sorted(self.metrics))}")
        return est

    def ci(self, metric: str) -> Tuple[float, float]:
        """The named metric's ``(lo, hi)`` confidence interval."""
        est = self.estimate(metric)
        return est.ci_lo, est.ci_hi
