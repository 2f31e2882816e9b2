"""Sampled simulation: interval sampling with confidence intervals.

SMARTS-style statistical sampling for the simulator (see
``docs/sampling.md``): a run measures short detailed intervals spread
over the instruction epoch and fast-forwards between them with the
functional engine, reporting per-metric means with CLT confidence
intervals instead of one monolithic measurement::

    from repro import SamplingConfig, Session, small_8core

    cfg = small_8core().with_warmup_mode("functional").with_sampling(
        SamplingConfig(intervals=10, interval_instructions=1_000))
    rs = Session().run_one(cfg, "lbm")
    print(rs.mean_ipc, rs.sampling.ci("mean_ipc"))

The pieces:

* :class:`~repro.sampling.config.SamplingConfig` - the plan (interval
  count and length, warming budgets; the intervals tile the epoch at
  a fixed period, reported at a fixed 95% confidence level);
  plugs into :class:`~repro.config.system.SystemConfig` and is part of
  every run's content hash.
* :mod:`repro.sampling.stats` - means, confidence intervals, relative
  error, and the :class:`~repro.sampling.stats.SamplingSummary` attached
  to sampled :class:`~repro.sim.results.RunResult` objects.
* :mod:`repro.sampling.runner` - interval placement and aggregation of
  per-interval snapshots into the whole-run result.
"""

from repro.sampling.config import CONFIDENCE, SamplingConfig
from repro.sampling.runner import aggregate_results, collect_metric_values, \
    interval_starts, validate_plan
from repro.sampling.stats import SAMPLE_METRICS, MetricEstimate, \
    SamplingSummary, estimate, half_width, mean_ci, relative_error, \
    summarize, z_value

__all__ = [
    "CONFIDENCE",
    "SAMPLE_METRICS",
    "MetricEstimate",
    "SamplingConfig",
    "SamplingSummary",
    "aggregate_results",
    "collect_metric_values",
    "estimate",
    "half_width",
    "interval_starts",
    "mean_ci",
    "relative_error",
    "summarize",
    "validate_plan",
    "z_value",
]
