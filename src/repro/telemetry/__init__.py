"""The measurement plane: metrics, phase tracing, structured logs.

Three submodules, one import surface:

* :mod:`~repro.telemetry.registry` - dependency-free counters, gauges,
  and histograms with labels, rendered in the Prometheus text format.
* :mod:`~repro.telemetry.tracing` - nestable phase spans exported as
  Chrome trace-event JSON (Perfetto-loadable).
* :mod:`~repro.telemetry.logs` - the ``repro.*`` logging hierarchy and
  JSON-lines formatter.

The module-level helpers here (:func:`counter`, :func:`gauge`,
:func:`histogram`, :func:`span`) are the *gated* hot-path API: with
telemetry disabled (the default) they return shared no-op singletons -
no allocation, no locking - so golden stats stay bit-identical and the
simulation core pays one boolean check.  Enable with
``REPRO_TELEMETRY=1`` in the environment or :func:`enable` in-process.

Operational service code (queue, workers, HTTP API) bypasses the gate
and talks to :data:`REGISTRY` directly: those metrics are always live
so ``/v1/metrics`` has something to serve on a default ``repro serve``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, Optional, Sequence

from .logs import JsonLinesFormatter, configure_logging, get_logger
from .registry import (DEFAULT_BUCKETS, DEFAULT_MAX_SERIES, NOOP,
                       REGISTRY, TELEMETRY_ENV, GaugeFamily,
                       HistogramFamily, MetricFamily, MetricsRegistry,
                       disable, enable, enabled)
from .tracing import TRACER, Span, Tracer, phase_key

__all__ = [
    "TELEMETRY_ENV", "enabled", "enable", "disable",
    "REGISTRY", "MetricsRegistry", "MetricFamily", "GaugeFamily",
    "HistogramFamily", "NOOP", "DEFAULT_BUCKETS", "DEFAULT_MAX_SERIES",
    "TRACER", "Tracer", "Span", "phase_key", "span", "get_tracer",
    "counter", "gauge", "histogram", "publish_run_result",
    "registry_value",
    "configure_logging", "get_logger", "JsonLinesFormatter",
]

#: One reusable null context manager shared by every disabled span
#: call site - ``span(...)`` when telemetry is off allocates nothing.
_NULL_SPAN = nullcontext()


def get_tracer() -> Tracer:
    """The process-wide tracer (always available, even when disabled)."""
    return TRACER


def registry_value(name: str, **labels: str) -> float:
    """One series' current value from :data:`REGISTRY`, 0.0 when absent.

    The read-side convenience for always-on operational families
    (``repro_adaptive_*``, queue/worker counters): tests reconciling
    report totals against counter deltas want "the number, or zero if
    nothing incremented it yet" without reimplementing the
    family-missing check.
    """
    family = REGISTRY.get(name)
    return family.value(**labels) if family is not None else 0.0


def span(name: str, category: str = "run",
         breakdown: Optional[Dict[str, float]] = None,
         **args: Any):
    """A phase-span context manager, or a shared no-op when disabled.

    The disabled return value is one module-level ``nullcontext`` - the
    zero-allocation fast path the hot loop relies on.
    """
    if not enabled():
        return _NULL_SPAN
    return TRACER.span(name, category, breakdown=breakdown, **args)


def counter(name: str, help: str = "",
            labelnames: Sequence[str] = ()):
    """A counter family, or :data:`NOOP` when telemetry is disabled."""
    if not enabled():
        return NOOP
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "",
          labelnames: Sequence[str] = ()):
    """A gauge family, or :data:`NOOP` when telemetry is disabled."""
    if not enabled():
        return NOOP
    return REGISTRY.gauge(name, help, labelnames)


def histogram(name: str, help: str = "",
              labelnames: Sequence[str] = (),
              buckets: Sequence[float] = DEFAULT_BUCKETS):
    """A histogram family, or :data:`NOOP` when telemetry is disabled."""
    if not enabled():
        return NOOP
    return REGISTRY.histogram(name, help, labelnames, buckets=buckets)


def publish_run_result(result: Any, workload: str = "",
                       policy: str = "") -> None:
    """Fold one finished run's counters into the registry.

    The engine is deliberately *not* instrumented per-event (the
    disabled-overhead gate forbids it); instead the aggregate counts a
    run already collects - events fired, LLC hits/misses, DRAM
    reads/writes - are published once at the phase boundary.  No-op
    when telemetry is disabled.
    """
    if not enabled():
        return
    labels = {"workload": workload, "policy": policy}
    runs = REGISTRY.counter(
        "repro_runs_total", "Simulation runs completed",
        ("workload", "policy"))
    runs.labels(**labels).inc()
    for metric, attr in (
            ("repro_run_events_total", "events"),
            ("repro_run_instructions_total", "instructions"),
            ("repro_run_ticks_total", "elapsed_ticks")):
        value = getattr(result, attr, None)
        if value:
            family = REGISTRY.counter(
                metric, f"Aggregate {attr} across runs",
                ("workload", "policy"))
            family.labels(**labels).inc(float(value))
    llc = getattr(result, "llc", None)
    if llc is not None:
        for metric, attr in (("repro_llc_hits_total", "hits"),
                             ("repro_llc_misses_total", "misses")):
            value = getattr(llc, attr, 0)
            if value:
                family = REGISTRY.counter(
                    metric, f"Aggregate LLC {attr} across runs",
                    ("workload", "policy"))
                family.labels(**labels).inc(float(value))
    breakdown = getattr(result, "phase_breakdown", None)
    if breakdown:
        phases = REGISTRY.counter(
            "repro_phase_seconds_total",
            "Wall-clock seconds spent per run phase", ("phase",))
        for phase, seconds in breakdown.items():
            phases.labels(phase=phase).inc(seconds)
