"""Dependency-free metrics registry: counters, gauges, histograms.

The measurement plane's data model is deliberately small: a *metric
family* has a name, a help string, and a fixed tuple of label names;
``family.labels(tenant="alice")`` resolves one *series* (a child) that
carries the actual value.  Everything is guarded by one lock per family,
so concurrent increments from worker shards, HTTP handler threads, and
the dispatcher never lose updates.

Two cost regimes coexist:

* **Hot-path instrumentation** (the engine tick loop, Session execution,
  span recording) goes through the module-level helpers in
  :mod:`repro.telemetry` which check :func:`enabled` first and return
  the shared :data:`NOOP` singleton when telemetry is off - no
  allocation, no locking, one dict lookup and one attribute call.
* **Operational metrics** (queue transitions, HTTP requests, store
  hits) talk to :data:`REGISTRY` directly and are always on: they are
  amortised over network calls or job lifetimes where a lock acquire is
  noise, and they are what ``/v1/metrics`` serves.

Label cardinality is bounded per family (``max_series``): past the
bound, new label combinations collapse into a single ``overflow="true"``
series instead of growing without limit - a runaway label (say, a run
key used as a label value) degrades gracefully and observably rather
than eating the process.

Rendering follows the Prometheus text exposition format, version
0.0.4 - the subset every scraper parses: ``# HELP``/``# TYPE`` headers,
``name{label="value"} 1.23`` samples, histogram ``_bucket``/``_sum``/
``_count`` series with a ``+Inf`` bucket.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Environment switch: set to a non-empty value (other than "0") to
#: enable hot-path telemetry at import time.  Inherited by forked
#: worker processes, which is how service shards pick the flag up.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Series cap per metric family; excess label sets collapse into one
#: overflow series (see module docstring).
DEFAULT_MAX_SERIES = 256

#: Default histogram bucket upper bounds (seconds-flavoured: spans and
#: queue ages are the histograms this codebase records).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)

_enabled = os.environ.get(TELEMETRY_ENV, "") not in ("", "0")


def enabled() -> bool:
    """Whether hot-path telemetry is on (module-level flag check)."""
    return _enabled


def enable() -> None:
    """Turn hot-path telemetry on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn hot-path telemetry off (operational metrics stay live)."""
    global _enabled
    _enabled = False


class _Noop:
    """Shared do-nothing instrument: the disabled-mode fast path.

    Every method accepts the enabled-mode signature and returns
    immediately; ``labels`` returns the same singleton so chained call
    sites (``counter(...).labels(...).inc()``) stay allocation-free.
    """

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def labels(self, **labels: str) -> "_Noop":
        return self


#: The one no-op instrument every disabled call site shares.
NOOP = _Noop()


def _escape_label(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Series:
    """One labelled child of a counter or gauge family."""

    __slots__ = ("_family", "value")

    def __init__(self, family: "MetricFamily") -> None:
        self._family = family
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self.value -= amount

    def set(self, value: float) -> None:
        with self._family._lock:
            self.value = float(value)


class _HistogramSeries:
    """One labelled child of a histogram family."""

    __slots__ = ("_family", "counts", "sum", "count")

    def __init__(self, family: "HistogramFamily") -> None:
        self._family = family
        self.counts = [0] * (len(family.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._family.buckets, value)
        with self._family._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class MetricFamily:
    """A named metric with a fixed label schema and many series."""

    kind = "counter"
    _series_cls: type = _Series

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 max_series: int = DEFAULT_MAX_SERIES) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.max_series = max(1, int(max_series))
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        #: Label sets that collapsed into the overflow series.
        self.dropped_series = 0

    # -- series resolution --------------------------------------------

    def labels(self, **labels: str) -> Any:
        """The series for one label combination (created on first use).

        Unknown or missing label names raise ``ValueError`` - a schema
        typo should fail loudly in tests, not silently mint a series.
        """
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labels)}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        return self._child(key)

    def _child(self, key: Tuple[str, ...]) -> Any:
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= self.max_series and \
                        key != self._overflow_key():
                    self.dropped_series += 1
                    key = self._overflow_key()
                    child = self._children.get(key)
                    if child is not None:
                        return child
                child = self._series_cls(self)
                self._children[key] = child
            return child

    def _overflow_key(self) -> Tuple[str, ...]:
        return tuple("overflow" for _ in self.labelnames) or ()

    def _default(self) -> Any:
        """The unlabelled series (families declared without labels)."""
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels "
                f"{list(self.labelnames)}; use .labels(...)")
        return self._child(())

    # -- unlabelled conveniences --------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    # -- introspection -------------------------------------------------

    def series(self) -> Dict[Tuple[str, ...], Any]:
        with self._lock:
            return dict(self._children)

    def value(self, **labels: str) -> float:
        """Current value of one series (0 if it never existed)."""
        key = tuple(str(labels.get(name, "")) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
        return child.value if child is not None else 0.0

    def _render_series(self, key: Tuple[str, ...], child: Any,
                       out: List[str]) -> None:
        out.append(f"{self.name}{self._labelset(key)} "
                   f"{_format_value(child.value)}")

    def _labelset(self, key: Tuple[str, ...],
                  extra: str = "") -> str:
        pairs = [f'{name}="{_escape_label(value)}"'
                 for name, value in zip(self.labelnames, key)]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def render(self) -> List[str]:
        """Text-exposition lines for this family (HELP/TYPE + samples)."""
        out = [f"# HELP {self.name} {self.help or self.name}",
               f"# TYPE {self.name} {self.kind}"]
        for key, child in sorted(self.series().items()):
            self._render_series(key, child, out)
        return out


class GaugeFamily(MetricFamily):
    kind = "gauge"


class HistogramFamily(MetricFamily):
    kind = "histogram"
    _series_cls = _HistogramSeries

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 max_series: int = DEFAULT_MAX_SERIES) -> None:
        super().__init__(name, help, labelnames, max_series)
        self.buckets = tuple(sorted(buckets))

    def _render_series(self, key: Tuple[str, ...],
                       child: _HistogramSeries, out: List[str]) -> None:
        with self._lock:
            counts = list(child.counts)
            total = child.count
            cumulative_sum = child.sum
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            le = 'le="' + _format_value(float(bound)) + '"'
            out.append(f"{self.name}_bucket{self._labelset(key, le)} "
                       f"{cumulative}")
        inf = 'le="+Inf"'
        out.append(f"{self.name}_bucket{self._labelset(key, inf)} "
                   f"{total}")
        out.append(f"{self.name}_sum{self._labelset(key)} "
                   f"{_format_value(cumulative_sum)}")
        out.append(f"{self.name}_count{self._labelset(key)} {total}")


class MetricsRegistry:
    """Named collection of metric families with get-or-create semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _get_or_create(self, cls: type, name: str, help: str,
                       labelnames: Sequence[str],
                       **kwargs: Any) -> Any:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help=help, labelnames=labelnames,
                             **kwargs)
                self._families[name] = family
                return family
        if not isinstance(family, cls) or \
                family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family.kind} with labels {list(family.labelnames)}")
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = (),
                max_series: int = DEFAULT_MAX_SERIES) -> MetricFamily:
        return self._get_or_create(MetricFamily, name, help, labelnames,
                                   max_series=max_series)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = (),
              max_series: int = DEFAULT_MAX_SERIES) -> GaugeFamily:
        return self._get_or_create(GaugeFamily, name, help, labelnames,
                                   max_series=max_series)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  max_series: int = DEFAULT_MAX_SERIES
                  ) -> HistogramFamily:
        return self._get_or_create(HistogramFamily, name, help,
                                   labelnames, buckets=buckets,
                                   max_series=max_series)

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return sorted(self._families.values(),
                          key=lambda f: f.name)

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(self.families())

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Flat ``{name: {labelset: value}}`` view (for tests).

        Histogram series appear as ``name_count``/``name_sum`` entries.
        """
        out: Dict[str, Dict[str, float]] = {}
        for family in self.families():
            if isinstance(family, HistogramFamily):
                counts: Dict[str, float] = {}
                sums: Dict[str, float] = {}
                for key, child in family.series().items():
                    label = ",".join(key)
                    counts[label] = child.count
                    sums[label] = child.sum
                out[f"{family.name}_count"] = counts
                out[f"{family.name}_sum"] = sums
            else:
                out[family.name] = {
                    ",".join(key): child.value
                    for key, child in family.series().items()}
        return out

    def reset(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()


#: The process-wide default registry ``/v1/metrics`` renders.
REGISTRY = MetricsRegistry()
