"""Telemetry layer: registry, tracing, gating, logs, and the wiring.

Covers the contracts the rest of the repository leans on:

* the registry is thread-safe and exact under concurrent increments,
* label cardinality is bounded (overflow collapse, ``dropped_series``),
* the disabled mode is a zero-allocation identity fast path (shared
  NOOP / null-span singletons) and leaves simulation results
  bit-identical,
* spans nest, order, and export as valid Chrome trace-event JSON,
* ``ServiceClient.wait`` only reports *actual* progress,
* ``/v1/metrics`` serves parseable Prometheus text over real HTTP.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
import threading
from io import StringIO

import pytest

from repro import telemetry
from repro.experiment import Session
from repro.service.client import ServiceClient
from repro.telemetry import (JsonLinesFormatter, MetricsRegistry, Tracer,
                             configure_logging, get_logger, phase_key)
from repro.telemetry.registry import NOOP

from .conftest import tiny_config
from .test_service_api import _grid, _serve


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts and ends disabled with empty registry/tracer."""
    telemetry.disable()
    telemetry.REGISTRY.reset()
    telemetry.get_tracer().reset()
    yield
    telemetry.disable()
    telemetry.REGISTRY.reset()
    telemetry.get_tracer().reset()


# A Prometheus text sample line: name{optional labels} value
_SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")


def _samples(text):
    """``{series: value}`` of a Prometheus text body, format-checked."""
    samples = {}
    for line in text.splitlines():
        assert line.startswith("#") or _SAMPLE.match(line), line
        if not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            samples[key] = float(value)
    return samples


class TestRegistry:
    def test_counter_inc_and_render(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_test_total", "A test counter",
                                  ("kind",))
        family.labels(kind="a").inc()
        family.labels(kind="a").inc(2)
        family.labels(kind="b").inc()
        assert family.value(kind="a") == 3
        assert family.value(kind="b") == 1
        text = registry.render()
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{kind="a"} 3' in text
        assert text.endswith("\n")
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert _SAMPLE.match(line), line

    def test_thread_safety_exact_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_threads_total", "", ("t",))
        histogram = registry.histogram("repro_threads_seconds", "",
                                       buckets=(0.5, 1.0))

        def worker():
            for _ in range(1000):
                counter.labels(t="x").inc()
                histogram.observe(0.25)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value(t="x") == 8 * 1000
        snap = registry.snapshot()
        assert snap["repro_threads_seconds_count"][""] == 8 * 1000
        assert snap["repro_threads_seconds_sum"][""] == \
            pytest.approx(8 * 1000 * 0.25)

    def test_label_cardinality_overflow(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_cardinality_total", "",
                                  ("key",), max_series=4)
        for i in range(10):
            family.labels(key=f"k{i}").inc()
        # Only max_series children exist; the excess collapsed into the
        # all-"overflow" series and was counted as dropped.
        assert len(family._children) <= 4 + 1
        assert family.dropped_series >= 6
        assert family.value(key="overflow") >= 6
        text = registry.render()
        assert 'key="overflow"' in text

    def test_label_schema_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_schema_total", "", ("a", "b"))
        with pytest.raises(ValueError):
            family.labels(a="only")
        with pytest.raises(ValueError):
            family.labels(a="x", c="wrong")
        with pytest.raises(ValueError):
            registry.gauge("repro_schema_total")  # kind conflict

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        family = registry.histogram("repro_lat_seconds", "latency",
                                    buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            family.observe(value)
        text = registry.render()
        assert 'repro_lat_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="1"} 3' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_lat_seconds_count 4" in text
        assert "repro_lat_seconds_sum 5.555" in text

    def test_gauge_set_and_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth", "", ("state",))
        gauge.labels(state="pending").set(7)
        gauge.labels(state="pending").dec(2)
        assert gauge.value(state="pending") == 5


class TestGating:
    def test_disabled_returns_shared_singletons(self):
        assert not telemetry.enabled()
        # Identity, not equality: the disabled path allocates nothing.
        assert telemetry.counter("repro_x_total") is NOOP
        assert telemetry.gauge("repro_x") is NOOP
        assert telemetry.histogram("repro_x_seconds") is NOOP
        assert telemetry.span("measure") is telemetry.span("warmup")
        assert NOOP.labels(anything="goes") is NOOP
        assert NOOP.inc() is None and NOOP.observe(1.0) is None
        # Nothing registered a family behind the scenes.
        assert len(telemetry.REGISTRY) == 0

    def test_enable_disable_toggle(self):
        telemetry.enable()
        try:
            assert telemetry.enabled()
            family = telemetry.counter("repro_toggle_total")
            assert family is not NOOP
            family.inc()
            assert family.value() == 1
        finally:
            telemetry.disable()
        assert telemetry.counter("repro_toggle_total") is NOOP

    def test_disabled_run_result_is_bit_identical(self):
        """Enabling telemetry must not perturb simulation statistics."""
        config = tiny_config()
        baseline = Session(cache=False).run_one(config, "copy", seed=7)
        telemetry.enable()
        try:
            instrumented = Session(cache=False).run_one(
                config, "copy", seed=7)
        finally:
            telemetry.disable()
        assert baseline.phase_breakdown is None
        assert instrumented.phase_breakdown  # measured, not empty
        base = dataclasses.asdict(baseline)
        inst = dataclasses.asdict(instrumented)
        base.pop("phase_breakdown"), inst.pop("phase_breakdown")
        assert base == inst


class TestTracer:
    def test_phase_key_collapses_indexed_phases(self):
        assert phase_key("sampling.interval[7]") == "sampling.interval"
        assert phase_key("measure") == "measure"

    def test_span_nesting_and_chrome_export(self):
        tracer = Tracer()
        with tracer.span("outer", category="run", workload="copy"):
            with tracer.span("inner.one"):
                pass
            with tracer.span("inner.two"):
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == \
            ["inner.one", "inner.two", "outer"]
        assert [s.depth for s in spans] == [1, 1, 0]
        trace = tracer.export_chrome()
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == \
            ["outer", "inner.one", "inner.two"]  # sorted by start
        outer, one, two = events
        assert all(e["ph"] == "X" for e in events)
        assert outer["args"]["workload"] == "copy"
        # Children sit inside the parent on the timeline (Perfetto
        # infers nesting from ts/dur per tid).
        assert outer["ts"] <= one["ts"]
        assert one["ts"] + one["dur"] <= two["ts"] + 1
        assert two["ts"] + two["dur"] <= outer["ts"] + outer["dur"] + 1
        assert trace["otherData"]["dropped_spans"] == 0
        json.dumps(trace)  # serialisable as-is

    def test_breakdown_accumulates_by_phase_key(self):
        tracer = Tracer()
        breakdown = {}
        for index in range(3):
            with tracer.span(f"sampling.interval[{index}]",
                             breakdown=breakdown):
                pass
        assert list(breakdown) == ["sampling.interval"]
        assert breakdown["sampling.interval"] >= 0.0

    def test_max_events_bound(self):
        tracer = Tracer(max_events=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.export_chrome()["otherData"]["dropped_spans"] == 3


class TestPhaseBreakdown:
    def test_run_and_resultset_aggregation(self):
        from repro.experiment import ExperimentSpec

        telemetry.enable()
        try:
            session = Session(cache=False)
            rs = session.run(ExperimentSpec(
                workloads="copy", configs=tiny_config(), seeds=7,
                name="telemetry-breakdown"))
        finally:
            telemetry.disable()
        result = rs.only().result
        assert set(result.phase_breakdown) >= {"measure"}
        assert all(v >= 0.0 for v in result.phase_breakdown.values())
        totals = rs.phase_breakdown()
        assert totals  # aggregated across observations
        assert totals["measure"] >= result.phase_breakdown["measure"]

    def test_publish_run_result_populates_registry(self):
        telemetry.enable()
        try:
            result = Session(cache=False).run_one(
                tiny_config(), "copy", seed=7)
            telemetry.REGISTRY.reset()
            telemetry.publish_run_result(result, workload="copy",
                                         policy="baseline")
            snap = telemetry.REGISTRY.snapshot()
        finally:
            telemetry.disable()
        assert snap["repro_runs_total"]["copy,baseline"] == 1
        assert snap["repro_run_events_total"]["copy,baseline"] == \
            result.events
        assert "repro_phase_seconds_total" in snap

    def test_phase_breakdown_survives_serialisation(self):
        from repro.experiment.serialize import result_from_dict, \
            result_to_dict

        telemetry.enable()
        try:
            result = Session(cache=False).run_one(
                tiny_config(), "copy", seed=7)
        finally:
            telemetry.disable()
        clone = result_from_dict(result_to_dict(result))
        assert clone.phase_breakdown == result.phase_breakdown


class _ScriptedClient(ServiceClient):
    """A client whose status() replays a fixed sequence of bodies."""

    def __init__(self, statuses):
        super().__init__("http://scripted.invalid", retries=0)
        self._statuses = list(statuses)

    def status(self, grid_id):
        if len(self._statuses) > 1:
            return dict(self._statuses.pop(0))
        return dict(self._statuses[0])


class TestWaitProgress:
    def test_on_progress_fires_only_on_change(self):
        client = _ScriptedClient([
            {"state": "queued", "done": 0, "unique_runs": 3},
            {"state": "running", "done": 0, "unique_runs": 3},
            {"state": "running", "done": 0, "unique_runs": 3},
            {"state": "running", "done": 1, "unique_runs": 3},
            {"state": "running", "done": 1, "unique_runs": 3},
            {"state": "running", "done": 1, "unique_runs": 3,
             "quarantined": 1},
            {"state": "done", "done": 3, "unique_runs": 3},
        ])
        seen = []
        status = client.wait("g1", timeout=10, poll=0.0,
                             on_progress=lambda s: seen.append(
                                 dict(s["progress"],
                                      state=s["state"])))
        assert status["state"] == "done"
        # 7 polls, but only 5 observed changes: first poll, queued ->
        # running, done 0 -> 1, quarantined 0 -> 1, running -> done.
        assert [(s["state"], s["completed"], s["quarantined"])
                for s in seen] == [
            ("queued", 0, 0), ("running", 0, 0), ("running", 1, 0),
            ("running", 1, 1), ("done", 3, 0)]
        assert all(s["total"] == 3 for s in seen)


class TestServiceIntrospection:
    def test_metrics_endpoint_prometheus_text(self, tmp_path):
        with _serve(tmp_path) as client:
            ticket = client.submit(_grid(), tenant="alice")
            client.wait(ticket["grid_id"], timeout=120, poll=0.02)
            samples = _samples(client.metrics())
        done = sum(v for k, v in samples.items()
                   if k.startswith("repro_jobs_transitions_total")
                   and 'to_state="done"' in k)
        assert done == 2
        for family in ("repro_queue_depth", "repro_worker_utilisation",
                       "repro_http_requests_total",
                       "repro_job_queue_wait_seconds_count",
                       "repro_store_events",
                       "repro_service_uptime_seconds"):
            assert any(k.startswith(family) for k in samples), family

    def test_metrics_carry_worker_and_failure_counters(self, tmp_path):
        with _serve(tmp_path) as client:
            ticket = client.submit(_grid(), tenant="alice")
            client.wait(ticket["grid_id"], timeout=120, poll=0.02)
            samples = _samples(client.metrics())
        for kind in ("retried", "quarantined"):
            assert samples[f'repro_worker_events{{kind="{kind}"}}'] == 0
        assert samples['repro_store_events{kind="integrity_failures"}'] \
            == 0
        assert samples["repro_worker_utilisation"] >= 0.0
        assert samples["repro_worker_busy_seconds"] > 0.0

    def test_pending_jobs_carry_queue_age(self, tmp_path):
        # Workers never started: jobs stay PENDING and age visibly.
        with _serve(tmp_path, start_workers=False) as client:
            client.submit(_grid(), tenant="alice")
            listing = client.jobs("pending")
        jobs = listing["jobs"]
        assert len(jobs) == 2
        for job in jobs:
            assert job["tenant"] == "alice"
            assert job["enqueued_at"] > 0
            assert job["age"] >= 0.0


class TestLogs:
    def test_json_lines_formatter_carries_extras(self):
        formatter = JsonLinesFormatter()
        logger = logging.getLogger("repro.test.json")
        record = logger.makeRecord(
            "repro.test.json", logging.INFO, __file__, 1,
            "job %s moved", ("abc",), None,
            extra={"event": "job.transition", "tenant": "alice"})
        body = json.loads(formatter.format(record))
        assert body["message"] == "job abc moved"
        assert body["level"] == "INFO"
        assert body["event"] == "job.transition"
        assert body["tenant"] == "alice"

    def test_configure_logging_idempotent(self):
        root = logging.getLogger("repro")
        stream = StringIO()
        configure_logging(level="debug", stream=stream)
        configure_logging(level="debug", stream=stream)
        handlers = [h for h in root.handlers
                    if getattr(h, "_repro_handler", False)]
        assert len(handlers) == 1
        get_logger("unit").warning("hello %s", "there")
        assert "hello there" in stream.getvalue()

    def test_get_logger_prefix(self):
        assert get_logger("queue").name == "repro.queue"
        assert get_logger("repro.queue").name == "repro.queue"


class TestTraceCLI:
    def test_trace_command_writes_chrome_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main(["trace", "copy", "--instructions", "3000",
                   "--warmup", "1000", "--out", str(out), "--json"])
        assert rc == 0
        assert not telemetry.enabled()  # restored after the run
        summary = json.loads(capsys.readouterr().out)
        assert summary["coverage_pct"] >= 95.0
        assert summary["phase_breakdown"]
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        names = {e["name"] for e in trace["traceEvents"]}
        assert "run" in names and "measure" in names
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
