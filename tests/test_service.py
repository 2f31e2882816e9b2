"""ExperimentService: dedup accounting, resumability, cancellation.

These tests run the service in inline-worker mode
(``use_processes=False``): execution happens on dispatcher threads in
this process, so monkeypatched executors and deterministic scheduling
work, while every durable path (queue files, grid records, the store)
is identical to process mode.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiment import ExperimentSpec
from repro.experiment.spec import RunPlan
from repro.service import ExperimentService, QueueFull, ResultPending, \
    ServiceConfig, UnknownGrid
from repro.service import workers as workers_mod

from .conftest import tiny_config


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        state_dir=tmp_path / "state",
        store_dir=tmp_path / "store",
        shards=2,
        use_processes=False,
        poll_interval=0.01,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _grid(workloads=("copy", "whiskey"), seeds=(7,), name="grid"):
    return ExperimentSpec(workloads=list(workloads),
                          configs=tiny_config(),
                          seeds=list(seeds), name=name)


@pytest.fixture
def counted_groups(monkeypatch):
    """Count keys actually executed by worker shards."""
    executed = []
    real = workers_mod.run_group

    def counting(items):
        executed.extend(key for key, _ in items)
        return real(items)

    monkeypatch.setattr(workers_mod, "run_group", counting)
    return executed


class TestSubmitAndResult:
    def test_submit_drain_result(self, tmp_path):
        with ExperimentService(_config(tmp_path)) as service:
            ticket = service.submit(_grid(), tenant="alice")
            assert ticket["admission"]["new_jobs"] == 2
            assert service.drain(timeout=60)
            status = service.status(ticket["grid_id"])
            assert status["state"] == "done"
            result = service.result(ticket["grid_id"],
                                    metrics=["mean_ipc"])
        assert result["name"] == "grid"
        assert result["tenant"] == "alice"
        assert {r["workload"] for r in result["records"]} == \
            {"copy", "whiskey"}
        assert all(r["mean_ipc"] for r in result["records"])
        assert result["stats"]["unique_runs"] == 2

    def test_result_before_done_is_pending(self, tmp_path):
        service = ExperimentService(_config(tmp_path))  # workers off
        ticket = service.submit(_grid())
        with pytest.raises(ResultPending) as info:
            service.result(ticket["grid_id"])
        assert info.value.status["state"] == "queued"
        assert info.value.status["done"] == 0

    def test_unknown_grid(self, tmp_path):
        service = ExperimentService(_config(tmp_path))
        with pytest.raises(UnknownGrid):
            service.status("g0000000000000000")

    def test_empty_plan_rejected(self, tmp_path):
        service = ExperimentService(_config(tmp_path))
        with pytest.raises(ConfigError):
            service.submit(RunPlan(None, []))

    def test_removed_sampling_fields_rejected(self, tmp_path):
        # Payloads written before per-run adaptive sampling was removed
        # carry sampling.target_relative_error; it is an unknown key now.
        from repro.experiment import experiment_to_dict
        from repro.sampling import SamplingConfig

        cfg = tiny_config(warmup_mode="functional").with_sampling(
            SamplingConfig(intervals=2, interval_instructions=400))
        experiment = experiment_to_dict(
            ExperimentSpec(workloads=["copy"], configs=cfg, name="old"))
        experiment["configs"][0][1]["sampling"][
            "target_relative_error"] = 0.02
        service = ExperimentService(_config(tmp_path))
        with pytest.raises(ConfigError, match="target_relative_error"):
            service.submit_request({"experiment": experiment})
        assert len(service.queue) == 0

    def test_resubmission_is_idempotent(self, tmp_path):
        service = ExperimentService(_config(tmp_path))
        first = service.submit(_grid(), tenant="alice")
        second = service.submit(_grid(), tenant="alice")
        assert second["grid_id"] == first["grid_id"]
        assert service.counters["resubmissions"] == 1
        assert len(service.queue) == 2  # nothing double-admitted


class TestDeduplication:
    def test_two_tenants_share_inflight_execution(self, tmp_path,
                                                  counted_groups):
        service = ExperimentService(_config(tmp_path))
        alice = service.submit(_grid(), tenant="alice")
        bob = service.submit(_grid(), tenant="bob")
        # Different grids (identity includes the tenant) ...
        assert bob["grid_id"] != alice["grid_id"]
        # ... but bob enqueued nothing: every run attached in-flight.
        assert alice["admission"]["new_jobs"] == 2
        assert bob["admission"]["new_jobs"] == 0
        assert bob["admission"]["inflight_dedup"] == 2
        service.start()
        try:
            assert service.drain(timeout=60)
        finally:
            service.stop()
        # Exactly one execution per unique run, both grids satisfied.
        assert sorted(counted_groups) == sorted(set(counted_groups))
        assert len(counted_groups) == 2
        for ticket in (alice, bob):
            records = service.result(ticket["grid_id"])["records"]
            assert len(records) == 2

    def test_store_hits_skip_the_queue(self, tmp_path, counted_groups):
        with ExperimentService(_config(tmp_path)) as service:
            service.submit(_grid(), tenant="alice")
            assert service.drain(timeout=60)
        executed_before = len(counted_groups)
        # A fresh service over the same store: carol's identical grid is
        # served entirely at admission time, workers never start.
        later = ExperimentService(_config(
            tmp_path, state_dir=tmp_path / "state2"))
        ticket = later.submit(_grid(), tenant="carol")
        assert ticket["admission"]["store_hits"] == 2
        assert ticket["admission"]["new_jobs"] == 0
        assert ticket["state"] == "done"
        assert len(later.result(ticket["grid_id"])["records"]) == 2
        assert len(counted_groups) == executed_before

    def test_backpressure_rejects_cleanly(self, tmp_path):
        service = ExperimentService(
            _config(tmp_path, max_pending_per_tenant=1))
        with pytest.raises(QueueFull):
            service.submit(_grid(), tenant="alice")
        assert service.counters["rejected"] == 1
        assert len(service.queue) == 0
        # The rejected grid left no record behind.
        with pytest.raises(UnknownGrid):
            service.status(service._grid_id("alice", _grid().expand()))


class TestResumability:
    def test_restart_resumes_where_it_stopped(self, tmp_path,
                                              counted_groups):
        grid = _grid(workloads=("copy", "whiskey", "scale"))
        config = _config(tmp_path)
        service = ExperimentService(config)  # workers never started
        ticket = service.submit(grid, tenant="alice")
        assert ticket["admission"]["new_jobs"] == 3

        # Execute one job by hand (it completes before the "crash") and
        # lease a second without finishing it (in flight at the crash).
        from repro.experiment.execute import simulate_group

        first = service.queue.lease(max_jobs=1)
        (pairs, _, _) = simulate_group(
            [(j.key, j.spec) for j in first])
        for key, result in pairs:
            service.store.put(key, first[0].spec, result)
            service.queue.complete(key)
        stuck = service.queue.lease(max_jobs=1)
        assert stuck and stuck[0].key != first[0].key
        del service  # the process "dies" with one job mid-run

        with ExperimentService(config) as revived:
            assert revived.queue.resumed == 1  # running -> pending
            assert revived.drain(timeout=60)
            result = revived.result(ticket["grid_id"])
        assert len(result["records"]) == 3
        # The pre-crash run was not re-executed.
        assert first[0].key not in counted_groups
        assert len(counted_groups) == 2

    def test_reconcile_rebuilds_lost_jobs(self, tmp_path):
        config = _config(tmp_path)
        service = ExperimentService(config)
        ticket = service.submit(_grid(), tenant="alice")
        # Simulate a crash that lost a queue file entirely.
        victims = sorted((config.state_dir / "queue").glob("*.json"))
        victims[0].unlink()
        del service

        with ExperimentService(config) as revived:
            assert revived.counters["jobs_readmitted"] == 1
            assert revived.counters["grids_resumed"] == 1
            assert revived.drain(timeout=60)
            assert revived.status(ticket["grid_id"])["state"] == "done"

    def test_finished_grids_are_not_resumed(self, tmp_path):
        config = _config(tmp_path)
        with ExperimentService(config) as service:
            ticket = service.submit(_grid())
            assert service.drain(timeout=60)
        revived = ExperimentService(config)
        assert revived.counters["grids_resumed"] == 0
        assert revived.status(ticket["grid_id"])["state"] == "done"

    def test_parent_format_state_is_skipped(self, tmp_path):
        # State written before CacheConfig lost mshr_targets and
        # hit_under_miss: grid format 2, job format 1.  Loading one of
        # its specs would raise, so both records must be skipped.
        import json

        config = _config(tmp_path)
        service = ExperimentService(config)
        grid_id = service.submit(_grid(), tenant="alice")["grid_id"]
        del service

        def age(path, old_format, specs):
            record = json.loads(path.read_text())
            record["format"] = old_format
            for spec in specs(record):
                for level in ("l1i", "l1d", "l2", "llc"):
                    spec["config"][level].update(mshr_targets=0,
                                                 hit_under_miss=True)
            path.write_text(json.dumps(record))

        age(config.state_dir / "grids" / f"{grid_id}.json", 2,
            lambda record: record["specs"].values())
        for path in (config.state_dir / "queue").glob("*.json"):
            age(path, 1, lambda record: [record["spec"]])

        revived = ExperimentService(config)
        assert len(revived.queue) == 0
        assert revived.counters["grids_resumed"] == 0
        with pytest.raises(UnknownGrid):
            revived.status(grid_id)


class TestCancellation:
    def test_cancel_marks_grid_and_jobs(self, tmp_path):
        service = ExperimentService(_config(tmp_path))
        ticket = service.submit(_grid())
        status = service.cancel(ticket["grid_id"])
        assert status["state"] == "cancelled"
        assert service.queue.counts()["cancelled"] == 2
        with pytest.raises(ResultPending):
            service.result(ticket["grid_id"])

    def test_cancel_spares_shared_jobs(self, tmp_path):
        service = ExperimentService(_config(tmp_path))
        alice = service.submit(_grid(), tenant="alice")
        service.submit(_grid(), tenant="bob")
        service.cancel(alice["grid_id"])
        # Bob still needs both runs: nothing was cancelled.
        assert service.queue.counts()["cancelled"] == 0
        assert service.queue.counts()["pending"] == 2


class TestStats:
    def test_stats_shape(self, tmp_path):
        with ExperimentService(_config(tmp_path)) as service:
            grid_id = service.submit(_grid(), tenant="alice")["grid_id"]
            assert service.drain(timeout=60)
            assert service.status(grid_id)["state"] == "done"
            counts = service.queue.counts()
            tenants = {job["tenant"] for job in service.queue.jobs("done")}
            store = service.store.stats_dict()
            workers = service.workers.stats_dict()
            counters = dict(service.counters)
        assert counts["done"] == 2
        assert tenants == {"alice"}
        assert store["puts"] == 2
        assert workers["jobs"] == 2
        assert workers["mode"] == "inline"
        assert counters["submissions"] == 1
        assert service.queue.max_pending_total == 256
