"""Fault-tolerance layer: retry policy, fault injection, cache
integrity, quarantine, timeouts, and client transport resilience.

Service-level tests run in inline-worker mode with aggressive retry
policies (millisecond backoffs) so the whole suite stays fast while
still exercising the real lease/retry/quarantine state machine on disk.
Every fault scenario is driven by a seeded :class:`FaultPlan`, so the
schedules here replay deterministically.
"""

from __future__ import annotations

import gc
import json
import time

import pytest

from repro.errors import ConfigError
from repro.experiment import ExperimentSpec
from repro.experiment.cache import ResultCache, payload_checksum
from repro.experiment.execute import simulate
from repro.resilience import FaultInjected, FaultPlan, FaultRule, \
    RetryPolicy, faults, injected
from repro.service import ExperimentService, QUARANTINED, ResultPending, \
    ServiceConfig
from repro.service.queue import DONE, JobQueue, PENDING, RUNNING

from .conftest import tiny_config


def _spec(workload="copy", seed=1, **overrides):
    from repro.experiment.spec import RunSpec

    return RunSpec(workload=workload, config=tiny_config(**overrides),
                   seed=seed)


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        state_dir=tmp_path / "state",
        store_dir=tmp_path / "store",
        shards=2,
        use_processes=False,
        poll_interval=0.01,
        retry=RetryPolicy(max_attempts=3, base_delay=0.001,
                          max_delay=0.01),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _grid(workloads=("copy",), name="grid", **config_overrides):
    return ExperimentSpec(workloads=list(workloads),
                          configs=tiny_config(**config_overrides),
                          name=name)


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(OSError("disk flake"))
        assert policy.is_transient(TimeoutError("hung"))
        assert policy.is_transient(RuntimeError("unknown: optimistic"))
        assert not policy.is_transient(ConfigError("bad axis"))
        assert not policy.is_transient(TypeError("bug"))
        assert not policy.is_transient(AssertionError("invariant"))
        assert policy.is_transient(FaultInjected("x", transient=True))
        assert not policy.is_transient(FaultInjected("x", transient=False))

    def test_delay_is_deterministic_and_decorrelated(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay(2, "job-a") == policy.delay(2, "job-a")
        assert policy.delay(2, "job-a") != policy.delay(2, "job-b")
        assert RetryPolicy(seed=8).delay(2, "job-a") \
            != policy.delay(2, "job-a")

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(10) == pytest.approx(0.5)  # capped

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.25)
        for attempt in range(1, 20):
            delay = policy.delay(attempt, "k")
            assert 1.0 <= delay <= 1.25

    def test_budget(self):
        policy = RetryPolicy(max_attempts=3)
        exc = OSError("flake")
        assert policy.should_retry(exc, 1)
        assert policy.should_retry(exc, 2)
        assert not policy.should_retry(exc, 3)
        assert not policy.should_retry(ConfigError("permanent"), 1)


class TestFaultPlan:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="simulate", action="explode")

    def test_fires_on_nth_invocation_only(self):
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise",
                                          after=1, times=1)])
        plan.trip("simulate", "k")  # 1st: clean
        with pytest.raises(FaultInjected):
            plan.trip("simulate", "k")  # 2nd: fires
        plan.trip("simulate", "k")  # 3rd: budget spent
        assert plan.fired() == 1

    def test_match_filters_by_key_substring(self):
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise",
                                          match="bad", times=0)])
        plan.trip("simulate", "good-key")
        with pytest.raises(FaultInjected):
            plan.trip("simulate", "the-bad-key")

    def test_sites_are_independent(self):
        plan = FaultPlan(rules=[FaultRule(site="cache.put",
                                          action="raise")])
        plan.trip("simulate", "k")  # different site: no-op

    def test_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="delay",
                                          seconds=1.5, after=2)],
                         seed=42)
        path = tmp_path / "plan.json"
        plan.dump(path)
        loaded = FaultPlan.load(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_injected_context_scopes_the_plan(self):
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise", times=0)])
        faults.trip("simulate", "k")  # no plan: no-op
        with injected(plan):
            with pytest.raises(FaultInjected):
                faults.trip("simulate", "k")
        faults.trip("simulate", "k")  # uninstalled again

    def test_env_var_plan_activates(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        FaultPlan(rules=[FaultRule(site="simulate", action="raise",
                                   times=0)]).dump(path)
        monkeypatch.setenv(faults.FAULTS_ENV, str(path))
        faults.reset()  # force the env var to be re-read
        with pytest.raises(FaultInjected):
            faults.trip("simulate", "k")


class TestCacheIntegrity:
    def test_round_trip_verifies(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        result = simulate(spec)
        cache.put(spec.key(), spec, result)
        assert spec.key() in cache
        assert cache.get(spec.key()) is not None
        assert cache.integrity_failures == 0

    def test_garbled_entry_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.put(spec.key(), spec, simulate(spec))
        # Garble a digit: the JSON still parses, only the checksum can
        # tell the payload changed.
        path = cache._path(spec.key())
        body = json.loads(path.read_text())
        fresh = ResultCache(tmp_path / "cache")  # no memoized verify
        from repro.resilience.faults import _corrupt_file
        assert _corrupt_file(path, "garble")
        assert json.loads(path.read_text()) != body  # parseable, wrong
        assert fresh.get(spec.key()) is None
        assert fresh.integrity_failures == 1
        assert not path.exists()
        assert (tmp_path / "cache" / "quarantine"
                / path.name).exists()
        assert spec.key() not in fresh  # membership must verify too

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.put(spec.key(), spec, simulate(spec))
        path = cache._path(spec.key())
        from repro.resilience.faults import _corrupt_file
        assert _corrupt_file(path, "truncate")
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get(spec.key()) is None
        assert fresh.integrity_failures == 1

    def test_legacy_entry_without_checksum_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        cache.put(spec.key(), spec, simulate(spec))
        path = cache._path(spec.key())
        body = json.loads(path.read_text())
        del body["checksum"]
        path.write_text(json.dumps(body))
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get(spec.key()) is None
        assert fresh.integrity_failures == 1

    def test_cache_put_fault_corrupts_then_detected(self, tmp_path):
        spec = _spec()
        plan = FaultPlan(rules=[FaultRule(site="cache.put",
                                          action="garble")])
        cache = ResultCache(tmp_path / "cache")
        with injected(plan):
            cache.put(spec.key(), spec, simulate(spec))
        assert plan.fired() == 1
        assert cache.get(spec.key()) is None  # not memoized as good
        assert cache.integrity_failures == 1

    def test_checksum_is_canonical(self):
        assert payload_checksum({"b": 1, "a": [1.5, 2]}) \
            == payload_checksum({"a": [1.5, 2], "b": 1})

    def test_no_fault_results_bit_identical(self):
        """An installed-but-empty plan changes nothing (golden stats)."""
        from repro.experiment.serialize import result_to_dict

        spec = _spec()
        bare = result_to_dict(simulate(spec))
        with injected(FaultPlan()):
            under_plan = result_to_dict(simulate(spec))
        assert payload_checksum(bare) == payload_checksum(under_plan)


class TestQueueResilience:
    def _admit_one(self, queue, seed=1):
        spec = _spec(seed=seed)
        queue.admit([spec], [], tenant="alice")
        return spec

    def test_retry_backoff_hides_job_until_due(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = self._admit_one(queue)
        (job,) = queue.lease()
        queue.retry(spec.key(), "flake", delay=0.1, lease=job.lease)
        assert queue.get(spec.key()).state == PENDING
        assert queue.lease() == []  # still backing off
        time.sleep(0.12)
        (again,) = queue.lease()
        assert again.key == spec.key()
        assert again.attempts == 2
        assert again.solo

    def test_retried_job_leases_alone(self, tmp_path):
        queue = JobQueue(tmp_path)
        shared = [_spec(seed=1, warmup_mode="functional"),
                  _spec(seed=1, warmup_mode="functional",
                        llc_writeback="bard-h")]
        queue.admit(shared, [], tenant="alice")
        group = queue.lease()
        assert len(group) == 2  # sanity: they do share a warm group
        queue.retry(shared[0].key(), "x", lease=group[0].lease)
        queue.retry(shared[1].key(), "x", lease=group[1].lease)
        assert len(queue.lease()) == 1  # solo: no coalescing

    def test_stale_lease_cannot_complete(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = self._admit_one(queue)
        (first,) = queue.lease()
        stale = first.lease
        queue.retry(spec.key(), "timeout", lease=stale)
        (second,) = queue.lease()
        assert second.lease != stale
        queue.complete(spec.key(), lease=stale)  # zombie: no-op
        assert queue.get(spec.key()).state == RUNNING
        queue.complete(spec.key(), lease=second.lease)
        assert queue.get(spec.key()).state == DONE

    def test_quarantine_is_terminal_and_requeueable(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = self._admit_one(queue)
        (job,) = queue.lease()
        queue.quarantine(spec.key(), "boom", lease=job.lease)
        assert queue.get(spec.key()).state == QUARANTINED
        assert queue.outstanding() == 0  # never holds drain open
        assert queue.counts()[QUARANTINED] == 1
        assert queue.lease() == []
        assert queue.requeue_quarantined() == 1
        job = queue.get(spec.key())
        assert job.state == PENDING
        assert job.attempts == 0  # fresh budget

    def test_error_chain_recorded_and_bounded(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = self._admit_one(queue)
        for n in range(12):
            (job,) = queue.lease()
            queue.retry(spec.key(), f"flake {n}", lease=job.lease)
        job = JobQueue(tmp_path).get(spec.key())  # reload from disk
        assert len(job.error_chain) == 8  # capped
        assert "flake 11" in job.error_chain[-1]

    def test_release_can_refund_the_attempt(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = self._admit_one(queue)
        (job,) = queue.lease()
        assert job.attempts == 1
        queue.release([spec.key()], lease=job.lease,
                      refund_attempt=True)
        assert queue.get(spec.key()).attempts == 0

    def test_torn_job_file_quarantined_with_warning(self, tmp_path,
                                                    caplog):
        queue = JobQueue(tmp_path)
        self._admit_one(queue)
        torn = tmp_path / "torn.json"
        torn.write_text('{"format": 1, "key": "x", "tru')  # mid-write
        import logging
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            reloaded = JobQueue(tmp_path)
        assert len(reloaded) == 1  # service still starts
        assert reloaded.quarantined_files == 1
        assert not torn.exists()
        assert (tmp_path / "quarantine" / "torn.json").exists()
        assert any("quarantined unreadable job file" in r.message
                   for r in caplog.records)

    def test_attach_resurrects_quarantined_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec(seed=1)
        queue.admit([spec], [], tenant="alice", grid_id="g1")
        (job,) = queue.lease()
        queue.quarantine(spec.key(), "boom", lease=job.lease)
        queue.admit([], [spec.key()], tenant="bob", grid_id="g2")
        job = queue.get(spec.key())
        assert job.state == PENDING
        assert job.attempts == 0


class TestWorkerRetry:
    def test_transient_failure_succeeds_on_retry(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise", times=1)])
        with injected(plan), \
                ExperimentService(_config(tmp_path)) as service:
            status = service.submit(_grid(), tenant="alice")
            assert service.drain(timeout=30.0)
            status = service.status(status["grid_id"])
        assert plan.fired() == 1
        assert status["state"] == "done"
        assert status["quarantined"] == 0
        stats = service.workers.stats_dict()
        assert stats["retried"] == 1
        assert stats["failures"] == 1
        job = service.queue.get(next(iter(
            service.queue.jobs(DONE)))["key"])
        assert job.attempts == 2  # failed once, succeeded once
        assert "injected transient fault" in job.error_chain[0]

    def test_exhausted_budget_quarantines_without_failing_siblings(
            self, tmp_path):
        grid = _grid(workloads=("copy", "whiskey"))
        plan_runs = grid.expand().runs
        poison = next(k for k, s in plan_runs.items()
                      if s.workload == "whiskey")
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise",
                                          match=poison, times=0)])
        with injected(plan), \
                ExperimentService(_config(tmp_path)) as service:
            status = service.submit(grid, tenant="alice")
            assert service.drain(timeout=30.0)
            grid_id = status["grid_id"]
            status = service.status(grid_id)
            assert status["state"] == "degraded"
            assert status["done"] == 1  # the innocent sibling finished
            assert status["quarantined"] == 1
            assert status["failed"] == 0
            assert status["errors"][0]["attempts"] == 3
            # Partial results are available for the healthy points.
            rs = service.result_set(grid_id)
            assert len(list(rs)) == 1
            quarantined = service.jobs(QUARANTINED)
            assert [j["key"] for j in quarantined] == [poison]
            assert len(quarantined[0]["error_chain"]) == 3
        assert service.workers.stats_dict()["quarantined"] == 1

    def test_permanent_failure_skips_retries(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise-permanent",
                                          times=0)])
        with injected(plan), \
                ExperimentService(_config(tmp_path)) as service:
            status = service.submit(_grid(), tenant="alice")
            assert service.drain(timeout=30.0)
            (job,) = service.jobs(QUARANTINED)
        assert job["attempts"] == 1  # no pointless retries
        assert service.status(status["grid_id"])["state"] == "degraded"

    def test_group_crash_isolates_members(self, tmp_path):
        """One raising member must not fail its warm-group siblings."""
        grid = ExperimentSpec(
            workloads=["copy"],
            configs=tiny_config(warmup_mode="functional"),
            policies=["baseline", "bard-h"],
            name="grouped")
        assert len(grid.expand().runs) == 2
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise", times=1)])
        with injected(plan), \
                ExperimentService(_config(tmp_path)) as service:
            status = service.submit(grid, tenant="alice")
            assert service.drain(timeout=30.0)
            status = service.status(status["grid_id"])
        # The group crashed once, every member re-ran solo and passed.
        assert status["state"] == "done"
        stats = service.workers.stats_dict()
        assert stats["retried"] == 2
        assert stats["quarantined"] == 0

    def test_hung_job_reaped_and_shard_respawned(self, tmp_path):
        # Wide margins keep this robust on a loaded machine: a normal
        # tiny run takes well under a second, the hang sleeps far past
        # the timeout, and the reaped zombie is never joined.
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="hang",
                                          seconds=8.0, times=1)])
        config = _config(tmp_path, shards=1, job_timeout=1.0)
        assert gc.isenabled()
        with injected(plan), ExperimentService(config) as service:
            status = service.submit(_grid(), tenant="alice")
            assert service.drain(timeout=30.0)
            # The zombie still sleeps inside its run's collector pause;
            # the reaper turned the collector back on.
            assert gc.isenabled()
            status = service.status(status["grid_id"])
            stats = service.workers.stats_dict()
        assert status["state"] == "done"
        assert stats["timeouts"] >= 1
        assert stats["pool_respawns"] >= 1

    def test_grid_keeps_draining_around_quarantine(self, tmp_path):
        """Quarantined jobs never block drain() or sibling progress."""
        grid = _grid(workloads=("copy", "whiskey", "cf"))
        poison = next(k for k, s in grid.expand().runs.items()
                      if s.workload == "cf")
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise",
                                          match=poison, times=0)])
        with injected(plan), \
                ExperimentService(_config(tmp_path)) as service:
            service.submit(grid, tenant="alice")
            assert service.drain(timeout=30.0)
            counts = service.queue.counts()
        assert counts[DONE] == 2
        assert counts[QUARANTINED] == 1

    def test_requeue_quarantined_reruns_to_done(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise", times=3)])
        with injected(plan), \
                ExperimentService(_config(tmp_path)) as service:
            status = service.submit(_grid(), tenant="alice")
            assert service.drain(timeout=30.0)
            grid_id = status["grid_id"]
            assert service.status(grid_id)["state"] == "degraded"
            # The fault budget (3) is spent; a requeue now succeeds.
            assert service.requeue_quarantined()["requeued"] == 1
            assert service.drain(timeout=30.0)
            assert service.status(grid_id)["state"] == "done"


class TestServiceIntegrity:
    def test_corrupt_store_entry_recomputed_transparently(self,
                                                          tmp_path):
        with ExperimentService(_config(tmp_path)) as service:
            status = service.submit(_grid(), tenant="alice")
            assert service.drain(timeout=30.0)
            grid_id = status["grid_id"]
            (key,) = [j["key"] for j in service.jobs(DONE)]
            from repro.resilience.faults import _corrupt_file
            store_dir = service.store.directory
            assert _corrupt_file(store_dir / f"{key}.json", "garble")
            # Fresh service: no memoized verification.
            service.stop()
        with ExperimentService(_config(tmp_path)) as service:
            with pytest.raises(ResultPending):
                service.result_set(grid_id)
            assert service.drain(timeout=30.0)  # readmitted run re-ran
            rs = service.result_set(grid_id)
            assert len(list(rs)) == 1
            assert service.store.stats_dict()["integrity_failures"] >= 1

    def test_reconcile_readmits_run_with_corrupt_store_entry(
            self, tmp_path):
        """Restart reconciliation treats a garbled store file as absent."""
        with ExperimentService(_config(tmp_path)) as service:
            status = service.submit(_grid(), tenant="alice")
            assert service.drain(timeout=30.0)
            grid_id = status["grid_id"]
            (key,) = [j["key"] for j in service.jobs(DONE)]
            service.stop()
        from repro.resilience.faults import _corrupt_file
        state = tmp_path / "state"
        assert _corrupt_file(tmp_path / "store" / f"{key}.json",
                             "truncate")
        # Wipe the queue record too: reconciliation must rebuild the
        # job purely from the grid record.
        (state / "queue" / f"{key}.json").unlink()
        with ExperimentService(_config(tmp_path)) as service:
            assert service.counters["jobs_readmitted"] == 1
            assert service.drain(timeout=30.0)
            assert service.status(grid_id)["state"] == "done"


class TestDeterminism:
    def test_fault_schedule_replays_identically(self, tmp_path):
        """Same fault seed + same plan = same retries, same outcome."""
        def run(subdir):
            plan = FaultPlan(rules=[
                FaultRule(site="simulate", action="raise", times=2)],
                seed=99)
            with injected(plan), ExperimentService(
                    _config(tmp_path / subdir)) as service:
                status = service.submit(_grid(), tenant="alice")
                assert service.drain(timeout=30.0)
                stats = service.workers.stats_dict()
                job = service.queue.get(
                    service.jobs()[0]["key"])
                return (plan.fired(), stats["retried"],
                        stats["quarantined"], job.attempts,
                        service.status(status["grid_id"])["state"])

        assert run("a") == run("b") == (2, 2, 0, 3, "done")
