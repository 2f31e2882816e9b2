"""Durable job queue: persistence, fairness, backpressure, warm groups."""

from __future__ import annotations

import pytest

from repro.experiment import ExperimentSpec
from repro.experiment.spec import RunSpec
from repro.service import CANCELLED, DONE, FAILED, JobQueue, PENDING, \
    QueueFull, RUNNING

from .conftest import tiny_config


def _spec(workload="copy", seed=7, **overrides) -> RunSpec:
    return RunSpec(workload=workload, config=tiny_config(**overrides),
                   seed=seed)


def _admit(queue, specs, tenant="default", **kw):
    return queue.admit(list(specs), [], tenant=tenant, **kw)


class TestPersistence:
    def test_jobs_survive_reload(self, tmp_path):
        queue = JobQueue(tmp_path)
        specs = [_spec(seed=s) for s in (1, 2)]
        _admit(queue, specs, tenant="alice", grid_id="g1")
        reloaded = JobQueue(tmp_path)
        assert len(reloaded) == 2
        for spec in specs:
            job = reloaded.get(spec.key())
            assert job.state == PENDING
            assert job.tenant == "alice"
            assert job.grids == ("g1",)
            assert job.spec.key() == spec.key()

    def test_running_jobs_demoted_on_reload(self, tmp_path):
        queue = JobQueue(tmp_path)
        _admit(queue, [_spec(seed=1), _spec(seed=2)])
        leased = queue.lease(max_jobs=1)
        assert [j.state for j in leased] == [RUNNING]
        reloaded = JobQueue(tmp_path)
        assert reloaded.resumed == 1
        assert reloaded.counts()[PENDING] == 2
        assert reloaded.counts()[RUNNING] == 0

    def test_done_stays_done_across_reload(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec(seed=3)
        _admit(queue, [spec])
        queue.lease()
        queue.complete(spec.key())
        reloaded = JobQueue(tmp_path)
        assert reloaded.get(spec.key()).state == DONE
        assert reloaded.resumed == 0

    def test_corrupt_job_file_is_skipped(self, tmp_path):
        queue = JobQueue(tmp_path)
        _admit(queue, [_spec(seed=1)])
        (tmp_path / "garbage.json").write_text("{not json")
        assert len(JobQueue(tmp_path)) == 1

    def test_seq_continues_after_reload(self, tmp_path):
        queue = JobQueue(tmp_path)
        _admit(queue, [_spec(seed=1)])
        reloaded = JobQueue(tmp_path)
        _admit(reloaded, [_spec(seed=2)])
        seqs = [reloaded.get(_spec(seed=s).key()).seq for s in (1, 2)]
        assert seqs[1] > seqs[0]


class TestBackpressure:
    def test_per_tenant_bound_rejects_whole_batch(self, tmp_path):
        queue = JobQueue(tmp_path, max_pending_per_tenant=2)
        with pytest.raises(QueueFull) as info:
            _admit(queue, [_spec(seed=s) for s in (1, 2, 3)],
                   tenant="alice")
        assert info.value.scope == "per-tenant"
        assert info.value.tenant == "alice"
        assert info.value.limit == 2
        assert len(queue) == 0  # nothing partially admitted

    def test_global_bound(self, tmp_path):
        queue = JobQueue(tmp_path, max_pending_per_tenant=8,
                         max_pending_total=3)
        _admit(queue, [_spec(seed=s) for s in (1, 2)], tenant="alice")
        with pytest.raises(QueueFull) as info:
            _admit(queue, [_spec(seed=s) for s in (3, 4)], tenant="bob")
        assert info.value.scope == "global"
        assert len(queue) == 2

    def test_attach_is_never_rejected(self, tmp_path):
        queue = JobQueue(tmp_path, max_pending_per_tenant=1)
        spec = _spec(seed=1)
        _admit(queue, [spec], tenant="alice", grid_id="ga")
        # Bob's grid wants the same run: attaching bypasses the bound.
        created, attached = queue.admit([], [spec.key()], tenant="bob",
                                        grid_id="gb")
        assert (created, attached) == (0, 1)
        assert set(queue.get(spec.key()).grids) == {"ga", "gb"}

    def test_completed_jobs_free_capacity(self, tmp_path):
        queue = JobQueue(tmp_path, max_pending_per_tenant=1)
        spec = _spec(seed=1)
        _admit(queue, [spec])
        queue.lease()
        queue.complete(spec.key())
        _admit(queue, [_spec(seed=2)])  # no QueueFull
        assert queue.counts()[PENDING] == 1


class TestScheduling:
    def test_fifo_within_tenant(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, second = _spec(seed=1), _spec(seed=2)
        _admit(queue, [first])
        _admit(queue, [second])
        assert queue.lease(max_jobs=1)[0].key == first.key()

    def test_priority_beats_age(self, tmp_path):
        queue = JobQueue(tmp_path)
        _admit(queue, [_spec(seed=1)], priority=0)
        urgent = _spec(seed=2)
        _admit(queue, [urgent], priority=5)
        assert queue.lease(max_jobs=1)[0].key == urgent.key()

    def test_equal_weights_alternate(self, tmp_path):
        queue = JobQueue(tmp_path)
        _admit(queue, [_spec(seed=s) for s in (1, 2)], tenant="alice")
        _admit(queue, [_spec(seed=s) for s in (11, 12)], tenant="bob")
        order = [queue.lease(max_jobs=1)[0].tenant for _ in range(4)]
        assert order == ["alice", "bob", "alice", "bob"]

    def test_deep_queue_cannot_starve_light_tenant(self, tmp_path):
        queue = JobQueue(tmp_path)
        _admit(queue, [_spec(seed=s) for s in range(1, 9)],
               tenant="hog")
        _admit(queue, [_spec(seed=99)], tenant="mouse")
        order = [queue.lease(max_jobs=1)[0].tenant for _ in range(2)]
        assert "mouse" in order


class TestWarmGroups:
    def test_groupmates_lease_together(self, tmp_path):
        cfg = tiny_config(warmup_mode="functional")
        plan = ExperimentSpec(workloads="copy", configs=cfg,
                              policies=["baseline", "bard-h",
                                        "eager"]).expand()
        queue = JobQueue(tmp_path)
        _admit(queue, list(plan.runs.values()))
        group = queue.lease(max_jobs=8)
        assert len(group) == 3
        assert len({j.group for j in group}) == 1
        assert all(j.state == RUNNING for j in group)

    def test_group_leasing_spans_tenants(self, tmp_path):
        cfg = tiny_config(warmup_mode="functional")
        queue = JobQueue(tmp_path)
        _admit(queue, [RunSpec("copy", cfg.with_writeback("bard-h"))],
               tenant="alice")
        _admit(queue, [RunSpec("copy", cfg.with_writeback("eager"))],
               tenant="bob")
        group = queue.lease(max_jobs=8)
        # Same warm state by construction: bob's run rides along so the
        # shard warms once for both tenants.
        assert {j.tenant for j in group} == {"alice", "bob"}

    def test_max_jobs_caps_group_size(self, tmp_path):
        cfg = tiny_config(warmup_mode="functional")
        plan = ExperimentSpec(workloads="copy", configs=cfg,
                              policies=["baseline", "bard-h",
                                        "eager"]).expand()
        queue = JobQueue(tmp_path)
        _admit(queue, list(plan.runs.values()))
        assert len(queue.lease(max_jobs=2)) == 2
        assert len(queue.lease(max_jobs=2)) == 1

    def test_detailed_warmup_jobs_lease_alone(self, tmp_path):
        queue = JobQueue(tmp_path)
        _admit(queue, [_spec(seed=1), _spec(seed=2)])
        assert len(queue.lease(max_jobs=8)) == 1


class TestLifecycle:
    def test_fail_records_error(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec(seed=1)
        _admit(queue, [spec])
        queue.lease()
        queue.fail(spec.key(), "ValueError: boom")
        job = JobQueue(tmp_path).get(spec.key())
        assert job.state == FAILED
        assert "boom" in job.error

    def test_attach_resurrects_failed_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec(seed=1)
        _admit(queue, [spec], grid_id="g1")
        queue.lease()
        queue.fail(spec.key(), "boom")
        queue.admit([], [spec.key()], tenant="bob", grid_id="g2")
        job = queue.get(spec.key())
        assert job.state == PENDING
        assert job.error == ""

    def test_release_requeues_leased_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec(seed=1)
        _admit(queue, [spec])
        queue.lease()
        queue.release([spec.key()])
        assert queue.get(spec.key()).state == PENDING

    def test_detach_grid_cancels_orphans_only(self, tmp_path):
        queue = JobQueue(tmp_path)
        mine, shared = _spec(seed=1), _spec(seed=2)
        _admit(queue, [mine, shared], grid_id="g1")
        queue.admit([], [shared.key()], tenant="bob", grid_id="g2")
        assert queue.detach_grid("g1") == 1
        assert queue.get(mine.key()).state == CANCELLED
        # Still wanted by g2: survives the cancellation.
        assert queue.get(shared.key()).state == PENDING

    def test_counts_and_outstanding(self, tmp_path):
        queue = JobQueue(tmp_path)
        done, rest = _spec(seed=1), _spec(seed=2)
        _admit(queue, [done, rest])
        queue.lease(max_jobs=1)
        queue.complete(done.key())
        counts = queue.counts()
        assert counts[DONE] == 1 and counts[PENDING] == 1
        assert queue.outstanding() == 1
        assert [job["tenant"] for job in queue.jobs(DONE)] == ["default"]
