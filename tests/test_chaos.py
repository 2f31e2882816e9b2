"""Chaos tests: kill the real service mid-grid and prove the invariants.

The headline test boots ``python -m repro serve`` as a real subprocess
(its own process group, process-pool workers and all) with a fault plan
injected through the ``REPRO_FAULTS`` environment file, SIGKILLs the
whole group mid-grid, restarts the service over the same durable state,
and asserts the crash-resume contract:

* every job reaches a terminal state exactly once,
* runs whose results were already stored are **not** simulated again
  (they complete from the store - the exactly-once invariant),
* nothing leaks into quarantine from the crash itself.

The HTTP-level tests exercise the client's transport retries against a
live in-process server under injected connection faults.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiment import ExperimentSpec
from repro.experiment.cache import ResultCache
from repro.resilience import FaultPlan, FaultRule, RetryPolicy, injected
from repro.service import Backpressure, ExperimentService, \
    ServiceClient, ServiceConfig, ServiceError, make_server
from repro.service.queue import DONE, FAILED, QUARANTINED

from .conftest import tiny_config

REPO_ROOT = Path(__file__).resolve().parents[1]


def _grid(workloads=("copy", "whiskey", "cf", "lbm"), name="chaos"):
    return ExperimentSpec(workloads=list(workloads),
                          configs=tiny_config(),
                          name=name)


def _inline_config(tmp_path, **overrides) -> ServiceConfig:
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


def _children(pid):
    """PIDs whose parent is ``pid`` (read from /proc)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


def _exited(pid):
    """True once ``pid`` is gone or a zombie nobody has reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10)


def _wait_exited(pids, seconds):
    deadline = time.time() + seconds
    while time.time() < deadline:
        if all(_exited(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
class TestServeLeavesNoProcesses:
    """``repro serve`` with a job timeout runs a heartbeat Manager and a
    worker pool; neither may outlive the server, however it ends."""

    def _start(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--job-timeout", "60",
             "--state-dir", str(tmp_path / "state"),
             "--cache-dir", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=str(REPO_ROOT),
            start_new_session=True)
        assert "listening" in proc.stdout.readline()
        children = _children(proc.pid)
        # The heartbeat Manager's server process and one pool worker.
        assert len(children) >= 2, children
        return proc, children

    def test_sigterm_stops_the_service_and_its_children(self, tmp_path):
        proc, children = self._start(tmp_path)
        try:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert _wait_exited(children, 10), [
                pid for pid in children if not _exited(pid)]
        finally:
            _kill_group(proc)

    def test_sigkill_orphans_nothing(self, tmp_path):
        proc, children = self._start(tmp_path)
        try:
            proc.kill()
            proc.wait(timeout=10)
            assert _wait_exited(children, 10), [
                pid for pid in children if not _exited(pid)]
        finally:
            _kill_group(proc)


class TestCrashResume:
    def test_sigkill_mid_grid_terminal_exactly_once(self, tmp_path):
        state = tmp_path / "state"
        store = tmp_path / "store"
        plan_path = tmp_path / "faults.json"
        # Slow every simulation down so the kill reliably lands
        # mid-grid with some results stored and some not.
        FaultPlan(rules=[FaultRule(site="simulate", action="delay",
                                   seconds=0.3, times=0)]
                  ).dump(plan_path)
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
            REPRO_FAULTS=str(plan_path),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--state-dir", str(state),
             "--cache-dir", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=str(REPO_ROOT),
            start_new_session=True)
        grid = _grid()
        total = len(grid.expand().runs)
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listen banner in {banner!r}"
            client = ServiceClient(
                f"http://{match.group(1)}:{match.group(2)}")
            ticket = client.submit(grid, tenant="alice")
            grid_id = ticket["grid_id"]
            deadline = time.time() + 60
            while time.time() < deadline:
                if client.status(grid_id)["done"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("service never finished a first run")
        finally:
            # Kill the whole process group: the serve process AND its
            # pool workers die instantly, mid-whatever-they-were-doing.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

        cache = ResultCache(store)
        keys = list(grid.expand().runs)
        stored_at_kill = sum(1 for k in keys if cache.verify(k))
        assert 1 <= stored_at_kill < total  # genuinely mid-grid

        # Restart over the same durable state - no faults this time.
        with ExperimentService(_inline_config(
                tmp_path, store_dir=store)) as revived:
            assert revived.drain(timeout=60.0)
            counts = revived.queue.counts()
            stats = revived.workers.stats_dict()
            status = revived.status(grid_id)

        # Every job terminal, exactly once, no quarantine leaks.
        assert status["state"] == "done"
        assert counts[DONE] == total
        assert counts[QUARANTINED] == 0
        assert counts[FAILED] == 0
        # Exactly-once for cached runs: the revived service simulated
        # only the runs the dead one had NOT stored; everything stored
        # at kill time completed via the store, not a re-simulation.
        assert stats["jobs"] == total - stored_at_kill

    def test_resumed_jobs_with_stored_results_skip_simulation(
            self, tmp_path):
        """In-process rehearsal of the same invariant (no subprocess)."""
        grid = _grid(workloads=("copy", "whiskey"))
        with ExperimentService(_inline_config(tmp_path)) as service:
            service.submit(grid, tenant="alice")
            assert service.drain(timeout=30.0)
        # Simulate the crash window: results stored, but the queue
        # thinks the jobs were still running when the process died.
        from repro.service.queue import JobQueue, RUNNING
        queue_dir = tmp_path / "state" / "queue"
        for path in queue_dir.glob("*.json"):
            body = json.loads(path.read_text())
            body["state"] = RUNNING
            path.write_text(json.dumps(body))
        with ExperimentService(_inline_config(tmp_path)) as revived:
            assert revived.queue.resumed == 2
            assert revived.drain(timeout=30.0)
            stats = revived.workers.stats_dict()
            assert revived.queue.counts()[DONE] == 2
        assert stats["jobs"] == 0  # nothing re-simulated
        assert stats["store_skips"] == 2


def _serve_inline(tmp_path, **overrides):
    service = ExperimentService(_inline_config(tmp_path, **overrides))
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    host, port = server.server_address[:2]
    return service, server, ServiceClient(f"http://{host}:{port}",
                                          retries=2)


class TestClientChaos:
    def test_dropped_response_retried_transparently(self, tmp_path):
        service, server, client = _serve_inline(tmp_path)
        plan = FaultPlan(rules=[FaultRule(site="client.request",
                                          action="drop", times=1)])
        try:
            with injected(plan):
                health = client.health()
            assert health["status"] == "ok"
            assert plan.fired() == 1  # first attempt really dropped
        finally:
            service.stop()
            server.server_close()

    def test_drop_storm_exhausts_retries(self, tmp_path):
        service, server, client = _serve_inline(tmp_path)
        plan = FaultPlan(rules=[FaultRule(site="client.request",
                                          action="drop", times=0)])
        try:
            with injected(plan):
                with pytest.raises(ServiceError) as info:
                    client.health()
            assert info.value.status == 0
            assert not isinstance(info.value, Backpressure)
            assert plan.fired() == 3  # 1 attempt + 2 retries
        finally:
            service.stop()
            server.server_close()

    def test_backpressure_retry_honors_retry_after(self, tmp_path):
        service, server, client = _serve_inline(
            tmp_path, max_pending_total=1)
        slow = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="delay",
                                          seconds=0.4, times=0)])
        patient = ServiceClient(client.base_url, retries=8,
                                retry_backpressure=True,
                                retry_policy=RetryPolicy(
                                    max_attempts=9, base_delay=0.05,
                                    max_delay=0.2))
        try:
            with injected(slow):
                first = client.submit(_grid(workloads=("copy",)),
                                      tenant="alice")
                # The queue bound is 1: this submission 429s until the
                # first run finishes, then gets through.
                second = patient.submit(_grid(workloads=("whiskey",)),
                                        tenant="bob")
            assert second["grid_id"] != first["grid_id"]
            assert service.drain(timeout=30.0)
        finally:
            service.stop()
            server.server_close()

    def test_degraded_grid_over_http(self, tmp_path):
        grid = _grid(workloads=("copy", "whiskey"))
        poison = next(k for k, s in grid.expand().runs.items()
                      if s.workload == "whiskey")
        plan = FaultPlan(rules=[FaultRule(site="simulate",
                                          action="raise",
                                          match=poison, times=0)])
        service, server, client = _serve_inline(tmp_path)
        try:
            with injected(plan):
                ticket = client.submit(grid, tenant="alice")
                seen = []
                status = client.wait(ticket["grid_id"], timeout=30,
                                     poll=0.02,
                                     on_progress=seen.append)
            # wait() returns (not raises) for degraded grids.
            assert status["state"] == "degraded"
            assert status["progress"] == {
                "completed": 1, "quarantined": 1, "total": 2}
            assert seen and seen[-1]["progress"]["completed"] == 1
            assert seen[-1]["progress"]["quarantined"] == 1
            result = client.result(ticket["grid_id"],
                                   metrics=["mean_ipc"])
            assert len(result["records"]) == 1  # partial, not poisoned
            assert result["quarantined"] == 1
            listing = client.jobs("quarantined")
            assert listing["count"] == 1
            assert listing["jobs"][0]["key"] == poison
            # Operator runbook: drain the dead-letter queue (the fault
            # budget here is unlimited, so requeue, then cancel).
            assert client.requeue_quarantined([poison])["requeued"] == 1
        finally:
            service.stop()
            server.server_close()
