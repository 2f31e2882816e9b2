"""Worker-shard pool: N processes draining the job queue, fault-tolerantly.

A dispatcher thread owns the durable :class:`~repro.service.queue`
state and leases one warm group at a time (fair-share order), farming
execution to a ``multiprocessing`` pool of *shards*.  Pool workers are
stateless executors of :func:`~repro.experiment.execute.simulate_group`
- the exact function an in-process Session uses - so a group still
warms once and forks its warm-state snapshot for every member, and a
run computes bit-identical results no matter which surface launched it.

Results stream back through the dispatcher: each finished group is
published to the :class:`~repro.service.store.ResultStore` and its jobs
marked ``done`` *before* the next lease, so the durable state on disk
is never more than one in-flight group away from the truth.  A crash
loses only the groups that were actually executing - the queue demotes
them back to ``pending`` at next startup.

Failures are survived, not propagated:

* A raising group of size > 1 is **isolated**: every member re-enqueues
  ``solo`` (immediately, no backoff) so the poisonous config re-fails
  alone and its innocent siblings simply succeed on their own attempt.
* A raising singleton consults the :class:`~repro.resilience.RetryPolicy`
  - transient failures re-enqueue with deterministic exponential
  backoff; permanent failures and exhausted attempt budgets move the
  job to ``quarantined`` (a dead-letter that never fails its grid's
  siblings).
* With ``job_timeout`` set, a reaper thread watches per-group
  heartbeats.  A hung group is reaped: its jobs are disposed through
  the same retry policy (a timeout is transient), the stuck shard is
  retired and **respawned** - a replacement thread inline, a fresh
  process pool in process mode - and any innocent in-flight groups
  swept up by a pool recycle are released with their attempt refunded.
  Every queue transition is guarded by the group's *lease epoch*, so a
  zombie shard that eventually wakes up cannot complete or fail work
  that was already re-leased to someone else.

``use_processes=False`` executes groups inline on the dispatcher
threads (one thread per shard) - the mode unit tests and tiny
single-host deployments use; it keeps everything in one process so
monkeypatched simulators and deterministic scheduling work.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.managers
import multiprocessing.pool
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.experiment.execute import iter_group, simulate_group
from repro.resilience.retry import RetryPolicy
from repro.service.queue import Job, JobQueue
from repro.service.store import ResultStore
from repro.sim.results import RunResult
from repro.telemetry import get_logger

logger = get_logger("workers")

#: Module-level indirection so tests can substitute the executor.
run_group = simulate_group


def _run_group_remote(items: List[Tuple[str, Any]], heartbeats: Any,
                      epoch: str
                      ) -> Tuple[List[Tuple[str, RunResult]], int, int]:
    """Pool-side executor that ticks a heartbeat after every member.

    Used instead of the plain batch function when a ``job_timeout`` is
    configured in process mode: the shared ``heartbeats`` mapping (a
    ``multiprocessing.Manager().dict()``) lets the dispatcher-side
    reaper distinguish a *slow but alive* group (heartbeat advances
    between members) from a genuinely hung one.
    """
    pairs: List[Tuple[str, RunResult]] = []
    warmups = restores = 0
    for key, result, warmed, restored in iter_group(items):
        pairs.append((key, result))
        warmups += warmed
        restores += restored
        try:
            heartbeats[epoch] = time.time()
        except Exception:  # pragma: no cover - manager torn down mid-run
            pass
    return pairs, warmups, restores


@dataclass
class WorkerStats:
    """What the pool has done since start (monotonic)."""

    groups: int = 0
    jobs: int = 0
    warmups: int = 0
    restores: int = 0
    #: Failed job executions (each attempt that raised counts once).
    failures: int = 0
    #: Jobs re-enqueued for another attempt (backoff or isolation).
    retried: int = 0
    #: Jobs dead-lettered after exhausting their budget.
    quarantined: int = 0
    #: Groups reaped for exceeding the job timeout.
    timeouts: int = 0
    #: Shard replacements (threads respawned / process pools recycled).
    pool_respawns: int = 0
    #: Leased jobs completed from the store without re-simulating
    #: (crash-resume exactly-once: the dying worker's result landed).
    store_skips: int = 0


#: Seconds between a heartbeat Manager's checks that its parent lives.
MANAGER_PARENT_POLL_S = 0.5


def _exit_with_parent(parent_pid: int) -> None:
    """Manager-process initializer: exit once the parent process is gone.

    ``WorkerPool.stop`` shuts the heartbeat Manager down, but a parent
    killed outright (``kill -9``) never gets there, and the Manager's
    server process would live on, reparented.  A daemon thread polls
    ``os.getppid()`` and ends the process when it changes.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(MANAGER_PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="repro-manager-parent-watch",
                     daemon=True).start()


class WorkerPool:
    """Dispatcher + shard pool pulling warm groups from the queue."""

    def __init__(self, queue: JobQueue, store: ResultStore,
                 shards: int = 2, max_group: int = 8,
                 use_processes: bool = True,
                 poll_interval: float = 0.05,
                 retry: Optional[RetryPolicy] = None,
                 job_timeout: Optional[float] = None,
                 on_settled: Optional[Callable[[], None]] = None) -> None:
        self.queue = queue
        self.store = store
        #: Fired (from a dispatcher thread, exceptions swallowed) after
        #: a group settles - completed, failed, or quarantined - so an
        #: orchestration layer (the adaptive supervisor) can react to
        #: progress promptly instead of polling blind.
        self.on_settled = on_settled
        self.shards = max(1, int(shards))
        self.max_group = max(1, int(max_group))
        self.use_processes = use_processes
        self.poll_interval = poll_interval
        self.retry = retry if retry is not None else RetryPolicy()
        self.job_timeout = job_timeout
        self.stats = WorkerStats()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._threads: List[threading.Thread] = []
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._inflight = 0
        #: lease epoch -> {"jobs", "started", "ident"} for every group
        #: currently executing (the reaper's watch list).
        self._inflight_groups: Dict[int, Dict[str, Any]] = {}
        #: Thread idents the reaper has given up on; they exit at the
        #: top of their next loop iteration.
        self._retired: set = set()
        self._reaper: Optional[threading.Thread] = None
        self._manager: Optional[Any] = None
        self._heartbeats: Optional[Any] = None
        self._thread_seq = 0
        #: Seconds shards have spent executing groups (finished groups
        #: only; :meth:`utilisation` adds the live in-flight portion).
        self._busy_seconds = 0.0
        self._started_at: Optional[float] = None

    # -- lifecycle -----------------------------------------------------

    def _spawn_shard_thread(self) -> None:
        thread = threading.Thread(
            target=self._loop,
            name=f"repro-worker-{self._thread_seq}", daemon=True)
        self._thread_seq += 1
        thread.start()
        with self._lock:
            self._threads.append(thread)

    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        if self._started_at is None:
            self._started_at = time.time()
        logger.info(
            "worker pool starting: %d shard(s), %s mode",
            self.shards,
            "process" if self.use_processes else "inline",
            extra={"event": "workers.start", "shards": self.shards,
                   "mode": "process" if self.use_processes
                   else "inline"})
        if self.use_processes:
            if self.job_timeout is not None:
                self._manager = multiprocessing.managers.SyncManager()
                self._manager.start(_exit_with_parent, (os.getpid(),))
                self._heartbeats = self._manager.dict()
            self._pool = multiprocessing.Pool(processes=self.shards)
            threads = 1  # one dispatcher feeding the process pool
        else:
            threads = self.shards  # inline: each thread is a shard
        for _ in range(threads):
            self._spawn_shard_thread()
        if self.job_timeout is not None:
            self._reaper = threading.Thread(
                target=self._reap_loop, name="repro-reaper", daemon=True)
            self._reaper.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop leasing, drain in-flight groups, release the pool."""
        self._stop.set()
        self._wake.set()
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self._reaper is not None:
            self._reaper.join(timeout=timeout)
            self._reaper = None
        with self._lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.close()
            pool.join()
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
            self._heartbeats = None

    def kick(self) -> None:
        """Wake the dispatcher early (a submission just landed)."""
        self._wake.set()

    # -- dispatch ------------------------------------------------------

    def _is_retired(self) -> bool:
        with self._lock:
            if threading.get_ident() in self._retired:
                self._retired.discard(threading.get_ident())
                return True
        return False

    def _loop(self) -> None:
        while not self._stop.is_set():
            if self._is_retired():
                return
            if self.use_processes and not self._reserve_slot():
                continue
            group = self.queue.lease(self.max_group)
            if group:
                group = self._skip_stored(group)
            if not group:
                if self.use_processes:
                    self._release_slot()
                self._wake.wait(self.poll_interval)
                self._wake.clear()
                continue
            items = [(job.key, job.spec) for job in group]
            epoch = group[0].lease
            self._track(group, epoch)
            if not self.use_processes:
                try:
                    with telemetry.span("job.lease→done",
                                        category="service",
                                        jobs=len(items), epoch=epoch):
                        outcome = run_group(items)
                except Exception as exc:  # worker crash: isolate/retry
                    self._untrack(epoch)
                    self._on_error(group, exc)
                else:
                    self._untrack(epoch)
                    self._on_result(group, outcome)
            else:
                self._dispatch_to_pool(group, items, epoch)

    def _dispatch_to_pool(self, group: List[Job],
                          items: List[Tuple[str, Any]],
                          epoch: int) -> None:
        with self._lock:
            pool = self._pool
        if pool is None:
            # Mid-recycle after a reap: put the group back untouched.
            self._untrack(epoch)
            self.queue.release([j.key for j in group], lease=epoch,
                               refund_attempt=True)
            self._release_slot()
            return
        if self._heartbeats is not None:
            self._heartbeats[str(epoch)] = time.time()
            call: Tuple[Any, Tuple[Any, ...]] = (
                _run_group_remote, (items, self._heartbeats, str(epoch)))
        else:
            call = (run_group, (items,))
        try:
            pool.apply_async(
                call[0], call[1],
                callback=lambda out, g=group, e=epoch:
                    self._finish(g, e, out),
                error_callback=lambda exc, g=group, e=epoch:
                    self._finish_error(g, e, exc))
        except ValueError:  # pool terminated under us by the reaper
            self._untrack(epoch)
            self.queue.release([j.key for j in group], lease=epoch,
                               refund_attempt=True)
            self._release_slot()

    def _skip_stored(self, group: List[Job]) -> List[Job]:
        """Complete leased jobs whose result already exists (verified).

        Happens after a crash: a worker's result hit the store but the
        process died before the queue recorded DONE, so the job came
        back PENDING.  Re-simulating it would violate exactly-once for
        cached runs; completing it from the store is free and correct
        (results are content-addressed and deterministic).
        """
        remaining: List[Job] = []
        skipped = 0
        for job in group:
            if job.key in self.store:
                self.queue.complete(job.key, lease=job.lease)
                skipped += 1
            else:
                remaining.append(job)
        if skipped:
            with self._lock:
                self.stats.store_skips += skipped
            self._wake.set()
            self._notify_settled()
        return remaining

    def _reserve_slot(self) -> bool:
        """Cap in-flight groups at the shard count (process mode)."""
        with self._lock:
            if self._inflight < self.shards:
                self._inflight += 1
                return True
        self._wake.wait(self.poll_interval)
        self._wake.clear()
        return False

    def _release_slot(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
        self._wake.set()

    def _finish(self, group: List[Job], epoch: int, outcome: Any) -> None:
        try:
            self._untrack(epoch)
            self._on_result(group, outcome)
        finally:
            self._release_slot()

    def _finish_error(self, group: List[Job], epoch: int,
                      exc: BaseException) -> None:
        try:
            self._untrack(epoch)
            self._on_error(group, exc)
        finally:
            self._release_slot()

    # -- in-flight tracking and reaping --------------------------------

    def _track(self, group: List[Job], epoch: int) -> None:
        with self._lock:
            self._inflight_groups[epoch] = {
                "jobs": list(group),
                "started": time.time(),
                "ident": None if self.use_processes
                         else threading.get_ident(),
            }

    def _untrack(self, epoch: int) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._inflight_groups.pop(epoch, None)
            if entry is not None:
                self._busy_seconds += \
                    max(0.0, time.time() - entry["started"])
        if self._heartbeats is not None:
            try:
                self._heartbeats.pop(str(epoch), None)
            except Exception:  # pragma: no cover - manager shut down
                pass
        return entry

    def _heartbeat_age(self, epoch: int, entry: Dict[str, Any],
                       now: float) -> float:
        last = entry["started"]
        if self._heartbeats is not None:
            try:
                last = max(last, self._heartbeats.get(str(epoch), last))
            except Exception:  # pragma: no cover - manager shut down
                pass
        return now - last

    def _reap_loop(self) -> None:
        assert self.job_timeout is not None
        interval = max(0.01, min(self.poll_interval,
                                 self.job_timeout / 4.0))
        while not self._stop.wait(interval):
            now = time.time()
            with self._lock:
                stale = [epoch for epoch, entry
                         in self._inflight_groups.items()
                         if self._heartbeat_age(epoch, entry, now)
                         > self.job_timeout]
            for epoch in stale:
                self._reap(epoch)

    def _reap(self, epoch: int) -> None:
        """A group blew its timeout: dispose it, respawn its shard."""
        entry = self._untrack(epoch)
        if entry is None:  # finished in the race window: not hung
            return
        jobs: List[Job] = entry["jobs"]
        exc = TimeoutError(
            f"job timeout: no progress in {self.job_timeout:.3g}s")
        with self._lock:
            self.stats.timeouts += 1
        logger.warning(
            "reaping hung group (lease epoch %d, %d job(s)): no "
            "progress in %.3gs", epoch, len(jobs), self.job_timeout,
            extra={"event": "workers.reap", "epoch": epoch,
                   "jobs": len(jobs), "timeout": self.job_timeout})
        if not self.use_processes:
            # The stuck thread cannot be killed; retire it (it exits -
            # or its late completions no-op on the stale lease) and
            # spawn a replacement so capacity is not lost.  It never
            # leaves its run's collector pause, so end that here.
            gc.enable()
            with self._lock:
                if entry["ident"] is not None:
                    self._retired.add(entry["ident"])
                    # Forget the zombie so stop() never waits out its
                    # sleep; it is a daemon and its stale lease no-ops.
                    self._threads = [t for t in self._threads
                                     if t.ident != entry["ident"]]
                self.stats.pool_respawns += 1
            self._on_error(jobs, exc)
            if not self._stop.is_set():
                self._spawn_shard_thread()
            return
        # Process mode: terminate the whole pool (the only way to kill
        # a hung worker), dispose the hung group, release any innocent
        # groups swept up by the recycle, then bring up a fresh pool.
        with self._lock:
            pool = self._pool
            self._pool = None
            bystanders = dict(self._inflight_groups)
            self._inflight_groups.clear()
            self._inflight = 0
        if pool is not None:
            pool.terminate()
            pool.join()
        self._on_error(jobs, exc)
        for other_epoch, other in bystanders.items():
            self.queue.release([j.key for j in other["jobs"]],
                               lease=other_epoch, refund_attempt=True)
        if not self._stop.is_set():
            with self._lock:
                self._pool = multiprocessing.Pool(processes=self.shards)
                self.stats.pool_respawns += 1
        self._wake.set()

    # -- completion ----------------------------------------------------

    def _on_result(self, group: List[Job], outcome: Any) -> None:
        pairs, warmups, restores = outcome
        specs = {job.key: job.spec for job in group}
        leases = {job.key: job.lease for job in group}
        finished = set()
        for key, result in pairs:
            self.store.put(key, specs[key], result)
            self.queue.complete(key, lease=leases[key])
            finished.add(key)
        # A group that returned short (shouldn't happen, but never
        # strand a lease) releases its unfinished members.
        leftover = [key for key in specs if key not in finished]
        for key in leftover:
            self.queue.release([key], lease=leases[key])
        with self._lock:
            self.stats.groups += 1
            self.stats.jobs += len(finished)
            self.stats.warmups += warmups
            self.stats.restores += restores
        self._wake.set()
        self._notify_settled()

    def _on_error(self, group: List[Job], exc: BaseException) -> None:
        """Dispose a failed group: isolate, retry with backoff, or
        quarantine - never fail innocent siblings."""
        error = f"{type(exc).__name__}: {exc}"
        logger.warning(
            "group of %d failed: %s", len(group), error,
            extra={"event": "workers.group_error", "jobs": len(group),
                   "error": error})
        retried = quarantined = 0
        for job in group:
            if len(group) > 1:
                # Cannot attribute the crash inside a batch: re-enqueue
                # every member solo (no backoff) so the poisonous one
                # re-fails alone and the innocent ones just succeed.
                if job.attempts < self.retry.max_attempts:
                    self.queue.retry(job.key, error, delay=0.0,
                                     solo=True, lease=job.lease)
                    retried += 1
                else:
                    self.queue.quarantine(job.key, error, lease=job.lease)
                    quarantined += 1
            elif self.retry.should_retry(exc, job.attempts):
                delay = self.retry.delay(job.attempts, job.key)
                self.queue.retry(job.key, error, delay=delay,
                                 solo=True, lease=job.lease)
                retried += 1
            else:
                self.queue.quarantine(job.key, error, lease=job.lease)
                quarantined += 1
        with self._lock:
            self.stats.groups += 1
            self.stats.failures += len(group)
            self.stats.retried += retried
            self.stats.quarantined += quarantined
        self._wake.set()
        self._notify_settled()

    def _notify_settled(self) -> None:
        if self.on_settled is None:
            return
        try:
            self.on_settled()
        except Exception:  # pragma: no cover - observer must not kill us
            logger.exception("on_settled callback raised")

    # -- introspection -------------------------------------------------

    def busy_seconds(self) -> float:
        """Shard-seconds spent executing groups, including in-flight."""
        now = time.time()
        with self._lock:
            live = sum(max(0.0, now - entry["started"])
                       for entry in self._inflight_groups.values())
            return self._busy_seconds + live

    def utilisation(self) -> float:
        """Fraction of shard capacity spent executing since start.

        ``busy shard-seconds / (uptime x shards)``, clamped to [0, 1];
        0.0 before the pool ever started.
        """
        if self._started_at is None:
            return 0.0
        uptime = max(1e-9, time.time() - self._started_at)
        return min(1.0, self.busy_seconds() / (uptime * self.shards))

    def stats_dict(self) -> Dict[str, Any]:
        with self._lock:
            data = asdict(self.stats)
            inflight = len(self._inflight_groups)
        data["shards"] = self.shards
        data["mode"] = "processes" if self.use_processes else "inline"
        data["job_timeout"] = self.job_timeout
        data["max_attempts"] = self.retry.max_attempts
        data["inflight_groups"] = inflight
        data["busy_seconds"] = round(self.busy_seconds(), 6)
        data["utilisation"] = round(self.utilisation(), 6)
        return data
